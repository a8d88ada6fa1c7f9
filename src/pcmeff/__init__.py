"""Eigenvector weights, Pareto efficiency and perturbation structure of PCMs."""

__version__ = "0.1.0"

from .efficiency import (
    EfficiencyDigraph,
    EfficiencyVerdict,
    build_digraph,
    dominates,
    find_sink_improvement,
    is_efficient,
    reachability_oracle,
    strongly_connected_components,
    to_dot,
)
from .errors import (
    HypothesisViolatedError,
    ImprovementFailedError,
    InvalidCaseError,
    NoConvergenceError,
    NonPositiveEntryError,
    NotSquareError,
    ParseError,
    PcmError,
    PotentialRangeError,
    ReciprocityViolationError,
    RootNotBracketedError,
)
from .generators import GeneratorSpec, example1_matrix, generate, parametric_inefficient
from .pcm import (
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    apply_perturbation,
    classify_perturbation,
)
from .spectral import (
    BatchSpectralResult,
    ClosedFormResult,
    SpectralResult,
    closed_form_eigenvector,
    lambda_max_closed_form,
    power_iteration,
    power_iteration_batch,
    raw_variant_vector,
    variant_count,
)
from .verification import (
    LemmaReport,
    SuiteGrid,
    TheoremReport,
    check_lemma,
    run_lemma_suite,
    theorem_sweep,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
