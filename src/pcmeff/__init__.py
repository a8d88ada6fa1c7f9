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
    strongly_connected,
    strongly_connected_components,
    to_dot,
)
from .errors import (
    DegenerateParametersError,
    HypothesisViolatedError,
    ImprovementFailedError,
    IncompatibleOrderError,
    InvalidCaseError,
    NoConvergenceError,
    NonPositiveEntryError,
    NotSquareError,
    ParseError,
    PcmError,
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
    consistent_pcm,
    is_consistent,
    reconstruct,
)
from .spectral import (
    BatchSpectralResult,
    CharPolyParams,
    ClosedFormResult,
    SpectralResult,
    charpoly_oracle,
    closed_form_eigenvector,
    eval_charpoly,
    lambda_max_closed_form,
    normalize_weights,
    power_iteration,
    power_iteration_batch,
    raw_variant_vector,
    variant_count,
)
from .verification import (
    LemmaCheck,
    LemmaReport,
    LemmaSample,
    SuiteGrid,
    TheoremReport,
    check_lemma,
    run_lemma_suite,
    verify_double_perturbed_efficiency,
    verify_main_theorem,
    verify_parametric_inefficiency,
    verify_simple_perturbed_efficiency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
