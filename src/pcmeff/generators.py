"""Deterministic and seeded construction of every matrix family used in tests.

Families: consistent, simple (one perturbed cell), the three canonical
double-perturbed forms, the worked 4x4 example with its known inefficient
eigenvector, and the parametric family apq(n, p, q) whose eigenvector is
inefficient for every n >= 4 and q != 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCaseError
from .pcm import (
    CANONICAL_FORMS,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    apply_perturbation,
    check_order,
)

# the order is fixed: bench/workloads.py seeds relabelings with FAMILIES.index
FAMILIES = tuple(kind.value for kind in CANONICAL_FORMS) + ("example1", "apq")

DEFAULT_BASE_RANGE = (1.0 / 9.0, 9.0)
# closer to 1 than this, a perturbation drowns in float noise
DEGENERACY_GAP = 1e-3

EXAMPLE1_ROWS = (
    (1.0, 0.5, 4.0, 2.0),
    (2.0, 1.0, 5.0, 7.0),
    (0.25, 0.2, 1.0, 2.0),
    (0.5, 1.0 / 7.0, 0.5, 1.0),
)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate; unspecified parameters are sampled from the seed.

    A canonical-form family always draws its base ratios from the seed,
    before any factor the spec leaves open.
    """

    family: str
    n: int | None = None
    delta: float | None = None
    gamma: float | None = None
    p: float | None = None
    q: float | None = None
    seed: int = 0


def example1_matrix() -> Pcm:
    """The 4x4 matrix whose eigenvector fails the efficiency criterion."""
    return Pcm(EXAMPLE1_ROWS)


def parametric_inefficient(n: int, p: float, q: float) -> Pcm:
    """The parametric family apq: row 1 filled with p, a q-cycle below it.

    Upper triangle: a_1j = p for j = 2..n, a_{i,i+1} = q for i = 2..n-1,
    a_{2,n} = 1/q, every other cell 1 (1-based).  For q = 1 this is the
    consistent matrix with all base ratios p.
    """
    if n < 4:
        raise InvalidCaseError(f"parametric family requires n >= 4, got {n}")
    if not (0 < p < np.inf and 0 < q < np.inf):
        raise InvalidCaseError("p and q must be positive finite reals")
    a = np.ones((n, n))
    a[0, 1:] = p
    a[1:, 0] = 1.0 / p
    for i in range(1, n - 1):
        a[i, i + 1] = q
        a[i + 1, i] = 1.0 / q
    a[1, n - 1] = 1.0 / q
    a[n - 1, 1] = q
    return Pcm(a)


def _degenerate(f: float) -> bool:
    """Whether a perturbation factor lies within the degeneracy gap around 1."""
    return abs(f - 1.0) < DEGENERACY_GAP


def sample_ratio(rng: np.random.Generator, exclude_one: bool = False) -> float:
    """Log-uniform draw from ``DEFAULT_BASE_RANGE``; multiplicative scales sample evenly.

    With ``exclude_one`` the draw is repeated until it is not
    :func:`_degenerate`.
    """
    lo, hi = DEFAULT_BASE_RANGE
    while True:
        v = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        if not exclude_one or not _degenerate(v):
            return v


def sample_bases(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` log-uniform bases of order n from one draw, shape (count, n - 1).

    The draws and their bits are those of ``count`` :func:`sample_base` calls.
    """
    lo, hi = DEFAULT_BASE_RANGE
    return np.exp(rng.uniform(np.log(lo), np.log(hi), (count, n - 1)))


def sample_base(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """One log-uniform base of order n: :func:`sample_bases` as a batch of one."""
    return tuple(sample_bases(rng, n, 1)[0].tolist())


def generate(spec: GeneratorSpec) -> tuple[Pcm, PerturbationStructure | None]:
    """Build the matrix a spec describes, with ground truth when one exists.

    Deterministic for a fixed spec: the seed fills in any parameter the
    spec leaves open.  The returned structure is the construction recipe
    (None for example1 and apq, whose structure is a classification
    outcome, not an input).
    """
    family = spec.family
    if family not in FAMILIES:
        raise InvalidCaseError(f"unknown family {family!r}; expected one of {FAMILIES}")
    rng = np.random.default_rng(spec.seed)

    if family == "example1":
        if spec.n not in (None, 4):
            raise InvalidCaseError("example1 is a fixed 4x4 matrix")
        return example1_matrix(), None

    if spec.n is None:
        raise InvalidCaseError(f"family {family!r} requires an order n")
    n = spec.n
    if family == "apq":
        p = spec.p if spec.p is not None else sample_ratio(rng)
        # q = 1 gives the consistent matrix, whose eigenvector is efficient: not apq
        if spec.q is not None and _degenerate(spec.q):
            raise InvalidCaseError(f"q must differ from 1 for family {family!r}")
        q = spec.q if spec.q is not None else sample_ratio(rng, exclude_one=True)
        return parametric_inefficient(n, p, q), None

    # every other family is a kind of the table, built from its canonical form
    kind = PerturbationKind(family)
    check_order(kind, n)
    base = sample_base(rng, n)
    factors = []
    for name in ("delta", "gamma")[:len(CANONICAL_FORMS[kind].cells)]:
        # a degenerate factor leaves its cell as good as unperturbed: not of this kind
        if (f := getattr(spec, name)) is not None and _degenerate(f):
            raise InvalidCaseError(f"{name} must differ from 1 for family {family!r}")
        factors.append(f if f is not None else sample_ratio(rng, exclude_one=True))
    structure = PerturbationStructure(kind, n, base, *factors)
    return apply_perturbation(structure), structure
