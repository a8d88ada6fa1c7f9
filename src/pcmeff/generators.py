"""Deterministic and seeded construction of every matrix family used in tests.

Families: consistent, simple (one perturbed cell), the three canonical
double-perturbed forms, the worked 4x4 example with its known inefficient
eigenvector, and the parametric family apq(n, p, q) whose eigenvector is
inefficient for every n >= 4 and q != 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleOrderError
from .pcm import (
    CANONICAL_FORMS,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    apply_perturbation,
    check_order,
)

FAMILIES = ("consistent", "simple", "case1", "case2a", "case2b", "example1", "apq")

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
    """What to generate; unspecified parameters are sampled from the seed."""

    family: str
    n: int | None = None
    delta: float | None = None
    gamma: float | None = None
    p: float | None = None
    q: float | None = None
    base: tuple[float, ...] | None = None
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
        raise IncompatibleOrderError(f"parametric family requires n >= 4, got {n}")
    if p <= 0 or q <= 0:
        raise IncompatibleOrderError("p and q must be positive")
    a = np.ones((n, n))
    a[0, 1:] = p
    a[1:, 0] = 1.0 / p
    for i in range(1, n - 1):
        a[i, i + 1] = q
        a[i + 1, i] = 1.0 / q
    a[1, n - 1] = 1.0 / q
    a[n - 1, 1] = q
    return Pcm(a)


def sample_ratio(rng: np.random.Generator, lo: float, hi: float,
                 exclude_one: bool = False) -> float:
    """Log-uniform draw from [lo, hi]; multiplicative scales sample evenly.

    With ``exclude_one`` the draw is repeated until it clears the
    degeneracy gap around 1.
    """
    while True:
        v = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        if not exclude_one or abs(v - 1.0) >= DEGENERACY_GAP:
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
        raise IncompatibleOrderError(f"unknown family {family!r}; expected one of {FAMILIES}")
    rng = np.random.default_rng(spec.seed)

    if family == "example1":
        if spec.n not in (None, 4):
            raise IncompatibleOrderError("example1 is a fixed 4x4 matrix")
        return example1_matrix(), None

    if spec.n is None:
        raise IncompatibleOrderError(f"family {family!r} requires an order n")
    n = spec.n
    lo, hi = DEFAULT_BASE_RANGE
    if family == "apq":
        p = spec.p if spec.p is not None else sample_ratio(rng, lo, hi)
        q = spec.q if spec.q is not None else sample_ratio(rng, lo, hi, exclude_one=True)
        return parametric_inefficient(n, p, q), None

    # every other family is a kind of the table, built from its canonical form
    kind = PerturbationKind(family)
    check_order(kind, n, IncompatibleOrderError)
    base = spec.base if spec.base is not None else sample_base(rng, n)
    if len(base) != n - 1:
        raise IncompatibleOrderError(f"base must have {n - 1} ratios, got {len(base)}")
    factors = []
    for name in ("delta", "gamma")[:len(CANONICAL_FORMS[kind].cells)]:
        if (f := getattr(spec, name)) == 1.0:    # an unperturbed cell: not of this kind
            raise IncompatibleOrderError(f"{name} must differ from 1 for family {family!r}")
        factors.append(f if f is not None else sample_ratio(rng, lo, hi, exclude_one=True))
    structure = PerturbationStructure(kind, n, tuple(base), *factors)
    return apply_perturbation(structure), structure
