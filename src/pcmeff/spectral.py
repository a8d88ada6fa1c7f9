"""Principal eigenpair of a PCM: iterative and closed-form computation.

Two independent routes are provided on purpose.  ``power_iteration`` works
on any valid PCM and only uses matrix-vector products.  For the canonical
double-perturbed forms the characteristic polynomial collapses to a low
degree bracket whose unique root above n is the principal eigenvalue, and
the eigenvector itself has explicit algebraic forms; those are evaluated
directly.  ``charpoly_oracle`` (a plain determinant) ties the two routes
together in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParametersError,
    InvalidCaseError,
    NoConvergenceError,
    RootNotBracketedError,
)
from .pcm import CANONICAL_FORMS, DOUBLE_KINDS, PerturbationKind, PerturbationStructure, Pcm, \
    check_order

DEFAULT_POWER_TOL = 1e-12
DEFAULT_MAX_ITER = 200_000


@dataclass(frozen=True)
class SpectralResult:
    """Principal eigenvalue and sum-normalized positive eigenvector."""

    lambda_max: float
    w: np.ndarray
    residual: float
    iterations: int


def normalize_weights(w) -> np.ndarray:
    """Scale a positive vector to sum 1."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive finite reals")
    return w / w.sum()


def power_iteration(m: Pcm, tol: float = DEFAULT_POWER_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Dominant eigenpair by repeated multiplication, all-ones start.

    The eigenvalue estimate is the 1-norm growth ratio ||A w||_1 / ||w||_1,
    which for a positive matrix converges to the dominant eigenvalue.
    Convergence is declared when |A w - lambda w|_inf / |w|_inf <= tol.
    The deterministic start vector keeps runs bit-reproducible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = m.entries
    n = m.n
    w = np.full(n, 1.0 / n)
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = a @ w
        lam = y.sum()          # w sums to 1
        residual = np.max(np.abs(y - lam * w)) / np.max(w)
        if residual <= tol:
            return SpectralResult(float(lam), w, float(residual), it)
        w = y / lam
    raise NoConvergenceError(max_iter, float(residual))


@dataclass(frozen=True)
class CharPolyParams:
    """Parameters of the closed-form characteristic polynomial."""

    kind: PerturbationKind
    n: int
    delta: float
    gamma: float

    def __post_init__(self):
        if self.kind not in DOUBLE_KINDS:
            raise InvalidCaseError(f"no closed-form polynomial for kind {self.kind.value!r}")
        check_order(self.kind, self.n)
        if self.delta <= 0 or self.gamma <= 0:
            raise InvalidCaseError("delta and gamma must be positive")

    @property
    def c(self) -> float:
        d, g = self.delta, self.gamma
        return (g - 1.0) ** 2 * (d - 1.0) ** 2 / (g * d)


def _bracket_coeffs(params: CharPolyParams) -> np.ndarray:
    """Coefficients (highest degree first) of the non-trivial polynomial factor.

    The full characteristic polynomial is sign * lambda^k * bracket(lambda);
    the bracket carries every nonzero root, in particular the unique real
    root above n.
    """
    n, d, g = params.n, params.delta, params.gamma
    if params.kind == PerturbationKind.CASE1:
        b1 = (g / d + d / g) + (n - 3) * (g + d + 1.0 / g + 1.0 / d) - 4.0 * n + 10.0
        return np.array([1.0, -n, 0.0, -b1])
    e = g + d + 1.0 / g + 1.0 / d - 4.0
    c = params.c
    if params.kind == PerturbationKind.CASE2A:
        return np.array([1.0, -4.0, 0.0, -2.0 * e, -c])
    return np.array([1.0, -n, 0.0, -(n - 2) * e, -c, -(n - 4) * c])


def eval_charpoly(params: CharPolyParams, lam: float) -> float:
    """Evaluate the closed-form characteristic polynomial at ``lam``.

    Matches det(A - lam I) of the corresponding canonical matrix for every
    base vector (the similarity scaling by the base drops out).
    """
    coeffs = _bracket_coeffs(params)
    sign = -1.0 if params.n % 2 else 1.0
    return sign * lam ** (params.n - len(coeffs) + 1) * float(np.polyval(coeffs, lam))


def charpoly_oracle(m: Pcm, lam: float) -> float:
    """det(A - lam I), computed directly by LU factorization.

    Deliberately ignorant of the closed forms; serves as the independent
    reference they are checked against.
    """
    a = m.entries
    return float(np.linalg.det(a - lam * np.eye(m.n)))


def lambda_max_closed_form(params: CharPolyParams) -> float:
    """Unique real root above n of the polynomial bracket.

    Bisection on [n, 1 + max |coefficient|] (a Cauchy root bound, so the
    upper end is always on the positive side), then Newton polish.  The
    bracket is negative at n and strictly increasing beyond its largest
    root, which makes the combination robust.  With delta = gamma = 1 the
    matrix is consistent and exactly n is returned.
    """
    coeffs = _bracket_coeffs(params)
    n = params.n
    lo = float(n)
    f_lo = float(np.polyval(coeffs, lo))
    if f_lo == 0.0:
        return lo
    hi = 1.0 + float(np.max(np.abs(coeffs)))
    f_hi = float(np.polyval(coeffs, hi))
    if f_lo > 0.0 or f_hi <= 0.0:
        raise RootNotBracketedError(
            f"bracket failed: p({lo}) = {f_lo:.3e}, p({hi}) = {f_hi:.3e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if float(np.polyval(coeffs, mid)) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    root = 0.5 * (lo + hi)
    dcoeffs = np.polyder(coeffs)
    for _ in range(4):
        f = float(np.polyval(coeffs, root))
        df = float(np.polyval(dcoeffs, root))
        if df == 0.0:
            break
        step = f / df
        candidate = root - step
        if candidate < n:
            break
        root = candidate
        if abs(step) <= 1e-15 * root:
            break
    return root


def variant_count(kind: PerturbationKind) -> int:
    """Number of algebraically distinct eigenvector forms for a case.

    One form per alternative the perturbed cells touch, plus one shared by
    the untouched trailing alternatives when every order of the kind has some.
    """
    if kind not in DOUBLE_KINDS:
        raise InvalidCaseError(f"no closed-form eigenvector for kind {kind.value!r}")
    form = CANONICAL_FORMS[kind]
    return form.head + (form.min_order > form.head)


def _case1_vector(n, x, d, g, lam, variant):
    w = np.empty(n)
    if variant == 0:
        w[0] = d * g * lam * (lam - n + 1)
        w[1] = (g * lam - (n - 2) * g + d + (n - 3) * d * g) / x[1]
        w[2] = (d * lam - (n - 2) * d + g + (n - 3) * d * g) / x[2]
        tail = g + d + d * g * lam - 2 * d * g
        for i in range(3, n):
            w[i] = tail / x[i]
    elif variant == 1:
        w[0] = x[1] * g * lam * (d * lam - (n - 2) * d + g + n - 3)
        w[1] = g * lam**3 - (n - 1) * g * lam**2 - (n - 3) * (g**2 - 2 * g + 1)
        w[2] = x[1] / x[2] * (g * lam**2 - g * lam + d * lam + (n - 3) * (d * g - d - g + 1))
        tail = g * lam**2 - g * lam - g + d + d * g * lam - d * g + g**2
        for i in range(3, n):
            w[i] = x[1] / x[i] * tail
    elif variant == 2:
        w[0] = x[2] * d * lam * (d + g * lam - (n - 2) * g + n - 3)
        w[1] = x[2] / x[1] * (d * lam**2 - d * lam + g * lam + (n - 3) * (d * g - d - g + 1))
        w[2] = d * lam**3 - (n - 1) * d * lam**2 - (n - 3) * (d**2 - 2 * d + 1)
        tail = d * lam**2 - d * lam + g - d + d**2 + d * g * lam - d * g
        for i in range(3, n):
            w[i] = x[2] / x[i] * tail
    else:
        w[0] = x[3] * d * g * lam * (d + g + lam - 2)
        w[1] = x[3] / x[1] * (d * g * lam**2 - d * g * lam + g**2 + g * lam - g - d * g + d)
        w[2] = x[3] / x[2] * (d * g * lam**2 - d * g * lam - d * g + g + d**2 + d * lam - d)
        tail = d * g * lam**2 - 4 * d * g + g + d + d**2 * g + g**2 * d
        for i in range(3, n):
            w[i] = x[3] / x[i] * tail
    return w


def _case2a_vector(x, d, g, lam, variant):
    w = np.empty(4)
    if variant == 0:
        w[0] = d * (lam**3 * g - 3 * lam**2 * g - 1 + 2 * g - g**2)
        w[1] = (lam**2 * g - 2 * lam * g + d + 2 * lam * d * g - 2 * d * g + d * g**2) / x[1]
        w[2] = g * (g + lam - 1 + d * lam**2 - 2 * lam * d + d + lam * d * g - d * g) / x[2]
        w[3] = (1 + lam * g - g + lam * d - d + d * g * lam**2 - 2 * lam * d * g + d * g) / x[3]
    elif variant == 1:
        w[0] = x[1] * (d * g * lam**2 - 2 * lam * d * g + 1 + 2 * lam * g - 2 * g + g**2)
        w[1] = lam**3 * g - 3 * lam**2 * g - 1 + 2 * g - g**2
        w[2] = x[1] / x[2] * g * (lam * g + lam**2 - 2 * lam - g + 1 + lam * d - d + d * g)
        w[3] = x[1] / x[3] * (lam + lam**2 * g - 2 * lam * g - 1 + g + d + lam * d * g - d * g)
    elif variant == 2:
        w[0] = x[2] * d * (1 + lam * g - g) * (d + lam - 1)
        w[1] = x[2] / x[1] * (1 + lam * g - g + lam * d - d + d * g * lam**2 - 2 * lam * d * g + d * g)
        w[2] = g * (d * lam**3 - 3 * d * lam**2 - 1 + 2 * d - d**2)
        w[3] = x[2] / x[3] * (2 * lam * d * g + d * lam**2 - 2 * lam * d - 2 * d * g + g + d**2 * g)
    else:
        w[0] = x[3] * d * (lam * g + lam**2 - 2 * lam - g + 1 + lam * d - d + d * g)
        w[1] = x[3] / x[1] * (g + lam - 1 + d * lam**2 - 2 * lam * d + d + lam * d * g - d * g)
        w[2] = x[3] / x[2] * (2 * lam * d + d * g * lam**2 - 2 * lam * d * g - 2 * d + 1 + d**2)
        w[3] = d * lam**3 - 3 * d * lam**2 - 1 + 2 * d - d**2
    return w


def _case2b_vector(n, x, d, g, lam, variant):
    w = np.empty(n)
    if variant == 0:
        w[0] = d * lam * (lam**3 * g - (n - 1) * lam**2 * g - (n - 3) * (g**2 - 2 * g + 1))
        w[1] = (lam**3 * g - (n - 2) * lam**2 * g + (n - 2) * d * g * lam**2
                + (lam * d + (n - 4) * (d - 1)) * (g**2 - 2 * g + 1)) / x[1]
        w[2] = g * lam * (g + lam - 1 + d * lam**2 - 2 * lam * d + d + lam * d * g - d * g) / x[2]
        w[3] = lam * (1 + lam * g - g + lam * d - d + d * g * lam**2 - 2 * lam * d * g + d * g) / x[3]
        tail = (g**2 - 2 * g + lam**2 * g + 1 + lam * d - d * g * lam**2 - 2 * lam * d * g
                + lam * g**2 * d + lam**3 * d * g - d + 2 * d * g - d * g**2)
        for i in range(4, n):
            w[i] = tail / x[i]
    elif variant == 1:
        w[0] = x[1] * (lam**3 * d * g - (n - 2) * d * g * lam**2 - (n - 4) * d * (g - 1) ** 2
                       + lam + (n - 2) * lam**2 * g - 2 * lam * g + lam * g**2
                       + (n - 4) * (g - 1) ** 2)
        w[1] = lam * (lam**3 * g - (n - 1) * lam**2 * g - (n - 3) * (g - 1) ** 2)
        w[2] = x[1] / x[2] * g * lam * (lam * g + lam**2 - 2 * lam - g + 1 + d * lam - d + d * g)
        w[3] = x[1] / x[3] * lam * (lam + lam**2 * g - 2 * lam * g - 1 + g + d + lam * d * g - d * g)
        tail = (lam * g**2 - 2 * lam * g + lam**3 * g + lam - g**2 + 2 * g - lam**2 * g - 1
                + d - 2 * d * g + d * g**2 + d * g * lam**2)
        for i in range(4, n):
            w[i] = x[1] / x[i] * tail
    elif variant == 2:
        w[0] = x[2] * d * lam * (1 + lam * g - g) * (d + lam - 1)
        w[1] = x[2] / x[1] * lam * (1 + lam * g - g) * (1 + d * lam - d)
        w[2] = g * lam * (lam**3 * d - (n - 1) * d * lam**2 - (n - 3) * (d - 1) ** 2)
        w[3] = x[2] / x[3] * (d * lam**3 - (n - 2) * d * lam**2 * (1 - g) - 2 * lam * d * g
                              + 2 * (n - 4) * d * (1 - g) + lam * g + d**2 * lam * g
                              + (n - 4) * (-1 + g - d**2 + d**2 * g))
        tail = (1 + lam * g - g) * (d * lam**2 + 1 - 2 * d + d**2)
        for i in range(4, n):
            w[i] = x[2] / x[i] * tail
    elif variant == 3:
        w[0] = x[3] * d * lam * (lam * g + lam**2 - 2 * lam - g + 1 + d * lam - d + d * g)
        w[1] = x[3] / x[1] * lam * (g + lam - 1) * (1 + d * lam - d)
        w[2] = x[3] / x[2] * (lam**3 * d * g - (n - 2) * d * lam**2 * (g - 1) - 2 * d * lam
                              + 2 * (n - 4) * d * (g - 1) + lam + d**2 * lam
                              + (n - 4) * (1 - g + d**2 - d**2 * g))
        w[3] = lam * (d * lam**3 - (n - 1) * d * lam**2 - (n - 3) * (d - 1) ** 2)
        tail = (d * g * lam**2 + lam**3 * d - d * lam**2 - 2 * d * lam - 2 * d * g + 2 * d
                - 1 + g + lam + d**2 * lam - d**2 + d**2 * g)
        for i in range(4, n):
            w[i] = x[3] / x[i] * tail
    else:
        w[0] = x[4] * d * lam * (g**2 - 2 * g + lam**2 * g + 1) * (d + lam - 1)
        w[1] = x[4] / x[1] * lam * (g**2 - 2 * g + lam**2 * g + 1) * (1 + d * lam - d)
        w[2] = x[4] / x[2] * g * lam * (d * g * lam**2 + lam**3 * d - d * lam**2 - 2 * d * lam
                                        - 2 * d * g + 2 * d - 1 + g + lam + d**2 * lam
                                        - d**2 + d**2 * g)
        w[3] = x[4] / x[3] * lam * (d * lam**2 + lam**3 * d * g - d * g * lam**2 - 2 * lam * d * g
                                    - 2 * d + 2 * d * g - g + 1 + lam * g + d**2
                                    + d**2 * lam * g - d**2 * g)
        tail = (g**2 - 2 * g + lam**2 * g + 1) * (d * lam**2 + 1 - 2 * d + d**2)
        for i in range(4, n):
            w[i] = x[4] / x[i] * tail
    return w


def _check_structure(structure: PerturbationStructure) -> None:
    if structure.kind not in DOUBLE_KINDS:
        raise InvalidCaseError(
            f"closed forms exist only for double-perturbed matrices, got {structure.kind.value!r}")
    if structure.base is None or structure.delta is None or structure.gamma is None:
        raise InvalidCaseError("structure must carry base, delta and gamma")
    if structure.delta == 1.0 or structure.gamma == 1.0:
        raise DegenerateParametersError(
            "delta or gamma equals 1; the matrix degrades to the simple-perturbed "
            "or consistent case and the closed forms do not apply")


def raw_variant_vector(structure: PerturbationStructure, variant: int,
                       lam: float | None = None) -> np.ndarray:
    """Evaluate one eigenvector form without normalization.

    ``lam`` defaults to the dominant root from the closed-form polynomial;
    at that value all components are strictly positive.
    """
    _check_structure(structure)
    n = len(structure.base) + 1
    count = variant_count(structure.kind)
    if not 0 <= variant < count:
        raise InvalidCaseError(f"variant must be in 0..{count - 1}, got {variant}")
    if lam is None:
        lam = lambda_max_closed_form(
            CharPolyParams(structure.kind, n, structure.delta, structure.gamma))
    x = np.concatenate(([1.0], np.asarray(structure.base, dtype=float)))
    d, g = structure.delta, structure.gamma
    if structure.kind == PerturbationKind.CASE1:
        return _case1_vector(n, x, d, g, lam, variant)
    if structure.kind == PerturbationKind.CASE2A:
        return _case2a_vector(x, d, g, lam, variant)
    return _case2b_vector(n, x, d, g, lam, variant)


@dataclass(frozen=True)
class ClosedFormResult:
    """Eigenpair from the explicit formulas, with the form actually used."""

    lambda_max: float
    w: np.ndarray
    variant: int


def closed_form_eigenvector(structure: PerturbationStructure,
                            variant: int | None = None) -> ClosedFormResult:
    """Principal eigenvector of a canonical double-perturbed matrix.

    All forms of a case agree up to a positive scalar; when ``variant`` is
    None the best-conditioned one is picked (largest leading component
    before normalization) and recorded in the result.
    """
    _check_structure(structure)
    n = len(structure.base) + 1
    lam = lambda_max_closed_form(
        CharPolyParams(structure.kind, n, structure.delta, structure.gamma))
    if variant is None:
        candidates = [raw_variant_vector(structure, v, lam)
                      for v in range(variant_count(structure.kind))]
        variant = int(np.argmax([abs(v[0]) for v in candidates]))
        raw = candidates[variant]
    else:
        raw = raw_variant_vector(structure, variant, lam)
    return ClosedFormResult(lam, normalize_weights(raw), variant)
