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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParametersError,
    InvalidCaseError,
    NoConvergenceError,
    RootNotBracketedError,
)
from .pcm import CANONICAL_FORMS, DOUBLE_KINDS, PerturbationKind, PerturbationStructure, Pcm

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


@dataclass(frozen=True)
class BatchSpectralResult:
    """Per-member principal eigenpairs of a stack of matrices of one order.

    Row ``k`` of ``w`` and entry ``k`` of the other arrays belong to the
    ``k``-th input matrix.
    """

    lambda_max: np.ndarray
    w: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray


def power_iteration_batch(ms: Sequence[Pcm], tol: float = DEFAULT_POWER_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> BatchSpectralResult:
    """Dominant eigenpairs of a stack of PCMs of one order, all-ones start.

    The eigenvalue estimate is the 1-norm growth ratio ||A w||_1 / ||w||_1,
    which for a positive matrix converges to the dominant eigenvalue.
    A member has converged when |A w - lambda w|_inf / |w|_inf <= tol; it
    keeps the iterate of that step and leaves the live stack.  Each step
    multiplies every live member by its own matrix-vector product, so a
    member's bits do not depend on the others in the stack, and the
    deterministic start vector keeps runs bit-reproducible.  When some
    member has not converged after ``max_iter`` steps,
    :class:`NoConvergenceError` names the residual of the first such member.
    """
    if not tol > 0:    # NaN fails too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not ms:
        raise ValueError("power iteration needs at least one matrix")
    n = ms[0].n
    for m in ms:
        if m.n != n:
            raise ValueError(f"matrices of one stack must share order {n}, got order {m.n}")
    a = np.array([m.entries for m in ms])
    count = len(ms)
    lambda_max, w_out = np.empty(count), np.empty((count, n))
    residual_out, iterations = np.empty(count), np.zeros(count, dtype=int)
    live = np.arange(count)    # input index of each member still iterating
    w = np.full((count, n, 1), 1.0 / n)
    for it in range(1, max_iter + 1):
        y = a @ w
        # the reductions of y.sum() and np.max, called without their wrappers
        lam = np.add.reduce(y, axis=1, keepdims=True)    # w sums to 1
        residual = np.maximum.reduce(np.abs(y - lam * w), axis=1) / np.maximum.reduce(w, axis=1)
        done = (residual <= tol)[:, 0]
        if np.count_nonzero(done):
            idx = live[done]
            lambda_max[idx] = lam[done, 0, 0]
            w_out[idx] = w[done, :, 0]
            residual_out[idx] = residual[done, 0]
            iterations[idx] = it
            keep = ~done
            if not np.count_nonzero(keep):
                return BatchSpectralResult(lambda_max, w_out, residual_out, iterations)
            live, a, y, lam, residual = live[keep], a[keep], y[keep], lam[keep], residual[keep]
        w = y / lam
    raise NoConvergenceError(max_iter, float(residual[0, 0]))


def power_iteration(m: Pcm, tol: float = DEFAULT_POWER_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Dominant eigenpair of one PCM: :func:`power_iteration_batch` on a stack of one."""
    r = power_iteration_batch([m], tol, max_iter)
    return SpectralResult(float(r.lambda_max[0]), r.w[0], float(r.residual[0]),
                          int(r.iterations[0]))


def _bracket_coeffs(structure: PerturbationStructure) -> tuple[float, ...]:
    """Coefficients (highest degree first) of the non-trivial polynomial factor.

    The full characteristic polynomial is sign * lambda^k * bracket(lambda);
    the bracket carries every nonzero root, in particular the unique real
    root above n.  It depends on kind, n, delta and gamma alone.
    """
    kind = structure.kind
    if kind not in DOUBLE_KINDS:
        raise InvalidCaseError(f"no closed-form polynomial for kind {kind.value!r}")
    n, d, g = float(structure.n), structure.delta, structure.gamma
    if kind == PerturbationKind.CASE1:
        b1 = (g / d + d / g) + (n - 3) * (g + d + 1.0 / g + 1.0 / d) - 4.0 * n + 10.0
        return 1.0, -n, 0.0, -b1
    e = g + d + 1.0 / g + 1.0 / d - 4.0
    c = (g - 1.0) ** 2 * (d - 1.0) ** 2 / (g * d)
    if kind == PerturbationKind.CASE2A:
        return 1.0, -4.0, 0.0, -2.0 * e, -c
    return 1.0, -n, 0.0, -(n - 2) * e, -c, -(n - 4) * c


def _horner(coeffs: tuple[float, ...], x: float) -> tuple[float, float]:
    """p(x) and p'(x) by Horner's scheme, coefficients highest degree first."""
    p = dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def eval_charpoly(structure: PerturbationStructure, lam: float) -> float:
    """Evaluate the closed-form characteristic polynomial at ``lam``.

    Matches det(A - lam I) of the corresponding canonical matrix for every
    base vector (the similarity scaling by the base drops out), so the
    structure's base is not read.
    """
    coeffs = _bracket_coeffs(structure)
    sign = -1.0 if structure.n % 2 else 1.0
    return sign * lam ** (structure.n - len(coeffs) + 1) * _horner(coeffs, lam)[0]


def charpoly_oracle(m: Pcm, lam: float) -> float:
    """det(A - lam I), computed directly by LU factorization.

    Deliberately ignorant of the closed forms; serves as the independent
    reference they are checked against.
    """
    a = m.entries
    return float(np.linalg.det(a - lam * np.eye(m.n)))


def lambda_max_closed_form(structure: PerturbationStructure) -> float:
    """Unique real root above n of the polynomial bracket, by Newton from above.

    With delta = gamma = 1 the matrix is consistent and exactly n is
    returned.  Otherwise p(n) < 0 < p(b) must hold at the Cauchy root bound
    b = 1 + max |coefficient|, and Newton starts at b.  The roots are
    eigenvalues of a positive matrix, so all but the Perron root lambda_max
    are strictly smaller in modulus, and by Gauss-Lucas p' and p'' have no
    real root at or above lambda_max: p is increasing and convex there, and
    the iterates descend monotonically onto it.  The loop stops at the first
    iterate not strictly below the last or below n, which a strictly
    decreasing sequence of floats must reach.  The root depends on kind, n,
    delta and gamma alone; the structure's base is not read and may be None.
    """
    coeffs = _bracket_coeffs(structure)
    n = float(structure.n)
    f_n = _horner(coeffs, n)[0]
    if f_n == 0.0:
        return n
    root = 1.0 + max(abs(c) for c in coeffs)
    f_bound = _horner(coeffs, root)[0]
    if not f_n < 0.0 < f_bound:    # NaN fails too
        raise RootNotBracketedError(
            f"bracket failed: p({n}) = {f_n:.3e}, p({root}) = {f_bound:.3e}")
    while True:
        f, df = _horner(coeffs, root)
        below = root - f / df
        if not n <= below < root:
            return root
        root = below


def variant_count(kind: PerturbationKind) -> int:
    """Number of algebraically distinct eigenvector forms for a case.

    One form per alternative the perturbed cells touch, plus one shared by
    the untouched trailing alternatives when every order of the kind has some.
    """
    if kind not in DOUBLE_KINDS:
        raise InvalidCaseError(f"no closed-form eigenvector for kind {kind.value!r}")
    form = CANONICAL_FORMS[kind]
    return form.head + (form.min_order > form.head)


# Each form reads x = (1, base) with one column per base of a stack.  lam, d
# and g stay Python floats: numpy's array ** k may round unlike float ** k.
def _case1_vector(n, x, d, g, lam, variant):
    w = np.empty((n,) + x.shape[1:])
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
    w = np.empty((4,) + x.shape[1:])
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
    w = np.empty((n,) + x.shape[1:])
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


def _checked_base(structure: PerturbationStructure) -> np.ndarray:
    """x = (1, base) of a structure the closed forms apply to, as a stack of one column."""
    if structure.kind not in DOUBLE_KINDS:
        raise InvalidCaseError(
            f"closed forms exist only for double-perturbed matrices, got {structure.kind.value!r}")
    if structure.base is None:
        raise InvalidCaseError("structure must carry a base vector")
    if structure.delta == 1.0 or structure.gamma == 1.0:
        raise DegenerateParametersError(
            "delta or gamma equals 1; the matrix degrades to the simple-perturbed "
            "or consistent case and the closed forms do not apply")
    return np.concatenate(([1.0], np.asarray(structure.base, dtype=float)))[:, None]


def _variant_vector(structure: PerturbationStructure, x: np.ndarray, variant: int,
                    lam: float) -> np.ndarray:
    n, d, g = structure.n, structure.delta, structure.gamma
    if structure.kind == PerturbationKind.CASE1:
        return _case1_vector(n, x, d, g, lam, variant)
    if structure.kind == PerturbationKind.CASE2A:
        return _case2a_vector(x, d, g, lam, variant)
    return _case2b_vector(n, x, d, g, lam, variant)


def raw_variant_vector(structure: PerturbationStructure, variant: int,
                       lam: float) -> np.ndarray:
    """Evaluate one eigenvector form at ``lam``, without normalization.

    At the dominant root of the closed-form polynomial all components are
    strictly positive.
    """
    x = _checked_base(structure)
    count = variant_count(structure.kind)
    if not 0 <= variant < count:
        raise InvalidCaseError(f"variant must be in 0..{count - 1}, got {variant}")
    return _variant_vector(structure, x, variant, lam)[:, 0]


def variant_vectors(cell: PerturbationStructure, x: np.ndarray, lam: float) -> np.ndarray:
    """Every :func:`raw_variant_vector` form at ``lam``, shape (variants, n, B).

    Column ``k`` of ``x`` is (1, base) of the ``k``-th of B bases.  The cell's
    base is not read, and the caller has checked that the closed forms apply.
    """
    return np.array([_variant_vector(cell, x, v, lam) for v in range(variant_count(cell.kind))])


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
    x = _checked_base(structure)
    lam = lambda_max_closed_form(structure)
    if variant is None:
        candidates = variant_vectors(structure, x, lam)[:, :, 0]
        variant = int(np.argmax(np.abs(candidates[:, 0])))
        raw = candidates[variant]
    else:
        raw = raw_variant_vector(structure, variant, lam)
    return ClosedFormResult(lam, normalize_weights(raw), variant)
