"""Principal eigenpair of a PCM: iterative and closed-form computation.

Two independent routes are provided on purpose.  ``power_iteration`` works
on any valid PCM and only uses matrix-vector products.  For the canonical
double-perturbed forms the characteristic polynomial collapses to a low
degree bracket whose unique root above n is the principal eigenvalue, and
the eigenvector itself has explicit algebraic forms; those are evaluated
directly.  A plain determinant ties the two routes together in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCaseError,
    NoConvergenceError,
    PotentialRangeError,
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


# Steps between convergence tests; the result is that of a test after every step.
_BLOCK = 8


def _max_over_order(v: np.ndarray) -> np.ndarray:
    """Max over axis 2 of a (steps, B, n, 1) array, over n contiguous slabs: exact in any order."""
    return np.maximum.reduce(v.transpose(2, 0, 1, 3).copy(), axis=0)


def power_iteration_batch(a: np.ndarray, tol: float = DEFAULT_POWER_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> BatchSpectralResult:
    """Dominant eigenpairs of a (B, n, n) array of validated PCM entries, all-ones start.

    The eigenvalue estimate is the 1-norm growth ratio ||A w||_1 / ||w||_1,
    which for a positive matrix converges to the dominant eigenvalue.  A
    member keeps the iterate of the first step where |A w - lambda w|_inf /
    |w|_inf <= tol.  A step multiplies each live member by its own matrix
    and normalizes; residuals are taken per block of ``_BLOCK`` steps, after
    which converged members leave the stack, so a member's bits depend on no
    other member.  When some member has not converged after ``max_iter``
    steps, :class:`NoConvergenceError` names the residual of the first one.
    """
    if not tol > 0:    # NaN fails too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    count, n = len(a), a.shape[-1]
    if not count:
        raise ValueError("power iteration needs at least one matrix")
    lambda_max, w_out = np.empty(count), np.empty((count, n))
    residual_out, iterations = np.empty(count), np.zeros(count, dtype=int)
    live = np.arange(count)    # input index of each member still iterating
    w = np.full((count, n, 1), 1.0 / n)
    for taken in range(0, max_iter, _BLOCK):
        ws, ys, lams = [w], [], []    # step s multiplies ws[s] into ys[s], estimate lams[s]
        for _ in range(min(_BLOCK, max_iter - taken)):
            ys.append(a @ w)
            lams.append(np.add.reduce(ys[-1], axis=1, keepdims=True))    # w sums to 1
            w = ys[-1] / lams[-1]
            ws.append(w)
        ws, lams = np.array(ws[:-1]), np.array(lams)
        residual = (_max_over_order(np.abs(np.array(ys) - lams * ws)) / _max_over_order(ws))[..., 0]
        done = residual <= tol
        hit = done.any(axis=0)
        if hit.any():
            k = np.flatnonzero(hit)
            s = done.argmax(axis=0)[k]    # each converged member's first converged step
            idx = live[k]
            lambda_max[idx], w_out[idx] = lams[s, k, 0, 0], ws[s, k, :, 0]
            residual_out[idx], iterations[idx] = residual[s, k], taken + s + 1
            if len(k) == len(live):
                return BatchSpectralResult(lambda_max, w_out, residual_out, iterations)
            live, a, w = live[~hit], a[~hit], w[~hit]
    raise NoConvergenceError(max_iter, float(residual[-1, np.argmin(hit)]))


def power_iteration(m: Pcm, tol: float = DEFAULT_POWER_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Dominant eigenpair of one PCM: :func:`power_iteration_batch` on a stack of one."""
    r = power_iteration_batch(m.entries[None], tol, max_iter)
    return SpectralResult(float(r.lambda_max[0]), r.w[0], float(r.residual[0]),
                          int(r.iterations[0]))


def _bracket_coeffs(kind: PerturbationKind, n: int, d: float, g: float) -> tuple[float, ...]:
    """Coefficients (highest degree first) of the non-trivial polynomial factor.

    The full characteristic polynomial is sign * lambda^k * bracket(lambda);
    the bracket carries every nonzero root, in particular the unique real
    root above n.  It depends on kind, n, delta and gamma alone, and is
    computed on Python floats, whose ``**`` may round unlike numpy's.
    """
    if kind not in DOUBLE_KINDS:
        raise InvalidCaseError(f"no closed-form polynomial for kind {kind.value!r}")
    n = float(n)
    if kind == PerturbationKind.CASE1:
        b1 = (g / d + d / g) + (n - 3) * (g + d + 1.0 / g + 1.0 / d) - 4.0 * n + 10.0
        return 1.0, -n, 0.0, -b1
    e = g + d + 1.0 / g + 1.0 / d - 4.0
    try:
        c = (g - 1.0) ** 2 * (d - 1.0) ** 2 / (g * d)
    except OverflowError:    # float ** raises where numpy gives inf, which fails the bracket
        c = np.inf
    if kind == PerturbationKind.CASE2A:
        return 1.0, -4.0, 0.0, -2.0 * e, -c
    return 1.0, -n, 0.0, -(n - 2) * e, -c, -(n - 4) * c


def _horner(columns, x):
    """p(x) and p'(x) by Horner's scheme, one coefficient per degree, highest first.

    The coefficients and x are Python floats, or arrays whose entry ``k``
    belongs to column ``k`` of ``x``.  Leading zeros keep p = p' = 0 exactly,
    so a zero-padded polynomial gets the unpadded one's bits.
    """
    p = dp = 0.0
    for c in columns:
        dp = dp * x + p
        p = p * x + c
    return p, dp


# Lists shorter than this are solved cell by cell on Python floats, longer ones stacked:
# on random cells of every kind the two loops cost the same near 96 cells.
_STACK_MIN_CELLS = 96


def _scalar_root(coeffs: tuple[float, ...], n: float) -> float:
    """The stacked loop of :func:`lambda_max_closed_forms` on one cell's Python floats."""
    f_n = _horner(coeffs, n)[0]
    if f_n == 0.0:
        return n
    x = 1.0 + max(map(abs, coeffs))
    f_bound = _horner(coeffs, x)[0]
    if not f_n < 0.0 < f_bound < math.inf:    # NaN fails too
        raise RootNotBracketedError(f"bracket failed: p({n}) = {f_n:.3e}, p({x}) = {f_bound:.3e}")
    while True:
        f, df = _horner(coeffs, x)
        below = x - f / df
        if not n <= below < x:
            return x
        x = below


def lambda_max_closed_forms(cells: list[tuple[PerturbationKind, int, float, float]]) -> np.ndarray:
    """Unique real root above n of the bracket of each (kind, n, delta, gamma) cell, by Newton.

    With delta = gamma = 1 the matrix is consistent and exactly n is
    returned.  Otherwise p(n) < 0 < p(b) < inf must hold at the Cauchy root
    bound b = 1 + max |coefficient|, or :class:`RootNotBracketedError` names
    the first cell where it fails (p(b) overflows once delta or gamma is far
    from 1), and Newton starts at b.  The roots are
    eigenvalues of a positive matrix, so all but the Perron root are strictly
    smaller in modulus, and by Gauss-Lucas p is increasing and convex above
    it: the iterates descend monotonically onto it.  A cell stops at the
    first iterate not strictly below its last or below n, and gets the bits
    of a Newton loop on its own Python floats.

    A list of fewer than ``_STACK_MIN_CELLS`` cells runs that loop cell by
    cell on Python floats (:func:`_scalar_root`), about 13 us a cell; a
    longer one runs it on numpy arrays, every live cell in one step, which
    costs about 0.3 ms for one cell but about 5 us for each further cell
    (x86-64, Python 3.11, numpy 2.4).  :func:`lambda_max_closed_form`, and
    through it ``analyze`` and :func:`closed_form_eigenvector`, solves lists
    of one; the lemma sweep solves its cells as one list, 640 on the default
    grid and one from ``check_lemma``.  Both loops do the same float
    operations in the same order, so they give the same bits and the same error.
    """
    coeffs = [_bracket_coeffs(*cell) for cell in cells]
    if len(cells) < _STACK_MIN_CELLS:
        return np.array([_scalar_root(c, float(cell[1])) for c, cell in zip(coeffs, cells)])
    width = max(map(len, coeffs), default=0)
    columns = list(np.array([(0.0,) * (width - len(c)) + c for c in coeffs]).T.copy())
    n = np.array([float(cell[1]) for cell in cells])
    x = np.array([1.0 + max(map(abs, c)) for c in coeffs])
    with np.errstate(over="ignore", invalid="ignore"):
        f_n, f_bound = _horner(columns, np.array([n, x]))[0]
    # NaN fails too
    unbracketed = ~((f_n < 0.0) & (0.0 < f_bound) & (f_bound < np.inf)) & (f_n != 0.0)
    if unbracketed.any():
        k = int(np.argmax(unbracketed))
        raise RootNotBracketedError(f"bracket failed: p({float(n[k])}) = {f_n[k]:.3e}, "
                                    f"p({float(x[k])}) = {f_bound[k]:.3e}")
    root, live = n.copy(), np.flatnonzero(f_n != 0.0)    # the root is n where p(n) = 0
    x, n, columns = x[live], n[live], [c[live] for c in columns]
    while len(live):
        f, df = _horner(columns, x)
        below = x - f / df
        step = (n <= below) & (below < x)
        if not step.all():
            root[live[~step]] = x[~step]
            live, n, below, columns = live[step], n[step], below[step], [c[step] for c in columns]
        x = below
    return root


def lambda_max_closed_form(structure: PerturbationStructure) -> float:
    """:func:`lambda_max_closed_forms` on the one cell of ``structure``."""
    return float(lambda_max_closed_forms(
        [(structure.kind, structure.n, structure.delta, structure.gamma)])[0])


def variant_count(kind: PerturbationKind) -> int:
    """Number of algebraically distinct eigenvector forms for a case.

    One form per alternative the perturbed cells touch, plus one shared by
    the untouched trailing alternatives when every order of the kind has some.
    """
    if kind not in DOUBLE_KINDS:
        raise InvalidCaseError(f"no closed-form eigenvector for kind {kind.value!r}")
    form = CANONICAL_FORMS[kind]
    return form.head + (form.min_order > form.head)


def form_terms(delta: float, gamma: float, lam: float) -> tuple[float, ...]:
    """delta, gamma and lam, then the powers of them the eigenvector forms read.

    The powers are d**2, g**2, (d - 1)**2, (g - 1)**2, lam**2 and lam**3,
    each taken once, on Python floats: numpy's array ``**`` may round unlike
    float ``**``, while ``+ - * /`` round alike on both.  A stack of samples
    passes these terms as a (9, B) array whose column ``k`` belongs to
    column ``k`` of x.
    """
    return (delta, gamma, lam, delta**2, gamma**2, (delta - 1) ** 2, (gamma - 1) ** 2,
            lam**2, lam**3)


# Each evaluator fills row v of w with form v, from x = (1, base) or a stack of them, t and
# the order n.
def _case1_vectors(w, x, t, n):
    d, g, lam, d2, g2, dm1_2, gm1_2, lam2, lam3 = t
    w[0, 0] = d * g * lam * (lam - n + 1)
    w[0, 1] = (g * lam - (n - 2) * g + d + (n - 3) * d * g) / x[1]
    w[0, 2] = (d * lam - (n - 2) * d + g + (n - 3) * d * g) / x[2]
    w[0, 3:] = (g + d + d * g * lam - 2 * d * g) / x[3:]
    w[1, 0] = x[1] * g * lam * (d * lam - (n - 2) * d + g + n - 3)
    w[1, 1] = g * lam3 - (n - 1) * g * lam2 - (n - 3) * (g2 - 2 * g + 1)
    w[1, 2] = x[1] / x[2] * (g * lam2 - g * lam + d * lam + (n - 3) * (d * g - d - g + 1))
    w[1, 3:] = x[1] / x[3:] * (g * lam2 - g * lam - g + d + d * g * lam - d * g + g2)
    w[2, 0] = x[2] * d * lam * (d + g * lam - (n - 2) * g + n - 3)
    w[2, 1] = x[2] / x[1] * (d * lam2 - d * lam + g * lam + (n - 3) * (d * g - d - g + 1))
    w[2, 2] = d * lam3 - (n - 1) * d * lam2 - (n - 3) * (d2 - 2 * d + 1)
    w[2, 3:] = x[2] / x[3:] * (d * lam2 - d * lam + g - d + d2 + d * g * lam - d * g)
    w[3, 0] = x[3] * d * g * lam * (d + g + lam - 2)
    w[3, 1] = x[3] / x[1] * (d * g * lam2 - d * g * lam + g2 + g * lam - g - d * g + d)
    w[3, 2] = x[3] / x[2] * (d * g * lam2 - d * g * lam - d * g + g + d2 + d * lam - d)
    w[3, 3:] = x[3] / x[3:] * (d * g * lam2 - 4 * d * g + g + d + d2 * g + g2 * d)


def _case2a_vectors(w, x, t, n):
    d, g, lam, d2, g2, dm1_2, gm1_2, lam2, lam3 = t
    w[0, 0] = d * (lam3 * g - 3 * lam2 * g - 1 + 2 * g - g2)
    w[0, 1] = (lam2 * g - 2 * lam * g + d + 2 * lam * d * g - 2 * d * g + d * g2) / x[1]
    w[0, 2] = g * (g + lam - 1 + d * lam2 - 2 * lam * d + d + lam * d * g - d * g) / x[2]
    w[0, 3] = (1 + lam * g - g + lam * d - d + d * g * lam2 - 2 * lam * d * g + d * g) / x[3]
    w[1, 0] = x[1] * (d * g * lam2 - 2 * lam * d * g + 1 + 2 * lam * g - 2 * g + g2)
    w[1, 1] = lam3 * g - 3 * lam2 * g - 1 + 2 * g - g2
    w[1, 2] = x[1] / x[2] * g * (lam * g + lam2 - 2 * lam - g + 1 + lam * d - d + d * g)
    w[1, 3] = x[1] / x[3] * (lam + lam2 * g - 2 * lam * g - 1 + g + d + lam * d * g - d * g)
    w[2, 0] = x[2] * d * (1 + lam * g - g) * (d + lam - 1)
    w[2, 1] = x[2] / x[1] * (1 + lam * g - g + lam * d - d + d * g * lam2 - 2 * lam * d * g + d * g)
    w[2, 2] = g * (d * lam3 - 3 * d * lam2 - 1 + 2 * d - d2)
    w[2, 3] = x[2] / x[3] * (2 * lam * d * g + d * lam2 - 2 * lam * d - 2 * d * g + g + d2 * g)
    w[3, 0] = x[3] * d * (lam * g + lam2 - 2 * lam - g + 1 + lam * d - d + d * g)
    w[3, 1] = x[3] / x[1] * (g + lam - 1 + d * lam2 - 2 * lam * d + d + lam * d * g - d * g)
    w[3, 2] = x[3] / x[2] * (2 * lam * d + d * g * lam2 - 2 * lam * d * g - 2 * d + 1 + d2)
    w[3, 3] = d * lam3 - 3 * d * lam2 - 1 + 2 * d - d2


def _case2b_vectors(w, x, t, n):
    d, g, lam, d2, g2, dm1_2, gm1_2, lam2, lam3 = t
    w[0, 0] = d * lam * (lam3 * g - (n - 1) * lam2 * g - (n - 3) * (g2 - 2 * g + 1))
    w[0, 1] = (lam3 * g - (n - 2) * lam2 * g + (n - 2) * d * g * lam2
               + (lam * d + (n - 4) * (d - 1)) * (g2 - 2 * g + 1)) / x[1]
    w[0, 2] = g * lam * (g + lam - 1 + d * lam2 - 2 * lam * d + d + lam * d * g - d * g) / x[2]
    w[0, 3] = lam * (1 + lam * g - g + lam * d - d + d * g * lam2 - 2 * lam * d * g + d * g) / x[3]
    w[0, 4:] = (g2 - 2 * g + lam2 * g + 1 + lam * d - d * g * lam2 - 2 * lam * d * g
                + lam * g2 * d + lam3 * d * g - d + 2 * d * g - d * g2) / x[4:]
    w[1, 0] = x[1] * (lam3 * d * g - (n - 2) * d * g * lam2 - (n - 4) * d * gm1_2
                      + lam + (n - 2) * lam2 * g - 2 * lam * g + lam * g2
                      + (n - 4) * gm1_2)
    w[1, 1] = lam * (lam3 * g - (n - 1) * lam2 * g - (n - 3) * gm1_2)
    w[1, 2] = x[1] / x[2] * g * lam * (lam * g + lam2 - 2 * lam - g + 1 + d * lam - d + d * g)
    w[1, 3] = x[1] / x[3] * lam * (lam + lam2 * g - 2 * lam * g - 1 + g + d + lam * d * g - d * g)
    w[1, 4:] = x[1] / x[4:] * (lam * g2 - 2 * lam * g + lam3 * g + lam - g2 + 2 * g - lam2 * g - 1
                               + d - 2 * d * g + d * g2 + d * g * lam2)
    w[2, 0] = x[2] * d * lam * (1 + lam * g - g) * (d + lam - 1)
    w[2, 1] = x[2] / x[1] * lam * (1 + lam * g - g) * (1 + d * lam - d)
    w[2, 2] = g * lam * (lam3 * d - (n - 1) * d * lam2 - (n - 3) * dm1_2)
    w[2, 3] = x[2] / x[3] * (d * lam3 - (n - 2) * d * lam2 * (1 - g) - 2 * lam * d * g
                             + 2 * (n - 4) * d * (1 - g) + lam * g + d2 * lam * g
                             + (n - 4) * (-1 + g - d2 + d2 * g))
    w[2, 4:] = x[2] / x[4:] * ((1 + lam * g - g) * (d * lam2 + 1 - 2 * d + d2))
    w[3, 0] = x[3] * d * lam * (lam * g + lam2 - 2 * lam - g + 1 + d * lam - d + d * g)
    w[3, 1] = x[3] / x[1] * lam * (g + lam - 1) * (1 + d * lam - d)
    w[3, 2] = x[3] / x[2] * (lam3 * d * g - (n - 2) * d * lam2 * (g - 1) - 2 * d * lam
                             + 2 * (n - 4) * d * (g - 1) + lam + d2 * lam
                             + (n - 4) * (1 - g + d2 - d2 * g))
    w[3, 3] = lam * (d * lam3 - (n - 1) * d * lam2 - (n - 3) * dm1_2)
    w[3, 4:] = x[3] / x[4:] * (d * g * lam2 + lam3 * d - d * lam2 - 2 * d * lam - 2 * d * g + 2 * d
                               - 1 + g + lam + d2 * lam - d2 + d2 * g)
    w[4, 0] = x[4] * d * lam * (g2 - 2 * g + lam2 * g + 1) * (d + lam - 1)
    w[4, 1] = x[4] / x[1] * lam * (g2 - 2 * g + lam2 * g + 1) * (1 + d * lam - d)
    w[4, 2] = x[4] / x[2] * g * lam * (d * g * lam2 + lam3 * d - d * lam2 - 2 * d * lam
                                       - 2 * d * g + 2 * d - 1 + g + lam + d2 * lam
                                       - d2 + d2 * g)
    w[4, 3] = x[4] / x[3] * lam * (d * lam2 + lam3 * d * g - d * g * lam2 - 2 * lam * d * g
                                   - 2 * d + 2 * d * g - g + 1 + lam * g + d2
                                   + d2 * lam * g - d2 * g)
    w[4, 4:] = x[4] / x[4:] * ((g2 - 2 * g + lam2 * g + 1) * (d * lam2 + 1 - 2 * d + d2))


_FORMS = {PerturbationKind.CASE1: _case1_vectors, PerturbationKind.CASE2A: _case2a_vectors,
          PerturbationKind.CASE2B: _case2b_vectors}


def variant_vectors(kind: PerturbationKind, x: np.ndarray, terms, n) -> np.ndarray:
    """Every eigenvector form of ``kind``, unnormalized, shape (variants,) + x.shape.

    ``x`` is (1, base) with the :func:`form_terms` tuple and the order ``n``
    as an int, or an (m, B) array with column ``k`` (1, base) of the
    ``k``-th sample, a (9, B) array of terms whose column ``k`` holds that
    sample's :func:`form_terms`, and ``n`` an int or a (B,) array of orders.
    The forms read n only from ``n``, never from the length of ``x``: a
    sample of order n < m may repeat its last ratio in rows n .. m - 1,
    which repeats its last component there.  One evaluator call fills every
    row, and each column gets the bits of the one-dimensional call on its
    own parameters, whose int n converts to float exactly.  The caller has
    checked that the closed forms apply.
    """
    w = np.empty((variant_count(kind),) + x.shape)
    _FORMS[kind](w, x, terms, n)
    return w


def raw_variant_vector(structure: PerturbationStructure, variant: int,
                       lam: float) -> np.ndarray:
    """Row ``variant`` of :func:`variant_vectors` on ``structure``, evaluated at ``lam``.

    At the dominant root of the closed-form polynomial all components are
    strictly positive.  :func:`variant_count` rejects a kind that is not
    double perturbed.
    """
    count = variant_count(structure.kind)
    if not 0 <= variant < count:
        raise InvalidCaseError(f"variant must be in 0..{count - 1}, got {variant}")
    terms = form_terms(structure.delta, structure.gamma, lam)
    return variant_vectors(structure.kind, np.array([1.0, *structure.base]), terms,
                           structure.n)[variant]


@dataclass(frozen=True)
class ClosedFormResult:
    """Eigenpair from the explicit formulas, with the form actually used."""

    lambda_max: float
    w: np.ndarray
    variant: int


def closed_form_eigenvector(structure: PerturbationStructure) -> ClosedFormResult:
    """Principal eigenvector of a canonical double-perturbed matrix.

    All forms of a case agree up to a positive scalar; among those positive
    and finite in floats, the best-conditioned one is picked (largest leading
    component before normalization) and recorded in the result.  With none,
    :class:`PotentialRangeError` names the kind.  The root,
    :func:`lambda_max_closed_form`, rejects a kind that is not double
    perturbed.  A factor of 1 needs no special case: the forms are exact
    there too, and at delta = gamma = 1 the root is n.
    """
    kind, lam = structure.kind, lambda_max_closed_form(structure)
    x = np.array([1.0, *structure.base])
    with np.errstate(over="ignore", invalid="ignore"):
        candidates = variant_vectors(kind, x, form_terms(structure.delta, structure.gamma, lam),
                                     structure.n)
    usable = np.all((0.0 < candidates) & (candidates < np.inf), axis=1)
    if not usable.any():
        raise PotentialRangeError(f"no {kind.value} closed-form eigenvector fits in floats")
    variant = int(np.argmax(np.where(usable, candidates[:, 0], -1.0)))
    w = candidates[variant]
    w /= w.sum()
    return ClosedFormResult(lam, w, variant)
