"""Pairwise comparison matrices, canonical perturbed forms and structure classification.

A pairwise comparison matrix (PCM) is a positive square matrix with
a_ij * a_ji = 1.  A PCM is consistent when a_ik * a_kj = a_ij for every
triple; a consistent PCM is generated by a base vector x through
a_ij = x_{j-1} / x_{i-1} (with x_0 = 1, indices 1-based as in the ratio
scale convention).  This module builds those canonical forms, applies one-
or two-entry multiplicative perturbations to them, and solves the inverse
problem: given an arbitrary PCM, find the minimal set of entry edits (0, 1
or 2 upper-triangle cells plus reciprocals) that restores consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidCaseError,
    NonPositiveEntryError,
    NotSquareError,
    PotentialRangeError,
    ReciprocityViolationError,
)

RECIPROCITY_TOL = 1e-12
DEFAULT_CONSISTENCY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


def validate_entries(a: np.ndarray) -> None:
    """Check a square matrix, or a (B, n, n) stack of them, as :class:`Pcm` does.

    Every entry must be a positive finite real, and every product a_ij * a_ji
    must lie within ``RECIPROCITY_TOL`` of 1.  Each check raises for its first
    failing cell in row-major order, member by member, so a stack with one
    bad member fails as that member alone does.
    """
    n = a.shape[-1]
    bad = ~(np.isfinite(a) & (a > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise NonPositiveEntryError(*divmod(k % (n * n), n), float(a.flat[k]))
    with np.errstate(over="ignore"):    # an overflowed product is inf, which fails
        prod = a * a.swapaxes(-1, -2)    # prod[..., i, j] = a_ij * a_ji, diagonal included
    bad = np.triu(~np.isfinite(prod)
                  | (np.abs(prod - 1.0) > RECIPROCITY_TOL * np.maximum(1.0, np.abs(prod))))
    if bad.any():
        k = int(np.argmax(bad))
        raise ReciprocityViolationError(*divmod(k % (n * n), n), float(prod.flat[k]))


class Pcm:
    """Validated positive reciprocal matrix.

    The entry array is stored read-only; validation rejects rather than
    repairs, so a reciprocity violation in the input surfaces as an error
    instead of being silently overwritten.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise NotSquareError(f"matrix order must be at least 2, got {n}")
        validate_entries(a)
        a.setflags(write=False)
        self._a = a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the matrix."""
        return self._a

    def __getitem__(self, idx):
        return self._a[idx]

    def __eq__(self, other):
        return isinstance(other, Pcm) and np.array_equal(self._a, other._a)

    def __repr__(self):
        return f"Pcm(n={self.n})"


class PerturbationKind(str, Enum):
    """How far a PCM is from consistency, measured in entry edits.

    ``CASE1``: the two perturbed cells share a row (canonically (1,2) and
    (1,3), 1-based).  ``CASE2A``/``CASE2B``: the perturbed cells lie in
    disjoint rows (canonically (1,2) and (3,4)); the 4x4 situation is kept
    separate from order >= 5 because its spectral structure differs.
    """

    CONSISTENT = "consistent"
    SIMPLE = "simple"
    CASE1 = "case1"
    CASE2A = "case2a"
    CASE2B = "case2b"
    OTHER = "other"


@dataclass(frozen=True)
class CanonicalForm:
    """Perturbed upper-triangle cells (0-based) of a kind and the orders it exists at."""

    cells: tuple[tuple[int, int], ...]
    min_order: int
    max_order: int | None = None    # None: every order from min_order up

    @property
    def head(self) -> int:
        """Number of leading alternatives the perturbed cells touch."""
        return len({v for cell in self.cells for v in cell})

    def allows(self, n: int) -> bool:
        return self.min_order <= n and (self.max_order is None or n <= self.max_order)


_DISJOINT_CELLS = ((0, 1), (2, 3))
CANONICAL_FORMS = {
    PerturbationKind.CONSISTENT: CanonicalForm((), 2),
    PerturbationKind.SIMPLE: CanonicalForm(((0, 1),), 3),
    PerturbationKind.CASE1: CanonicalForm(((0, 1), (0, 2)), 4),
    PerturbationKind.CASE2A: CanonicalForm(_DISJOINT_CELLS, 4, 4),
    PerturbationKind.CASE2B: CanonicalForm(_DISJOINT_CELLS, 5),
}
DOUBLE_KINDS = tuple(k for k, form in CANONICAL_FORMS.items() if len(form.cells) == 2)


def check_order(kind: PerturbationKind, n: int, error: type = InvalidCaseError) -> None:
    """Raise ``error`` unless the canonical form of ``kind`` exists at order ``n``."""
    form = CANONICAL_FORMS[kind]
    if not form.allows(n):
        wanted = (f">= {form.min_order}" if form.max_order is None else
                  f"= {form.min_order}" if form.max_order == form.min_order else
                  f"in {form.min_order}..{form.max_order}")
        raise error(f"kind {kind.value!r} requires n {wanted}, got {n}")


def canonical_kind(cells: tuple[tuple[int, int], ...], n: int) -> PerturbationKind:
    """The kind whose canonical form perturbs exactly ``cells`` and exists at order ``n``."""
    for kind, form in CANONICAL_FORMS.items():
        if form.cells == cells and form.allows(n):
            return kind
    raise InvalidCaseError(f"no canonical form perturbs the cells {cells} at order {n}")


@dataclass(frozen=True)
class PerturbationStructure:
    """Consistent base plus multiplicative perturbation parameters.

    ``base`` holds x_1..x_{n-1} in canonical labeling (gauge x_0 = 1, the
    first alternative is the numeraire).  ``positions`` are the perturbed
    upper-triangle cells in the *original* matrix indices (0-based);
    ``permutation`` maps canonical index -> original index so that
    relabeling by it puts the perturbations into the canonical cells.
    ``alternatives`` lists any other minimal position sets a classified
    matrix admits (the primary one is the lexicographically smallest).

    Building one validates it, and nothing else checks these fields again:
    a base holds n - 1 positive finite ratios, a kind with a canonical form
    exists at order n and has a factor for each of its cells, and every
    factor given is a positive finite real.  The base may be None where a
    consumer needs only (kind, n, delta, gamma), as the closed-form root does.
    """

    kind: PerturbationKind
    n: int
    base: tuple[float, ...] | None = None
    delta: float | None = None
    gamma: float | None = None
    positions: tuple[tuple[int, int], ...] = ()
    permutation: tuple[int, ...] | None = None
    alternatives: tuple[tuple[tuple[int, int], ...], ...] = ()

    def __post_init__(self):
        if self.base is not None:
            if len(self.base) != self.n - 1:
                raise InvalidCaseError(f"order n = {self.n} needs {self.n - 1} base ratios, "
                                       f"got {len(self.base)}")
            if not all(0.0 < x < np.inf for x in self.base):    # NaN fails too
                raise InvalidCaseError("base ratios must be positive finite reals")
        form = CANONICAL_FORMS.get(self.kind)
        if form is not None:
            check_order(self.kind, self.n)
            if None in (self.delta, self.gamma)[:len(form.cells)]:
                raise InvalidCaseError(
                    f"kind {self.kind.value!r} needs one factor per cell (delta, gamma)")
        for name, f in (("delta", self.delta), ("gamma", self.gamma)):
            if f is not None and not 0.0 < f < np.inf:    # NaN fails too
                raise InvalidCaseError(f"{name} must be a positive finite real, got {float(f)!r}")


def canonical_entries(kind: PerturbationKind, base, delta=None, gamma=None) -> np.ndarray:
    """Entries of the canonical matrices of ``kind`` on one base or a (B, n - 1) stack.

    With y = (1, base), the consistent entries are y_j / y_i; then delta
    multiplies the form's first cell and gamma its second, and each
    reciprocal cell follows.  A factor is one number or one per base.  The
    bases must be positive finite ratios, as a structure checks them; the
    entries are not validated (:func:`validate_entries` does that).
    """
    x = np.asarray(base, dtype=float)
    y = np.concatenate((np.ones(x.shape[:-1] + (1,)), x), axis=-1)
    lo, hi = y.min(axis=-1), y.max(axis=-1)
    far = hi * np.finfo(float).tiny > lo    # lo <= 1 <= hi, so this product cannot overflow
    if far.any():
        k = int(np.argmax(far))
        lo, hi = float(np.ravel(lo)[k]), float(np.ravel(hi)[k])
        raise InvalidCaseError(f"base ratios {lo!r} and {hi!r} are too far apart: "
                               f"entry {hi!r}/{lo!r} or its reciprocal is not a normal float")
    a = y[..., None, :] / y[..., :, None]
    for (i, j), f in zip(CANONICAL_FORMS[kind].cells, (delta, gamma)):
        a[..., i, j] *= f
        a[..., j, i] = 1.0 / a[..., i, j]
    return a


def apply_perturbation(structure: PerturbationStructure) -> Pcm:
    """Build the canonical matrix ``structure`` describes: :func:`canonical_entries` on one base.

    delta multiplies cell (0, 1); gamma multiplies (0, 2) when both
    perturbations share the first row, or (2, 3) when they are disjoint.
    """
    if structure.base is None:
        raise InvalidCaseError("structure must carry a base vector")
    if structure.kind not in CANONICAL_FORMS:
        raise InvalidCaseError(f"kind {structure.kind.value!r} has no canonical form")
    return Pcm(canonical_entries(structure.kind, structure.base, structure.delta,
                                 structure.gamma))


def consistent_pcm(base) -> Pcm:
    """Build the consistent PCM generated by base ratios x_1..x_{n-1}."""
    return apply_perturbation(PerturbationStructure(PerturbationKind.CONSISTENT, len(base) + 1,
                                                    tuple(base)))


def _upper_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _misfit(a: np.ndarray, t: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the upper cells where not |a_ij - t_j / t_i| <= tol * a_ij.

    A zero or infinite potential can make t_j / t_i NaN, which misses too.
    """
    idx = np.arange(len(t))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (idx[:, None] < idx) & ~(np.abs(a - t / t[:, None]) <= tol * a)


def _potentials(a: np.ndarray, removed: tuple[tuple[int, int], ...] = ()) -> np.ndarray:
    """Node potentials t, t_j / t_i = a_ij, from row 0 with the ``removed`` cells left out.

    A kept cell (0, v) sets t_v = a_0v, with t_0 = 1.  A removed cell
    (0, v) takes t_v = t_u * a_uv from the smallest u whose cells (0, u) and
    {u, v} are kept, the node a breadth-first search from 0 reaches v
    through first.  That u exists for the sets the search tries: at most
    two cells at n >= 4, at most one at n = 3 (where removing (1, 2) leaves
    a tree, which always passes).  If t_u * a_uv underflows to 0 or
    overflows, no float potential fits the repair at ``removed``:
    :class:`PotentialRangeError` names it, its kind and log10 t_v.
    """
    t = a[0].copy()
    t[0] = 1.0
    for i, v in removed:
        if i == 0:
            u = next(u for u in range(1, a.shape[0]) if u != v and (0, u) not in removed
                     and (min(u, v), max(u, v)) not in removed)
            t[v] = tv = float(t[u]) * float(a[u, v])    # Python floats: overflow gives no warning
            if not 0.0 < tv < math.inf:
                raise PotentialRangeError(
                    f"the {_repair_kind(a.shape[0], removed).value} repair at {removed} needs a "
                    f"potential of 10^{math.log10(t[u]) + math.log10(a[u, v]):.1f} relative "
                    "to node 0, beyond the float range")
    return t


def _consistent_completion(a: np.ndarray, removed: tuple[tuple[int, int], ...], tol: float):
    """The :func:`_potentials` without ``removed``, or None if a kept cell is a :func:`_misfit`.

    :func:`_bad_triads` relies on two facts.  An accepted completion bounds
    every kept cell, |log a_ij - log(t_j/t_i)| <= -log(1 - tol), so a
    triad i < k < j whose three cells are all kept has log residual
    |log a_ik + log a_kj - log a_ij| <= -3 log(1 - tol).  And a kept cell
    (0, v) sets t_v = a_0v exactly.
    """
    t = _potentials(a, removed)
    miss = _misfit(a, t, tol)
    for cell in removed:
        miss[cell] = False
    return None if miss.any() else t


def _bad_triads(a: np.ndarray, tol: float) -> np.ndarray:
    """Triads no completion accepted at ``tol`` keeps whole, as cell indices.

    Row r lists the indices, into ``_upper_pairs(n)``, of the cells (i, k),
    (k, j) and (i, j) of a triad i < k < j that fails one of two tests, so
    every removal set :func:`_consistent_completion` accepts contains a
    cell of every row:

    - its log residual log a_ik + log a_kj - log a_ij exceeds the bound of
      an accepted completion, 3 * -log(1 - tol), by more than the rounding
      of the logs and of the acceptance test (with tol >= 1 there is no
      bound);
    - i = 0 and (k, j) is a :func:`_misfit` of the row-0 potentials, which
      kept cells (0, k) and (0, j) set.

    The second test is the size-0 check cell by cell, so the table is
    empty exactly when the unedited matrix passes.  Both the triads, in
    lexicographic order, and the cell numbers come from one upper-triangle
    mask: a triad is a nonzero of ``upper[:, :, None] & upper[None]``, and
    the running count of ``upper`` in row-major order numbers the cells.
    """
    n = a.shape[0]
    idx = np.arange(n)
    upper = idx[:, None] < idx
    i, k, j = np.nonzero(upper[:, :, None] & upper[None])
    root = i == 0
    bad = np.zeros(len(i), dtype=bool)
    bad[root] = _misfit(a, _potentials(a), tol)[k[root], j[root]]
    cell_tol = tol * (1.0 + 2.0 * _EPS)     # the acceptance test's own rounding
    if cell_tol < 1.0:
        bound = -np.log1p(-cell_tol)
        logs = np.log(a)
        lik, lkj, lij = logs[i, k], logs[k, j], logs[i, j]
        slack = 8.0 * _EPS * (np.abs(lik) + np.abs(lkj) + np.abs(lij) + 3.0 * bound + 1.0)
        bad |= np.abs(lik + lkj - lij) > 3.0 * bound + slack
    cell = np.cumsum(upper).reshape(n, n) - 1    # row-major number of each upper cell
    i, k, j = i[bad], k[bad], j[bad]
    return np.stack((cell[i, k], cell[k, j], cell[i, j]), axis=1)


def _common_cells(triads: np.ndarray, cells: int) -> np.ndarray:
    """Cells in every row of ``triads``; every cell when there is no row."""
    if len(triads) == 0:
        return np.arange(cells)
    return np.flatnonzero(np.bincount(triads.ravel(), minlength=cells) == len(triads))


def _hitting_sets(bad: np.ndarray, pairs: list[tuple[int, int]], size: int):
    """Removal sets of ``size`` cells that contain a cell of every bad triad.

    In lexicographic order.  A pair must use a cell of the first bad triad,
    and its other cell must lie in every bad triad that cell misses.  Sizes
    1 and 2 are searched only when some triad is bad: with none, the empty
    set passes.
    """
    if size == 0:
        sets = [] if len(bad) else [()]
    elif size == 1:
        sets = [(c,) for c in _common_cells(bad, len(pairs))]
    else:
        sets = sorted({(min(c, p), max(c, p)) for c in bad[0]
                       for p in _common_cells(bad[np.all(bad != c, axis=1)], len(pairs))
                       if p != c})
    return [tuple(pairs[c] for c in s) for s in sets]


def _canonical_permutation(n: int, positions: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Relabeling that moves the perturbed cells into their canonical spots.

    The node the cells share comes first, then the cells' other nodes in
    order (sorted, as positions are), then every other node.
    """
    nodes = [v for cell in positions for v in cell]
    head = [v for v in nodes if nodes.count(v) > 1][:1]
    head += [v for v in nodes if v not in head]
    return tuple(head + [v for v in range(n) if v not in head])


def _repair_kind(n: int, positions: tuple[tuple[int, int], ...]) -> PerturbationKind:
    """The :func:`canonical_kind` of ``positions`` relabeled by :func:`_canonical_permutation`."""
    label = _canonical_permutation(n, positions).index
    return canonical_kind(tuple(sorted(tuple(sorted((label(i), label(j))))
                                       for i, j in positions)), n)


def classify_perturbation(m: Pcm, tol: float = DEFAULT_CONSISTENCY_TOL) -> PerturbationStructure:
    """Find the minimal perturbation structure of an arbitrary PCM.

    Searches sets of upper-triangle cells of size 0, 1, 2 (in that order,
    so the reported edit count is minimal) for one whose removal leaves a
    matrix that :func:`_consistent_completion` completes within ``tol``.
    Only sets that contain a cell of every bad triad are tried: a triad
    whose log residual exceeds 3 * -log(1 - tol), or whose cells through
    node 0 already fix a failing test, cannot stay whole in an accepted
    completion (see :func:`_bad_triads`), so every other set would be
    rejected.  The result is therefore the one the exhaustive search over
    all sets gives, on every input and every ``tol``.  Order 2 has no
    triad, so its empty set passes.  Among equal-size repairs the
    lexicographically smallest position set is the primary one; the others
    are reported in ``alternatives``.  The repair's kind is the row of
    ``CANONICAL_FORMS`` holding its relabeled cells, and the recovered base
    is expressed in that canonical labeling with the first relabeled
    alternative as numeraire.  A tried set whose potential leaves the
    float range raises :class:`PotentialRangeError` (see :func:`_potentials`),
    even when another set of its size passes, as the alternatives would
    then be incomplete; so does a primary repair whose base ratio or factor
    leaves it (see :func:`_repair_structure`).
    """
    if not tol >= 0:    # NaN fails too
        raise ValueError("tol must be non-negative")
    a = m.entries
    pairs = _upper_pairs(m.n)
    bad = _bad_triads(a, tol)
    for size in (0, 1, 2):
        hits = [(removed, t) for removed in _hitting_sets(bad, pairs, size)
                if (t := _consistent_completion(a, removed, tol)) is not None]
        if hits:
            return _repair_structure(a, hits)
    return PerturbationStructure(kind=PerturbationKind.OTHER, n=m.n)


def _repair_structure(a: np.ndarray, hits) -> PerturbationStructure:
    """The structure of the smallest repairs ``hits``: (removed cells, potentials) pairs.

    A base ratio or factor of the primary repair that overflows or underflows
    to 0 raises :class:`PotentialRangeError` naming the repair and its log10.
    """
    n = a.shape[0]
    (positions, t), *others = sorted(hits, key=lambda h: h[0])
    perm = _canonical_permutation(n, positions)
    kind = _repair_kind(n, positions)
    tp = t[list(perm)]
    cells = CANONICAL_FORMS[kind].cells
    with np.errstate(over="ignore"):
        base = tp[1:] / tp[0]
        factors = [float(a[perm[i], perm[j]] * tp[i] / tp[j]) for i, j in cells]
    ratios = np.append(base, factors)
    fits = (0.0 < ratios) & (ratios < math.inf)
    if not fits.all():
        k, lt = int(np.argmin(fits)), np.log10(tp)
        logs = np.append(lt[1:] - lt[0], [np.log10(a[perm[i], perm[j]]) + lt[i] - lt[j]
                                          for i, j in cells])
        name = ([f"base ratio x_{v}" for v in range(1, n)] + ["delta", "gamma"])[k]
        raise PotentialRangeError(f"the {kind.value} repair at {positions} needs {name} = "
                                  f"10^{logs[k]:.1f}, beyond the float range")
    delta, gamma = (factors + [None, None])[:2]
    return PerturbationStructure(kind=kind, n=n, base=tuple(base.tolist()),
                                 delta=delta, gamma=gamma, positions=positions,
                                 permutation=perm, alternatives=tuple(h[0] for h in others))


def reconstruct(structure: PerturbationStructure) -> Pcm:
    """Rebuild the matrix a classification describes, in original indices.

    For a structure returned by :func:`classify_perturbation` this inverts
    the canonical relabeling, so the result reproduces the classified
    matrix entry by entry (up to the classification tolerance).
    """
    if structure.kind == PerturbationKind.OTHER:
        raise InvalidCaseError("cannot reconstruct an unstructured matrix")
    canonical = apply_perturbation(structure)
    perm = structure.permutation or tuple(range(structure.n))
    a = np.empty_like(canonical.entries)
    idx = np.asarray(perm)
    a[np.ix_(idx, idx)] = canonical.entries
    return Pcm(a)
