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

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidCaseError,
    NonPositiveEntryError,
    NotSquareError,
    ReciprocityViolationError,
)

RECIPROCITY_TOL = 1e-12
DEFAULT_CONSISTENCY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


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
        for i in range(n):
            for j in range(n):
                v = a[i, j]
                if not np.isfinite(v) or v <= 0.0:
                    raise NonPositiveEntryError(i, j, float(v))
        for i in range(n):
            for j in range(i, n):
                prod = a[i, j] * a[j, i]
                if abs(prod - 1.0) > RECIPROCITY_TOL * max(1.0, abs(prod)):
                    raise ReciprocityViolationError(i, j, float(prod))
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
    PerturbationKind.SIMPLE: CanonicalForm(((0, 1),), 3),
    PerturbationKind.CASE1: CanonicalForm(((0, 1), (0, 2)), 4),
    PerturbationKind.CASE2A: CanonicalForm(_DISJOINT_CELLS, 4, 4),
    PerturbationKind.CASE2B: CanonicalForm(_DISJOINT_CELLS, 5),
}
DOUBLE_KINDS = tuple(k for k, form in CANONICAL_FORMS.items() if len(form.cells) == 2)


def check_order(kind: PerturbationKind, n: int, error: type = InvalidCaseError) -> None:
    """Raise ``error`` unless ``kind`` has a canonical form of order ``n``."""
    form = CANONICAL_FORMS.get(kind)
    if form is None:
        raise error(f"kind {kind.value!r} has no canonical perturbed form")
    if not form.allows(n):
        wanted = (f">= {form.min_order}" if form.max_order is None else
                  f"= {form.min_order}" if form.max_order == form.min_order else
                  f"in {form.min_order}..{form.max_order}")
        raise error(f"kind {kind.value!r} requires n {wanted}, got {n}")


def disjoint_kind(n: int) -> PerturbationKind:
    """The disjoint-row kind whose canonical form has order ``n``."""
    for kind, form in CANONICAL_FORMS.items():
        if form.cells == _DISJOINT_CELLS and form.allows(n):
            return kind
    raise InvalidCaseError(f"no disjoint-row form of order {n}")


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
    """

    kind: PerturbationKind
    n: int
    base: tuple[float, ...] | None = None
    delta: float | None = None
    gamma: float | None = None
    positions: tuple[tuple[int, int], ...] = ()
    permutation: tuple[int, ...] | None = None
    alternatives: tuple[tuple[tuple[int, int], ...], ...] = ()


def consistent_pcm(base) -> Pcm:
    """Build the consistent PCM generated by base ratios x_1..x_{n-1}."""
    x = np.asarray(base, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidCaseError("base must be a vector of at least one positive ratio")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise InvalidCaseError("base ratios must be positive finite reals")
    y = np.concatenate(([1.0], x))
    return Pcm(y[None, :] / y[:, None])


def apply_perturbation(structure: PerturbationStructure) -> Pcm:
    """Build the canonical perturbed matrix described by ``structure``.

    delta multiplies cell (0, 1); gamma multiplies (0, 2) when both
    perturbations share the first row, or (2, 3) when they are disjoint.
    Reciprocal cells are updated accordingly.
    """
    kind = structure.kind
    if structure.base is None:
        raise InvalidCaseError("structure must carry a base vector")
    check_order(kind, len(structure.base) + 1)
    cells = CANONICAL_FORMS[kind].cells
    factors = (structure.delta, structure.gamma)[:len(cells)]
    if None in factors:
        raise InvalidCaseError(f"kind {kind.value!r} needs one factor per cell (delta, gamma)")

    a = np.array(consistent_pcm(structure.base).entries)
    for (i, j), f in zip(cells, factors):
        a[i, j] *= f
        a[j, i] = 1.0 / a[i, j]
    return Pcm(a)


def is_consistent(m: Pcm, tol: float = DEFAULT_CONSISTENCY_TOL) -> bool:
    """Check cardinal transitivity a_ik * a_kj = a_ij for all triples."""
    a = m.entries
    prod = a[:, :, None] * a[None, :, :]    # prod[i, k, j] = a_ik * a_kj
    return bool(np.all(np.abs(prod - a[:, None, :]) <= tol * a[:, None, :]))


def _upper_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _consistent_completion(a: np.ndarray, removed: tuple[tuple[int, int], ...], tol: float):
    """Try to complete the matrix consistently ignoring the ``removed`` cells.

    Treats the remaining upper-triangle cells as ratio constraints
    t_j / t_i = a_ij on node potentials t.  Potentials are propagated over
    a BFS spanning forest and every remaining cell is checked against them.
    Returns the potential vector, or None when no consistent completion
    exists.  (With at most two cells removed the constraint graph stays
    connected for n >= 4; a disconnected forest would make the completion
    non-unique, which cannot occur here because smaller removals are tried
    first.)

    :func:`_bad_triads` relies on two facts.  An accepted completion bounds
    every kept cell, |log a_ij - log(t_j/t_i)| <= -log(1 - tol), so a
    triad i < k < j whose three cells are all kept has log residual
    |log a_ik + log a_kj - log a_ij| <= -3 log(1 - tol).  And node 0 is the
    first root, so a kept cell (0, v) sets t_v = a_0v exactly.
    """
    n = a.shape[0]
    removed_set = set(removed)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in _upper_pairs(n):
        if (i, j) not in removed_set:
            adj[i].append(j)
            adj[j].append(i)

    t = np.zeros(n)
    for root in range(n):
        if t[root] != 0.0:
            continue
        t[root] = 1.0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if t[v] == 0.0:
                    t[v] = t[u] * a[u, v]
                    queue.append(v)

    for i, j in _upper_pairs(n):
        if (i, j) in removed_set:
            continue
        expected = t[j] / t[i]
        if abs(a[i, j] - expected) > tol * a[i, j]:
            return None
    return t


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
    - i = 0 and the acceptance test of (k, j) fails against t_k = a_0k and
      t_j = a_0j, the potentials that kept cells (0, k) and (0, j) set.

    The second test is the size-0 check cell by cell, so the table is
    empty exactly when the unedited matrix passes.
    """
    n = a.shape[0]
    idx = np.arange(n)
    i, k, j = np.nonzero((idx[:, None, None] < idx[None, :, None])
                         & (idx[None, :, None] < idx[None, None, :]))
    root = i == 0
    kr, jr = k[root], j[root]
    bad = np.zeros(len(i), dtype=bool)
    bad[root] = np.abs(a[kr, jr] - a[0, jr] / a[0, kr]) > tol * a[kr, jr]
    cell_tol = tol * (1.0 + 2.0 * _EPS)     # the acceptance test's own rounding
    if cell_tol < 1.0:
        bound = -np.log1p(-cell_tol)
        logs = np.log(a)
        lik, lkj, lij = logs[i, k], logs[k, j], logs[i, j]
        slack = 8.0 * _EPS * (np.abs(lik) + np.abs(lkj) + np.abs(lij) + 3.0 * bound + 1.0)
        bad |= np.abs(lik + lkj - lij) > 3.0 * bound + slack
    cell = np.zeros((n, n), dtype=np.intp)
    cell[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    return np.stack((cell[i, k], cell[k, j], cell[i, j]), axis=1)[bad]


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
    """Relabeling that moves the perturbed cells into their canonical spots."""
    if len(positions) == 0:
        return tuple(range(n))
    if len(positions) == 1:
        i, j = positions[0]
        head = [i, j]
    else:
        (i1, j1), (i2, j2) = positions
        nodes1, nodes2 = {i1, j1}, {i2, j2}
        shared = nodes1 & nodes2
        if shared:
            v = min(shared)
            others = sorted((nodes1 | nodes2) - {v})
            head = [v, others[0], others[1]]
        else:
            head = [i1, j1, i2, j2]
    rest = [k for k in range(n) if k not in head]
    return tuple(head + rest)


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
    all sets gives, on every input and every ``tol``.  Among
    equal-size repairs the lexicographically smallest position set is the
    primary one; the others are reported in ``alternatives``.  The
    recovered base is expressed in canonical labeling with the first
    relabeled alternative as numeraire.
    """
    a = m.entries
    n = m.n
    if n < 3:
        # order 2 is vacuously consistent (no triples)
        return PerturbationStructure(
            kind=PerturbationKind.CONSISTENT,
            n=n,
            base=tuple(a[0, 1:].tolist()),
            permutation=tuple(range(n)),
        )

    pairs = _upper_pairs(n)
    bad = _bad_triads(a, tol)
    for size in (0, 1, 2):
        hits = [(removed, t) for removed in _hitting_sets(bad, pairs, size)
                if (t := _consistent_completion(a, removed, tol)) is not None]
        if hits:
            return _repair_structure(a, hits)
    return PerturbationStructure(kind=PerturbationKind.OTHER, n=n)


def _repair_structure(a: np.ndarray, hits) -> PerturbationStructure:
    """The structure of the smallest repairs ``hits``: (removed cells, potentials) pairs."""
    n = a.shape[0]
    hits = sorted(hits, key=lambda h: h[0])
    positions, t = hits[0]
    size = len(positions)
    alternatives = tuple(h[0] for h in hits[1:])
    perm = _canonical_permutation(n, positions)
    tp = t[list(perm)]
    base = tuple((tp[1:] / tp[0]).tolist())

    def ratio(ci: int, cj: int) -> float:
        oi, oj = perm[ci], perm[cj]
        return float(a[oi, oj] * t[oi] / t[oj])

    if size == 0:
        kind = PerturbationKind.CONSISTENT
    elif size == 1:
        kind = PerturbationKind.SIMPLE
    elif set(positions[0]) & set(positions[1]):
        kind = PerturbationKind.CASE1
    else:
        kind = disjoint_kind(n)
    factors = [ratio(i, j) for i, j in CANONICAL_FORMS[kind].cells] if size else []
    delta, gamma = (factors + [None, None])[:2]

    return PerturbationStructure(
        kind=kind,
        n=n,
        base=base,
        delta=delta,
        gamma=gamma,
        positions=positions,
        permutation=perm,
        alternatives=alternatives,
    )


def reconstruct(structure: PerturbationStructure) -> Pcm:
    """Rebuild the matrix a classification describes, in original indices.

    For a structure returned by :func:`classify_perturbation` this inverts
    the canonical relabeling, so the result reproduces the classified
    matrix entry by entry (up to the classification tolerance).
    """
    if structure.kind == PerturbationKind.OTHER:
        raise InvalidCaseError("cannot reconstruct an unstructured matrix")
    if structure.kind == PerturbationKind.CONSISTENT:
        canonical = consistent_pcm(structure.base)
    else:
        canonical = apply_perturbation(structure)
    perm = structure.permutation or tuple(range(structure.n))
    a = np.empty_like(canonical.entries)
    idx = np.asarray(perm)
    a[np.ix_(idx, idx)] = canonical.entries
    return Pcm(a)
