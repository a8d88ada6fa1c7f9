"""Numeric certification of the perturbed-matrix inequalities and theorems.

Each check but positivity pits the eigenvector obtained by power iteration
(never the closed forms, so the certification path is independent of the
algebra the statements came from) against a comparison between one weight
ratio and one matrix entry; positivity is the one check of the closed forms
themselves.  Strict statements must hold with a strictly positive
normalized margin, equality statements within a relative tolerance.  The
suite runner sweeps a deterministic parameter grid and reports per-check
sample counts, violations and the worst margin seen.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .efficiency import is_efficient
from .errors import HypothesisViolatedError
from .generators import parametric_inefficient, sample_base, sample_bases, sample_ratio
from .pcm import (
    CANONICAL_FORMS,
    DOUBLE_KINDS,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    apply_perturbation,
    canonical_entries,
    validate_entries,
)
# Unused here: bench/spans.py wraps lambda_max_closed_form, power_iteration, raw_variant_vector.
from .spectral import form_terms, lambda_max_closed_form, lambda_max_closed_forms, \
    power_iteration, power_iteration_batch, raw_variant_vector, variant_vectors  # noqa: F401

STRICT_MARGIN_FLOOR = 1e-10
EQUALITY_REL_TOL = 1e-9

# Most matrices a theorem sweep draws, builds and solves as one block, and
# most entries (rows x n^2) of a stack the lemma sweep builds and solves or
# of the samples its positivity check evaluates at once: 256 matrices of
# order 9, the largest a theorem sweep draws (one row past order 144).  Both sweeps solve by order,
# the lemma sweep across kinds; a sweep holds one chunk's matrices at once,
# so the bound caps that part of its memory.  Against chunks of 256 rows at
# every order, `verify --lemmas all` took 78-88 against 85-91 ms and peaked
# at 42.6 against 42.3 MB at its default 1,000 samples, and 630-690 against
# 770-800 ms and 81.3 against 81.0 MB at 10,000 (in process, the best of 5
# runs in each of 8 and 2 processes, 2 shared x86-64 cores, Python 3.11,
# numpy 2.4).
_STACK_CAP = 256
_STACK_ENTRIES = _STACK_CAP * 9**2

POSITIVITY_CHECK = "positivity"
CYCLE_CHECK = "cycle"


@dataclass
class LemmaReport:
    """Aggregate outcome of one check over many samples."""

    lemma_id: str
    samples_run: int = 0
    violations: list = field(default_factory=list)
    min_margin: float = np.inf

    def record(self, kind: PerturbationKind, rows: np.ndarray, x: np.ndarray, n: np.ndarray,
               delta: np.ndarray, gamma: np.ndarray, margins: np.ndarray) -> None:
        """Count the samples ``rows`` of a stack and their margins; violations keep their order.

        ``margins[i]`` is the margin of sample ``rows[i]``.  Sample ``k`` has
        order ``n[k]``, x = (1, base) in the first ``n[k]`` columns of row
        ``k`` of ``x`` (any columns after those are ignored), and factors
        ``delta[k]`` and ``gamma[k]``; only a violation's row is read, to
        become a structure.  A NaN margin is a violation, and ``min_margin``
        stays NaN once one is recorded.
        """
        lemma = LEMMAS.get(self.lemma_id)
        floor = 0.0 if lemma is not None and lemma.equality else STRICT_MARGIN_FLOOR
        self.samples_run += len(margins)
        low = float(margins.min())    # NaN if any margin is
        self.min_margin = low if math.isnan(low) else min(self.min_margin, low)
        bad = ~(margins > floor)
        self.violations += [(PerturbationStructure(kind, int(n[k]), tuple(x[k, 1:n[k]].tolist()),
                                                   float(delta[k]), float(gamma[k])), float(m))
                            for k, m in zip(rows[bad], margins[bad])]

    @property
    def passed(self) -> bool:
        return self.samples_run > 0 and not self.violations


def _ordered(ratio, target, direction):
    """Normalized margins of 'ratio vs target' in the expected directions, elementwise.

    direction > 0: ratio must exceed target; direction < 0: stay below;
    direction == 0: agree within the equality tolerance (margin is the
    unused part of that tolerance).  A tied ratio has margin +0.0 either way.
    """
    return np.where(direction > 0, (ratio - target) / target,
                    np.where(direction < 0, (target - ratio) / target,
                             EQUALITY_REL_TOL - np.abs(ratio - target) / target))


@dataclass(frozen=True)
class _Lemma:
    """A statement; ``margin(w, x, delta, gamma)`` maps a stack of samples to their margins.

    The sweep pads a row of ``w`` and ``x`` by repeating its last column, so
    a margin must be a minimum over terms that a repeated column only
    repeats, or joins in a term no lower than the rest: a pair of equal
    ratios, whose equality margin is the whole tolerance.
    """

    lemma_id: str
    kind: PerturbationKind
    hypothesis: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    margin: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    equality: bool = False


def _tail_margin(w, x, row: int, first: int, direction):
    """Worst margin of w_row / w_i vs x_{i-1} / x_{row-1}, i = first+1 .. n (1-based)."""
    return _ordered(w[:, row - 1, None] / w[:, first:], x[:, first:] / x[:, row - 1, None],
                    np.expand_dims(direction, -1)).min(axis=1)


def _pair_equality(w, x, first: int):
    """Worst equality margin of w_i / w_j vs x_{j-1} / x_{i-1} over first <= i < j (1-based)."""
    i, j = np.triu_indices(w.shape[1] - first + 1, 1)
    i, j = i + first - 1, j + first - 1
    return _ordered(w[:, i] / w[:, j], x[:, j] / x[:, i], 0).min(axis=1)


def _build_registry() -> dict[str, _Lemma]:
    c1, c2a, c2b = PerturbationKind.CASE1, PerturbationKind.CASE2A, PerturbationKind.CASE2B
    lemmas = [
        # shared-row case: perturbations at cells (1,2) and (1,3), 1-based
        _Lemma("1a", c1, lambda d, g, n: (d > 1) & (d >= g),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 1], d * x[:, 1], -1)),
        _Lemma("1b", c1, lambda d, g, n: (d < 1) & (d <= g),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 1], d * x[:, 1], +1)),
        _Lemma("1c", c1, lambda d, g, n: (g > 1) & (g >= d),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 2], g * x[:, 2], -1)),
        _Lemma("1d", c1, lambda d, g, n: (g < 1) & (g <= d),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 2], g * x[:, 2], +1)),
        _Lemma("1e", c1, lambda d, g, n: (d > 1) & (g > 1),
               lambda w, x, d, g: _tail_margin(w, x, 1, 3, +1)),
        _Lemma("1f", c1, lambda d, g, n: (d < 1) & (g < 1),
               lambda w, x, d, g: _tail_margin(w, x, 1, 3, -1)),
        _Lemma("1g", c1, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 1] / w[:, 2], x[:, 2] / x[:, 1], g - d)),
        _Lemma("1h", c1, lambda d, g, n: True,
               lambda w, x, d, g: _tail_margin(w, x, 2, 3, 1.0 - d)),
        _Lemma("1i", c1, lambda d, g, n: True,
               lambda w, x, d, g: _tail_margin(w, x, 3, 3, 1.0 - g)),
        _Lemma("1j", c1, lambda d, g, n: n >= 5,
               lambda w, x, d, g: _pair_equality(w, x, 4), equality=True),
        # disjoint-row 4x4 case: perturbations at (1,2) and (3,4)
        _Lemma("2a", c2a, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 1], d * x[:, 1], 1.0 - d)),
        _Lemma("2b", c2a, lambda d, g, n: (d > 1) & (g < 1),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 2], x[:, 2], +1)),
        _Lemma("2c", c2a, lambda d, g, n: (d < 1) & (g > 1),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 2], x[:, 2], -1)),
        _Lemma("2d", c2a, lambda d, g, n: (d < 1) & (g < 1),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 3], x[:, 3], -1)),
        _Lemma("2e", c2a, lambda d, g, n: (d > 1) & (g > 1),
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 3], x[:, 3], +1)),
        _Lemma("2f", c2a, lambda d, g, n: (d < 1) & (g < 1),
               lambda w, x, d, g: _ordered(w[:, 1] / w[:, 2], x[:, 2] / x[:, 1], +1)),
        _Lemma("2g", c2a, lambda d, g, n: (d > 1) & (g > 1),
               lambda w, x, d, g: _ordered(w[:, 1] / w[:, 2], x[:, 2] / x[:, 1], -1)),
        _Lemma("2h", c2a, lambda d, g, n: (d < 1) & (g > 1),
               lambda w, x, d, g: _ordered(w[:, 1] / w[:, 3], x[:, 3] / x[:, 1], +1)),
        _Lemma("2i", c2a, lambda d, g, n: (d > 1) & (g < 1),
               lambda w, x, d, g: _ordered(w[:, 1] / w[:, 3], x[:, 3] / x[:, 1], -1)),
        _Lemma("2j", c2a, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 2] / w[:, 3], g * x[:, 3] / x[:, 2], 1.0 - g)),
        # disjoint-row case of order >= 5
        _Lemma("3a", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 2] / w[:, 3], g * x[:, 3] / x[:, 2], 1.0 - g)),
        _Lemma("3b", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 1], d * x[:, 1], 1.0 - d)),
        _Lemma("3c", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _tail_margin(w, x, 1, 4, d - 1.0)),
        _Lemma("3d", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _tail_margin(w, x, 2, 4, 1.0 - d)),
        _Lemma("3e", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _tail_margin(w, x, 3, 4, g - 1.0)),
        # certified in the stronger three-way forms the proofs establish
        _Lemma("3f", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 1] / w[:, 3], x[:, 3] / x[:, 1], g - d)),
        _Lemma("3g", c2b, lambda d, g, n: True,
               lambda w, x, d, g: _ordered(w[:, 0] / w[:, 3], x[:, 3], g * d - 1.0)),
        _Lemma("3h", c2b, lambda d, g, n: n >= 6,
               lambda w, x, d, g: _pair_equality(w, x, 5), equality=True),
    ]
    return {l.lemma_id: l for l in lemmas}


LEMMAS = _build_registry()
LEMMA_IDS = tuple(LEMMAS)
ALL_CHECK_IDS = LEMMA_IDS + (POSITIVITY_CHECK, CYCLE_CHECK)

# Per double-perturbed kind, a directed cycle certifying strong connectivity for
# each parameter sign region (1-based nodes; "i" stands for every contracted
# trailing node).  Each region's predicate is elementwise, like a lemma's hypothesis.
CYCLES = {
    PerturbationKind.CASE1: (
        (lambda d, g: (d > 1) & (g > d), (1, "i", 2, 3, 1)),
        (lambda d, g: (g > 1) & (g < d), (1, "i", 3, 2, 1)),
        (lambda d, g: (d > 1) & (g < 1), (1, 3, "i", 2, 1)),
        (lambda d, g: (d < 1) & (g < d), (1, 3, 2, "i", 1)),
        (lambda d, g: (g < 1) & (g > d), (1, 2, 3, "i", 1)),
        (lambda d, g: (d < 1) & (g > 1), (1, 2, "i", 3, 1)),
    ),
    PerturbationKind.CASE2A: (
        (lambda d, g: (d > 1) & (g > 1), (1, 4, 3, 2, 1)),
        (lambda d, g: (d > 1) & (g < 1), (1, 3, 4, 2, 1)),
        (lambda d, g: (d < 1) & (g < 1), (1, 2, 3, 4, 1)),
        (lambda d, g: (d < 1) & (g > 1), (1, 2, 4, 3, 1)),
    ),
    PerturbationKind.CASE2B: (
        (lambda d, g: (d > 1) & (g > 1), (1, 4, 3, "i", 2, 1)),
        (lambda d, g: (d > 1) & (g < 1), (1, "i", 3, 4, 2, 1)),
        (lambda d, g: (d < 1) & (g < 1), (1, 2, "i", 3, 4, 1)),
        (lambda d, g: (d < 1) & (g > 1), (1, 2, 4, 3, "i", 1)),
    ),
}


def expand_cycle_arcs(cycle: tuple, n: int, kind: PerturbationKind) -> list[tuple[int, int]]:
    """0-based arc list of the cycle, with the contracted node expanded."""
    contracted = list(range(CANONICAL_FORMS[kind].head, n))
    arcs = []
    for u, v in zip(cycle, cycle[1:]):
        us = contracted if u == "i" else [u - 1]
        vs = contracted if v == "i" else [v - 1]
        for a in us:
            for b in vs:
                if a != b:
                    arcs.append((a, b))
    return arcs


@functools.cache
def _region_arcs(kind: PerturbationKind, n: int) -> np.ndarray:
    """(regions, arcs, 2): each region cycle's 0-based arcs at order ``n``, one count for all."""
    return np.array([expand_cycle_arcs(cycle, n, kind) for _, cycle in CYCLES[kind]])


def _cycle_margins(kind: PerturbationKind, w, a, rows, delta, gamma) -> np.ndarray:
    """Worst normalized slack of w_u / w_v over a_uv along the region cycle of each of ``rows``.

    Row ``rows[k]`` of the stacks ``w`` and ``a`` has factors ``delta[k]`` and
    ``gamma[k]``, and one gather reads every row's arcs from its region's
    :func:`_region_arcs`.  A row that no region covers gets a NaN margin: a violation.
    """
    inside = np.array([predicate(delta, gamma) for predicate, _ in CYCLES[kind]])
    u, v = np.moveaxis(_region_arcs(kind, a.shape[-1])[inside.argmax(axis=0)], -1, 0)
    r = rows[:, None]
    entries = a[r, u, v]
    margins = ((w[r, u] / w[r, v] - entries) / entries).min(axis=1)
    margins[~inside.any(axis=0)] = np.nan
    return margins


def _holds(check_id: str, kind: PerturbationKind, n: int, delta, gamma):
    """Where a known check's hypothesis holds on floats or arrays of factors, elementwise.

    No statement covers a factor equal to 1, and ``kind`` must be double-perturbed; the
    cycle check needs a sign region of its kind, a lemma its own kind and region.
    """
    held = (delta != 1.0) & (gamma != 1.0)
    if check_id == CYCLE_CHECK:
        return held & np.logical_or.reduce([region(delta, gamma) for region, _ in CYCLES[kind]])
    lemma = LEMMAS.get(check_id)
    if lemma is None:
        return held
    return held & (lemma.kind == kind) & lemma.hypothesis(delta, gamma, n)


def check_lemma(lemma_id: str, sample: PerturbationStructure) -> LemmaReport:
    """Evaluate one check on one sample: a report of one sample, min_margin > 0 if it held.

    The sweep on one grid cell with the sample's base, which every canonical
    structure carries, as one kind with one one-row stack; the sweep solves
    the cell's closed-form root for positivity.  ``ValueError`` for an unknown
    check id, then :class:`HypothesisViolatedError` naming the check and the
    sample's kind, n, delta and gamma unless the kind is double-perturbed and
    :func:`_holds` is true there (never where delta or gamma equals 1).
    """
    if lemma_id not in ALL_CHECK_IDS:
        raise ValueError(f"unknown check ids {[lemma_id]}")
    kind, n, delta, gamma = sample.kind, sample.n, sample.delta, sample.gamma
    if kind not in DOUBLE_KINDS or not _holds(lemma_id, kind, n, delta, gamma):
        raise HypothesisViolatedError(f"check {lemma_id} does not apply to kind {kind.value!r}, "
                                      f"n = {n}, delta = {delta}, gamma = {gamma}")
    report = LemmaReport(lemma_id)
    _sweep_cells({lemma_id: report}, np.array([delta]), np.array([gamma]),
                 [(kind, [np.array([(1.0,) + tuple(sample.base)])])])
    return report


@dataclass(frozen=True)
class SuiteGrid:
    """Deterministic sweep: ratio grid x orders x seeded random bases.

    The 4x4 disjoint-row case gets more bases per cell because its
    quadrant-restricted statements see only a quarter of the ratio grid
    and must still accumulate a meaningful sample count.
    """

    bases_per_cell: int = 20
    bases_per_cell_case2a: int = 64

    ratio_values: ClassVar[tuple[float, ...]] = (1 / 9, 1 / 5, 1 / 2, 0.9, 1.1, 2.0, 5.0, 9.0)
    max_order: ClassVar[int] = 8    # sweep ceiling for the forms of unbounded order

    def __post_init__(self):
        for name in ("bases_per_cell", "bases_per_cell_case2a"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"{name} must be an int >= 1, got {count!r}")

    @classmethod
    def orders(cls, kind: PerturbationKind) -> tuple[int, ...]:
        form = CANONICAL_FORMS[kind]
        top = cls.max_order if form.max_order is None else form.max_order
        return tuple(range(form.min_order, top + 1))

    def bases(self, kind: PerturbationKind) -> int:
        if kind == PerturbationKind.CASE2A:
            return self.bases_per_cell_case2a
        return self.bases_per_cell

    @classmethod
    def for_samples(cls, samples: int) -> SuiteGrid:
        """The smallest grid that gives every check at least ``samples`` points.

        Each base count covers the smallest hypothesis region among the
        checks of the kinds it feeds.
        """
        region = dict(zip(DOUBLE_KINDS, _smallest_regions(
            cls.ratio_values, tuple(cls.orders(kind) for kind in DOUBLE_KINDS))))
        case2a = region.pop(PerturbationKind.CASE2A)
        return cls(bases_per_cell=max(1, math.ceil(samples / min(region.values()))),
                   bases_per_cell_case2a=max(1, math.ceil(samples / case2a)))


@functools.cache
def _smallest_regions(ratio_values: tuple[float, ...],
                      orders: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Per double kind, the fewest grid samples per base that one of its lemmas gets.

    ``orders[i]`` are the orders of ``DOUBLE_KINDS[i]``; a pure function of the
    grid's constants, so a process builds the table once.
    """
    delta, gamma = np.meshgrid(ratio_values, ratio_values)
    return tuple(min(sum(int(_holds(lem.lemma_id, kind, n, delta, gamma).sum())
                         for n in kind_orders)
                     for lem in LEMMAS.values() if lem.kind == kind)
                 for kind, kind_orders in zip(DOUBLE_KINDS, orders))


def _sweep_cells(reports: dict[str, LemmaReport], delta: np.ndarray, gamma: np.ndarray,
                 runs: Sequence[tuple[PerturbationKind, Sequence[np.ndarray]]]) -> None:
    """Record the requested checks on each kind's grid-cell samples, all its orders at once.

    In run ``(kind, xs)``, ``xs`` holds the kind's stacks in ascending order;
    in each, cell ``c`` has factors ``delta[c]`` and ``gamma[c]``, and row
    ``k``, (1, base) of sample ``k``, belongs to cell ``k // count`` for
    ``count`` rows per cell.  A kind's stacks become one stack whose rows
    carry their own orders and factors: the bases and weights of a lower
    order repeat their last column up to the kind's top order, which repeats
    a term of every margin and adds to the equality checks only pairs of
    equal ratios, whose margin is the whole tolerance, so no margin changes.

    Positivity holds in every cell (no factor is 1); if it is requested, one
    solve on one group of arrays per kind gives every stack's cells their
    closed-form roots, in run and stack order, and one :func:`form_terms`
    call their form terms.  Each other hypothesis is one mask per kind, over
    its rows' orders and factors.  Order by order, the rows some mask holds,
    every kind's in run order, are built, validated and solved in chunks of
    at most ``_STACK_ENTRIES`` entries (rows x n^2), or of one row past that;
    of a chunk, only each row's weights and cycle margin, which reads the
    entries, are kept.  Each lemma's margin is then evaluated once on all its kind's rows (an
    unsolved row has weights of one, on which no margin warns), and each
    check is recorded on the rows its mask holds, kind by kind in run order;
    positivity on the closed-form variant vectors of chunks under the same
    bound, at the kind's top order, reading no matrix.
    """
    cells = len(delta)
    if POSITIVITY_CHECK in reports:    # a (9, slots) table of form terms, one slot per stack cell
        roots = lambda_max_closed_forms([(kind, np.repeat([x.shape[1] for x in xs], cells),
                                          np.tile(delta, len(xs)), np.tile(gamma, len(xs)))
                                         for kind, xs in runs])
        terms = np.array(form_terms(np.tile(delta, len(roots) // cells),
                                    np.tile(gamma, len(roots) // cells), roots))
    laid, stacks = [], 0    # per kind, its rows' arrays
    for kind, xs in runs:
        x = np.concatenate([s[:, np.minimum(np.arange(xs[-1].shape[1]), s.shape[1] - 1)]
                            for s in xs])
        n = np.concatenate([np.full(len(s), s.shape[1]) for s in xs])
        # row k lies in cell slot[k] % cells of stack slot[k] // cells of all runs
        slot = np.concatenate([np.arange(len(s)) // (len(s) // cells) + i * cells
                               for i, s in enumerate(xs, stacks)])
        stacks += len(xs)
        d, g = delta[slot % cells], gamma[slot % cells]
        ids = [check_id for check_id in reports if check_id != POSITIVITY_CHECK
               and (check_id not in LEMMAS or LEMMAS[check_id].kind == kind)]
        held = np.array([_holds(check_id, kind, n, d, g) for check_id in ids],
                        dtype=bool).reshape(len(ids), len(x))
        laid.append((kind, x, n, d, g, slot, ids, held, np.ones(x.shape), np.full(len(x), np.nan),
                     np.flatnonzero(held.any(axis=0))))
    for order in sorted({x.shape[1] for _, xs in runs for x in xs}):
        rows = [need[n[need] == order] for _, _, n, *_, need in laid]
        owner = np.repeat(np.arange(len(laid)), [len(r) for r in rows])
        rows = np.concatenate(rows)
        step = max(1, _STACK_ENTRIES // order**2)
        for start in range(0, len(rows), step):
            chunk, of = rows[start:start + step], owner[start:start + step]
            parts = [(laid[i], chunk[of == i]) for i in range(len(laid)) if (of == i).any()]
            a = np.concatenate([canonical_entries(kind, x[r, 1:order], d[r], g[r])
                                for (kind, x, _, d, g, *_), r in parts])
            validate_entries(a)
            solved = power_iteration_batch(a).w
            first = 0
            for (kind, x, _, d, g, _, ids, held, w, cycle, _), r in parts:
                w[r] = solved[first:first + len(r), np.minimum(np.arange(x.shape[1]), order - 1)]
                if CYCLE_CHECK in ids:
                    on = np.flatnonzero(held[ids.index(CYCLE_CHECK), r])
                    cycle[r[on]] = _cycle_margins(kind, solved, a, first + on, d[r[on]], g[r[on]])
                first += len(r)
    for kind, x, n, d, g, slot, ids, held, w, cycle, _ in laid:
        if POSITIVITY_CHECK in reports:
            step = max(1, _STACK_ENTRIES // x.shape[1]**2)
            for start in range(0, len(x), step):
                k = slice(start, start + step)
                v = variant_vectors(kind, x[k].T, terms[:, slot[k]], n[k])
                margins = (np.min(v, axis=1) / np.max(np.abs(v), axis=1)).min(axis=0)
                reports[POSITIVITY_CHECK].record(kind, np.arange(len(x))[k], x, n, d, g, margins)
        for check_id, mask in zip(ids, held):
            k = np.flatnonzero(mask)
            if k.size:
                lemma = LEMMAS.get(check_id)
                margins = cycle if lemma is None else lemma.margin(w, x, d, g)
                reports[check_id].record(kind, k, x, n, d, g, margins[k])


def run_lemma_suite(grid: SuiteGrid | None = None, seed: int = 0,
                    check_ids: Sequence[str] = ALL_CHECK_IDS) -> list[LemmaReport]:
    """Sweep the requested checks over their hypothesis regions of the grid.

    Each check is one array expression over the samples of one kind, all
    its orders at once, and a sample is a row of bases and factors, not an
    object.  Every (kind, n) stack's bases are drawn first, kind by kind and
    order by order, whichever checks are requested, so a subset reports
    exactly what the full sweep reports for it; then :func:`_sweep_cells`
    solves the roots and matrices and records each kind in draw order.
    Reports come back in registry order followed by the positivity and
    cycle checks, violations in draw order; the run is a pure function of
    the grid, seed and check ids.
    ``ValueError`` for an unknown check id.
    """
    unknown = [check_id for check_id in check_ids if check_id not in ALL_CHECK_IDS]
    if unknown:
        raise ValueError(f"unknown check ids {unknown}")
    grid = grid or SuiteGrid()
    rng = np.random.default_rng(seed)
    reports = {check_id: LemmaReport(check_id) for check_id in ALL_CHECK_IDS
               if check_id in check_ids}
    delta = np.repeat(grid.ratio_values, len(grid.ratio_values))    # cells: delta outer,
    gamma = np.tile(grid.ratio_values, len(grid.ratio_values))      # gamma inner
    runs = [(kind, [np.insert(sample_bases(rng, n, len(delta) * grid.bases(kind)), 0, 1.0, axis=1)
                    for n in grid.orders(kind)]) for kind in DOUBLE_KINDS]
    _sweep_cells(reports, delta, gamma, runs)
    return list(reports.values())


@dataclass(frozen=True)
class TheoremReport:
    """How many of a sweep's samples got the verdict its row of :data:`SWEEPS` expects."""

    name: str
    expected: str
    samples: int
    conforming: int

    @property
    def passed(self) -> bool:
        return self.samples > 0 and self.conforming == self.samples


def _random_double_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((4, 5, 6, 7, 8, 9)))
    shared_row, disjoint = (k for k in DOUBLE_KINDS if CANONICAL_FORMS[k].allows(n))
    kind = shared_row if rng.random() < 0.5 else disjoint
    delta = sample_ratio(rng, exclude_one=True)
    gamma = sample_ratio(rng, exclude_one=True)
    return apply_perturbation(PerturbationStructure(kind, n, sample_base(rng, n), delta, gamma))


def _random_simple_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((3, 4, 5, 6, 7, 8, 9)))
    return apply_perturbation(PerturbationStructure(
        kind=PerturbationKind.SIMPLE, n=n, base=sample_base(rng, n),
        delta=sample_ratio(rng, exclude_one=True)))


def _random_apq_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((4, 5, 6, 7, 8)))
    p = sample_ratio(rng)
    return parametric_inefficient(n, p, sample_ratio(rng, exclude_one=True))


# sweep -> (report name, whether every eigenvector must be efficient, matrix drawer)
SWEEPS: dict[str, tuple[str, bool, Callable[[np.random.Generator], Pcm]]] = {
    "double": ("double-perturbed efficiency", True, _random_double_matrix),
    "simple": ("simple-perturbed efficiency", True, _random_simple_matrix),
    "apq": ("parametric family inefficiency", False, _random_apq_matrix),
}
# `verify --theorem` choice -> its sweeps; sweep k runs max(1, samples // 2**k) samples at seed + k
THEOREMS = {"main": ("double", "simple"), "simple": ("simple",), "apq": ("apq",)}


def theorem_sweep(sweep: str, samples: int, seed: int) -> TheoremReport:
    """Judge the eigenvectors of ``samples`` matrices a sweep draws from one seeded RNG.

    Matrices are drawn in blocks of at most ``_STACK_CAP``, and each block's
    eigenvectors are solved one order at a time, orders in order of first
    appearance; power iteration draws nothing, so the matrices are those of
    a one-at-a-time sweep.
    """
    name, efficient, draw = SWEEPS[sweep]
    rng = np.random.default_rng(seed)
    conforming = 0
    for start in range(0, samples, _STACK_CAP):
        ms = [draw(rng) for _ in range(min(_STACK_CAP, samples - start))]
        for n in dict.fromkeys(m.n for m in ms):
            stack = [m for m in ms if m.n == n]
            w = power_iteration_batch(np.array([m.entries for m in stack])).w
            conforming += sum(is_efficient(m, wm).efficient == efficient
                              for m, wm in zip(stack, w))
    return TheoremReport(name, "efficient" if efficient else "inefficient", samples, conforming)


def verify_theorem(theorem: str, samples: int, seed: int) -> list[TheoremReport]:
    """The reports of the sweeps :data:`THEOREMS` lists for ``theorem``, in its order."""
    return [theorem_sweep(sweep, max(1, samples // 2**k), seed + k)
            for k, sweep in enumerate(THEOREMS[theorem])]
