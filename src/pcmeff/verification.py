"""Numeric certification of the perturbed-matrix inequalities and theorems.

Each check pits the eigenvector obtained by power iteration (never the
closed forms, so the certification path is independent of the algebra the
statements came from) against a comparison between one weight ratio and
one matrix entry.  Strict statements must hold with a strictly positive
normalized margin, equality statements within a relative tolerance.  The
suite runner sweeps a deterministic parameter grid and reports per-check
sample counts, violations and the worst margin seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .efficiency import is_efficient
from .errors import HypothesisViolatedError, InvalidCaseError
from .generators import parametric_inefficient, sample_base, sample_bases, sample_ratio
from .pcm import (
    CANONICAL_FORMS,
    DOUBLE_KINDS,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    apply_perturbation,
    canonical_entries,
    disjoint_kind,
    validate_entries,
)
# Nothing here calls power_iteration or raw_variant_vector; bench/spans.py wraps them here.
from .spectral import form_terms, lambda_max_closed_form, power_iteration, \
    power_iteration_batch, raw_variant_vector, variant_vectors  # noqa: F401

STRICT_MARGIN_FLOOR = 1e-10
EQUALITY_REL_TOL = 1e-9

# Most matrices a sweep solves as one stack.  A sweep holds the matrices of
# a stack at once, so the cap bounds its extra memory (about 1 MB at 256 on
# the default lemma sweep); a larger stack saves little time per member.
_STACK_CAP = 256

POSITIVITY_CHECK = "positivity"
CYCLE_CHECK = "cycle"


@dataclass(frozen=True)
class LemmaCheck:
    lemma_id: str
    passed: bool
    margin: float


@dataclass
class LemmaReport:
    """Aggregate outcome of one check over many samples."""

    lemma_id: str
    samples_run: int = 0
    violations: list = field(default_factory=list)
    min_margin: float = np.inf

    def record(self, kind: PerturbationKind, x: np.ndarray, delta: np.ndarray,
               gamma: np.ndarray, margins: np.ndarray) -> None:
        """Count a stack of samples and their margins; violations keep the stack's order.

        Sample ``k`` has x = (1, base) in row ``k`` of ``x`` and factors
        ``delta[k]`` and ``gamma[k]``; only a violation becomes a structure.
        """
        lemma = LEMMAS.get(self.lemma_id)
        floor = 0.0 if lemma is not None and lemma.equality else STRICT_MARGIN_FLOOR
        self.samples_run += len(margins)
        self.min_margin = min(self.min_margin, float(margins.min()))
        self.violations += [(PerturbationStructure(kind, x.shape[1], tuple(x[k, 1:].tolist()),
                                                   float(delta[k]), float(gamma[k])),
                             float(margins[k])) for k in np.flatnonzero(~(margins > floor))]

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
    """A statement; ``margin(w, x, delta, gamma)`` maps a stack of samples to their margins."""

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

# Directed cycles certifying strong connectivity, one per parameter sign
# region (1-based nodes; "i" stands for every contracted trailing node).
# Each region's predicate is elementwise, like a lemma's hypothesis.
CASE1_CYCLES = (
    (lambda d, g: (d > 1) & (g > d), (1, "i", 2, 3, 1)),
    (lambda d, g: (g > 1) & (g < d), (1, "i", 3, 2, 1)),
    (lambda d, g: (d > 1) & (g < 1), (1, 3, "i", 2, 1)),
    (lambda d, g: (d < 1) & (g < d), (1, 3, 2, "i", 1)),
    (lambda d, g: (g < 1) & (g > d), (1, 2, 3, "i", 1)),
    (lambda d, g: (d < 1) & (g > 1), (1, 2, "i", 3, 1)),
)
CASE2A_CYCLES = (
    (lambda d, g: (d > 1) & (g > 1), (1, 4, 3, 2, 1)),
    (lambda d, g: (d > 1) & (g < 1), (1, 3, 4, 2, 1)),
    (lambda d, g: (d < 1) & (g < 1), (1, 2, 3, 4, 1)),
    (lambda d, g: (d < 1) & (g > 1), (1, 2, 4, 3, 1)),
)
CASE2B_CYCLES = (
    (lambda d, g: (d > 1) & (g > 1), (1, 4, 3, "i", 2, 1)),
    (lambda d, g: (d > 1) & (g < 1), (1, "i", 3, 4, 2, 1)),
    (lambda d, g: (d < 1) & (g < 1), (1, 2, "i", 3, 4, 1)),
    (lambda d, g: (d < 1) & (g > 1), (1, 2, 4, 3, "i", 1)),
)
_CYCLES = {
    PerturbationKind.CASE1: CASE1_CYCLES,
    PerturbationKind.CASE2A: CASE2A_CYCLES,
    PerturbationKind.CASE2B: CASE2B_CYCLES,
}


def region_cycle(kind: PerturbationKind, delta: float, gamma: float) -> tuple:
    """The certifying cycle for the sample's sign region (1-based nodes)."""
    for predicate, cycle in _CYCLES[kind]:
        if predicate(delta, gamma):
            return cycle
    raise HypothesisViolatedError(
        f"no sign region matches delta={delta}, gamma={gamma} for {kind.value}")


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


def _cycle_margins(kind: PerturbationKind, w, a, delta, gamma) -> np.ndarray:
    """Worst normalized slack of w_u / w_v over a_uv along each sample's region cycle.

    A row that no region's predicate covers keeps a NaN margin: a violation.
    """
    margins = np.full(len(w), np.nan)
    for predicate, cycle in _CYCLES[kind]:
        rows = np.flatnonzero(predicate(delta, gamma))
        u, v = np.array(expand_cycle_arcs(cycle, w.shape[1], kind)).T
        entries = a[rows][:, u, v]
        margins[rows] = ((w[rows][:, u] / w[rows][:, v] - entries) / entries).min(axis=1)
    return margins


def _holds(check_id: str, kind: PerturbationKind, n: int, delta, gamma):
    """Where a known check's hypothesis holds on floats or arrays of factors, elementwise.

    No statement covers a factor equal to 1, and ``kind`` must be double-perturbed; the
    cycle check needs a sign region of its kind, a lemma its own kind and region.
    """
    held = (delta != 1.0) & (gamma != 1.0)
    if check_id == CYCLE_CHECK:
        return held & np.logical_or.reduce([region(delta, gamma) for region, _ in _CYCLES[kind]])
    lemma = LEMMAS.get(check_id)
    if lemma is None:
        return held
    return held & (lemma.kind == kind) & lemma.hypothesis(delta, gamma, n)


def check_lemma(lemma_id: str, sample: PerturbationStructure) -> LemmaCheck:
    """Evaluate one check on one sample; margin > 0 means the claim held.

    The sweep on one grid cell with one base.  ``ValueError`` for an unknown
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
    if sample.base is None:
        raise InvalidCaseError("structure must carry a base vector")
    report = LemmaReport(lemma_id)
    _sweep_cells({lemma_id: report}, kind, np.array([delta]), np.array([gamma]),
                 np.array([(1.0,) + tuple(sample.base)]))
    return LemmaCheck(lemma_id, report.passed, report.min_margin)


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
        delta, gamma = np.meshgrid(cls.ratio_values, cls.ratio_values)
        region = {kind: min(sum(int(_holds(lem.lemma_id, kind, n, delta, gamma).sum())
                                for n in cls.orders(kind))
                            for lem in LEMMAS.values() if lem.kind == kind)
                  for kind in DOUBLE_KINDS}
        case2a = region.pop(PerturbationKind.CASE2A)
        return cls(bases_per_cell=max(1, math.ceil(samples / min(region.values()))),
                   bases_per_cell_case2a=max(1, math.ceil(samples / case2a)))


def _record(reports: dict[str, LemmaReport], check_ids: list[str], kind: PerturbationKind,
            x: np.ndarray, delta: np.ndarray, gamma: np.ndarray, held: np.ndarray) -> None:
    """Build, validate and solve a stack of matrices, then record each check on its samples.

    Sample ``k`` has x = (1, base) in row ``k`` of ``x`` and factors
    ``delta[k]`` and ``gamma[k]``; ``held[k, c]`` says whether
    ``check_ids[c]``, a lemma or the cycle check, holds in its grid cell.
    """
    a = canonical_entries(kind, x[:, 1:], delta, gamma)
    validate_entries(a)
    w = power_iteration_batch(a).w
    for check_id, rows in zip(check_ids, held.T):
        k = np.flatnonzero(rows)
        if not k.size:
            continue
        lemma = LEMMAS.get(check_id)
        reports[check_id].record(kind, x[k], delta[k], gamma[k], (
            lemma.margin(w[k], x[k], delta[k], gamma[k]) if lemma is not None
            else _cycle_margins(kind, w[k], a[k], delta[k], gamma[k])))


def _sweep_cells(reports: dict[str, LemmaReport], kind: PerturbationKind, delta: np.ndarray,
                 gamma: np.ndarray, x: np.ndarray) -> None:
    """Record the requested checks on the samples of grid cells of one kind and order.

    Cell ``c`` has factors ``delta[c]`` and ``gamma[c]``, and row ``k`` of
    ``x``, (1, base) of sample ``k``, belongs to cell ``k // count`` for
    ``count`` rows per cell.  Each hypothesis is one mask over the cells, and
    the closed-form root and its powers are taken once per held cell, in
    Python floats.  Every check runs on stacks of at most ``_STACK_CAP``
    samples; positivity, the worst normalized entry of the closed-form
    variant vectors, reads no matrix.
    """
    n, cell = x.shape[1], np.arange(len(x)) // (len(x) // len(delta))
    row_delta, row_gamma = delta[cell], gamma[cell]
    if POSITIVITY_CHECK in reports:
        held = _holds(POSITIVITY_CHECK, kind, n, delta, gamma)
        # a (9, cells) table of form terms, filled in the held cells' columns
        terms = np.zeros((9, len(delta)))
        for c in np.flatnonzero(held):
            point = PerturbationStructure(kind, n, delta=float(delta[c]), gamma=float(gamma[c]))
            terms[:, c] = form_terms(point.delta, point.gamma, lambda_max_closed_form(point))
        rows = np.flatnonzero(held[cell])
        for start in range(0, len(rows), _STACK_CAP):
            k = rows[start:start + _STACK_CAP]
            v = variant_vectors(kind, x[k].T, terms[:, cell[k]])
            margins = (np.min(v, axis=1) / np.max(np.abs(v), axis=1)).min(axis=0)
            reports[POSITIVITY_CHECK].record(kind, x[k], row_delta[k], row_gamma[k], margins)
    matrix_ids = [check_id for check_id in reports if check_id != POSITIVITY_CHECK
                  and (check_id not in LEMMAS or LEMMAS[check_id].kind == kind)]
    held = np.array([_holds(check_id, kind, n, delta, gamma) for check_id in matrix_ids],
                    dtype=bool).reshape(len(matrix_ids), len(delta)).T[cell]
    rows = np.flatnonzero(held.any(axis=1))
    for start in range(0, len(rows), _STACK_CAP):
        k = rows[start:start + _STACK_CAP]
        _record(reports, matrix_ids, kind, x[k], row_delta[k], row_gamma[k], held[k])


def run_lemma_suite(grid: SuiteGrid | None = None, seed: int = 0,
                    check_ids: Sequence[str] = ALL_CHECK_IDS) -> list[LemmaReport]:
    """Sweep the requested checks over their hypothesis regions of the grid.

    Each check is one array expression over a stack of samples, and a
    sample is a row of bases and factors, not an object (see
    :func:`_sweep_cells`).  Every base is drawn whichever checks are
    requested, so a subset reports exactly what the full sweep reports for
    it.  Reports come back in registry order followed by the positivity and
    cycle checks, violations in draw order; the run is a pure function of
    the grid, seed and check ids.  ``ValueError`` for an unknown check id.
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
    for kind in DOUBLE_KINDS:
        for n in grid.orders(kind):
            x = np.ones((len(delta) * grid.bases(kind), n))
            x[:, 1:] = sample_bases(rng, n, len(x))
            _sweep_cells(reports, kind, delta, gamma, x)
    return list(reports.values())


@dataclass(frozen=True)
class TheoremReport:
    """Count of samples conforming to a predicted verdict."""

    name: str
    expected: str
    samples: int
    conforming: int

    @property
    def passed(self) -> bool:
        return self.samples > 0 and self.conforming == self.samples


def _theorem_sweep(name: str, efficient: bool, draw: Callable[[np.random.Generator], Pcm],
                   samples: int, seed: int) -> TheoremReport:
    """Judge the eigenvectors of ``samples`` matrices ``draw`` builds from one seeded RNG.

    Matrices are drawn in stacks of at most ``_STACK_CAP``, and each stack's
    eigenvectors are solved by order; power iteration draws nothing, so the
    matrices are those of a one-at-a-time sweep.
    """
    rng = np.random.default_rng(seed)
    conforming = 0
    for start in range(0, samples, _STACK_CAP):
        ms = [draw(rng) for _ in range(min(_STACK_CAP, samples - start))]
        for n in {m.n for m in ms}:
            stack = [m for m in ms if m.n == n]
            w = power_iteration_batch(np.array([m.entries for m in stack])).w
            conforming += sum(is_efficient(m, wm).efficient == efficient
                              for m, wm in zip(stack, w))
    return TheoremReport(name, "efficient" if efficient else "inefficient", samples, conforming)


def _random_double_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((4, 5, 6, 7, 8, 9)))
    kind = PerturbationKind.CASE1 if rng.random() < 0.5 else disjoint_kind(n)
    delta = sample_ratio(rng, 1 / 9, 9, exclude_one=True)
    gamma = sample_ratio(rng, 1 / 9, 9, exclude_one=True)
    return apply_perturbation(PerturbationStructure(kind, n, sample_base(rng, n), delta, gamma))


def _random_simple_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((3, 4, 5, 6, 7, 8, 9)))
    return apply_perturbation(PerturbationStructure(
        kind=PerturbationKind.SIMPLE, n=n, base=sample_base(rng, n),
        delta=sample_ratio(rng, 1 / 9, 9, exclude_one=True)))


def _random_apq_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((4, 5, 6, 7, 8)))
    p = sample_ratio(rng, 1 / 9, 9)
    return parametric_inefficient(n, p, sample_ratio(rng, 1 / 9, 9, exclude_one=True))


def verify_double_perturbed_efficiency(samples: int = 1000, seed: int = 0) -> TheoremReport:
    """Eigenvectors of random double-perturbed matrices must all be efficient."""
    return _theorem_sweep("double-perturbed efficiency", True, _random_double_matrix,
                          samples, seed)


def verify_simple_perturbed_efficiency(samples: int = 500, seed: int = 0) -> TheoremReport:
    """Eigenvectors of random one-cell-perturbed matrices must all be efficient."""
    return _theorem_sweep("simple-perturbed efficiency", True, _random_simple_matrix,
                          samples, seed)


def verify_parametric_inefficiency(samples: int = 100, seed: int = 0) -> TheoremReport:
    """Eigenvectors of the parametric family must all be inefficient."""
    return _theorem_sweep("parametric family inefficiency", False, _random_apq_matrix,
                          samples, seed)


def verify_main_theorem(samples: int = 1000, seed: int = 0) -> list[TheoremReport]:
    """Efficiency of double-perturbed eigenvectors, plus the simple-perturbed case."""
    return [
        verify_double_perturbed_efficiency(samples, seed),
        verify_simple_perturbed_efficiency(max(1, samples // 2), seed + 1),
    ]
