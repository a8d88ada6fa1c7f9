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
from .errors import HypothesisViolatedError
from .generators import parametric_inefficient, sample_base, sample_ratio
from .pcm import (
    CANONICAL_FORMS,
    DOUBLE_KINDS,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    apply_perturbation,
    disjoint_kind,
)
from .spectral import lambda_max_closed_form, CharPolyParams, power_iteration, \
    power_iteration_batch, raw_variant_vector, variant_count

STRICT_MARGIN_FLOOR = 1e-10
EQUALITY_REL_TOL = 1e-9

# Most matrices a sweep solves as one stack.  A sweep holds every pending
# sample and matrix of a stack at once, so the cap bounds its extra memory
# (about 1 MB at 256 on the default lemma sweep); a larger stack saves little
# time per member.
_STACK_CAP = 256

POSITIVITY_CHECK = "positivity"
CYCLE_CHECK = "cycle"


@dataclass(frozen=True)
class LemmaSample:
    """One parameter point inside a lemma's hypothesis region."""

    kind: PerturbationKind
    n: int
    delta: float
    gamma: float
    base: tuple[float, ...]

    def structure(self) -> PerturbationStructure:
        return PerturbationStructure(kind=self.kind, n=self.n, base=self.base,
                                     delta=self.delta, gamma=self.gamma)

    def matrix(self) -> Pcm:
        return apply_perturbation(self.structure())


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

    def record(self, sample: LemmaSample, check: LemmaCheck) -> None:
        self.samples_run += 1
        self.min_margin = min(self.min_margin, check.margin)
        if not check.passed:
            self.violations.append((sample, check.margin))

    @property
    def passed(self) -> bool:
        return self.samples_run > 0 and not self.violations


def _ordered(ratio: float, target: float, direction: float) -> float:
    """Normalized margin of 'ratio vs target' in the expected direction.

    direction > 0: ratio must exceed target; direction < 0: stay below;
    direction == 0: agree within the equality tolerance (margin is the
    unused part of that tolerance).
    """
    if direction > 0:
        return (ratio - target) / target
    if direction < 0:
        return (target - ratio) / target
    return EQUALITY_REL_TOL - abs(ratio - target) / target


def _sign(v: float) -> float:
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class _Lemma:
    lemma_id: str
    kind: PerturbationKind
    hypothesis: Callable[[float, float, int], bool]
    margin: Callable[[LemmaSample, np.ndarray, np.ndarray], float]
    equality: bool = False


def _x(sample: LemmaSample) -> np.ndarray:
    """Base ratios with the numeraire prepended: x[k] is the k-th ratio."""
    return np.concatenate(([1.0], np.asarray(sample.base)))


def _tail_margin(w, x, row: int, first: int, direction: float) -> float:
    """Worst margin of w_row / w_i vs x_{i-1} / x_{row-1}, i = first+1 .. n (1-based)."""
    margins = []
    for i in range(first, len(w)):
        margins.append(_ordered(w[row - 1] / w[i], x[i] / x[row - 1], direction))
    return min(margins)


def _pair_equality(w, x, first: int) -> float:
    """Worst equality margin of w_i / w_j vs x_{j-1} / x_{i-1} over i < j >= first (1-based)."""
    n = len(w)
    margins = []
    for i in range(first, n + 1):
        for j in range(i + 1, n + 1):
            margins.append(_ordered(w[i - 1] / w[j - 1], x[j - 1] / x[i - 1], 0.0))
    return min(margins)


def _build_registry() -> dict[str, _Lemma]:
    c1, c2a, c2b = PerturbationKind.CASE1, PerturbationKind.CASE2A, PerturbationKind.CASE2B
    lemmas = [
        # shared-row case: perturbations at cells (1,2) and (1,3), 1-based
        _Lemma("1a", c1, lambda d, g, n: d > 1 and d >= g,
               lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], -1)),
        _Lemma("1b", c1, lambda d, g, n: d < 1 and d <= g,
               lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], +1)),
        _Lemma("1c", c1, lambda d, g, n: g > 1 and g >= d,
               lambda s, w, x: _ordered(w[0] / w[2], s.gamma * x[2], -1)),
        _Lemma("1d", c1, lambda d, g, n: g < 1 and g <= d,
               lambda s, w, x: _ordered(w[0] / w[2], s.gamma * x[2], +1)),
        _Lemma("1e", c1, lambda d, g, n: d > 1 and g > 1,
               lambda s, w, x: _tail_margin(w, x, 1, 3, +1)),
        _Lemma("1f", c1, lambda d, g, n: d < 1 and g < 1,
               lambda s, w, x: _tail_margin(w, x, 1, 3, -1)),
        _Lemma("1g", c1, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[1] / w[2], x[2] / x[1], _sign(s.gamma - s.delta))),
        _Lemma("1h", c1, lambda d, g, n: True,
               lambda s, w, x: _tail_margin(w, x, 2, 3, _sign(1.0 - s.delta))),
        _Lemma("1i", c1, lambda d, g, n: True,
               lambda s, w, x: _tail_margin(w, x, 3, 3, _sign(1.0 - s.gamma))),
        _Lemma("1j", c1, lambda d, g, n: n >= 5,
               lambda s, w, x: _pair_equality(w, x, 4), equality=True),
        # disjoint-row 4x4 case: perturbations at (1,2) and (3,4)
        _Lemma("2a", c2a, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], _sign(1.0 - s.delta))),
        _Lemma("2b", c2a, lambda d, g, n: d > 1 and g < 1,
               lambda s, w, x: _ordered(w[0] / w[2], x[2], +1)),
        _Lemma("2c", c2a, lambda d, g, n: d < 1 and g > 1,
               lambda s, w, x: _ordered(w[0] / w[2], x[2], -1)),
        _Lemma("2d", c2a, lambda d, g, n: d < 1 and g < 1,
               lambda s, w, x: _ordered(w[0] / w[3], x[3], -1)),
        _Lemma("2e", c2a, lambda d, g, n: d > 1 and g > 1,
               lambda s, w, x: _ordered(w[0] / w[3], x[3], +1)),
        _Lemma("2f", c2a, lambda d, g, n: d < 1 and g < 1,
               lambda s, w, x: _ordered(w[1] / w[2], x[2] / x[1], +1)),
        _Lemma("2g", c2a, lambda d, g, n: d > 1 and g > 1,
               lambda s, w, x: _ordered(w[1] / w[2], x[2] / x[1], -1)),
        _Lemma("2h", c2a, lambda d, g, n: d < 1 and g > 1,
               lambda s, w, x: _ordered(w[1] / w[3], x[3] / x[1], +1)),
        _Lemma("2i", c2a, lambda d, g, n: d > 1 and g < 1,
               lambda s, w, x: _ordered(w[1] / w[3], x[3] / x[1], -1)),
        _Lemma("2j", c2a, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[2] / w[3], s.gamma * x[3] / x[2],
                                        _sign(1.0 - s.gamma))),
        # disjoint-row case of order >= 5
        _Lemma("3a", c2b, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[2] / w[3], s.gamma * x[3] / x[2],
                                        _sign(1.0 - s.gamma))),
        _Lemma("3b", c2b, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], _sign(1.0 - s.delta))),
        _Lemma("3c", c2b, lambda d, g, n: True,
               lambda s, w, x: _tail_margin(w, x, 1, 4, _sign(s.delta - 1.0))),
        _Lemma("3d", c2b, lambda d, g, n: True,
               lambda s, w, x: _tail_margin(w, x, 2, 4, _sign(1.0 - s.delta))),
        _Lemma("3e", c2b, lambda d, g, n: True,
               lambda s, w, x: _tail_margin(w, x, 3, 4, _sign(s.gamma - 1.0))),
        # certified in the stronger three-way forms the proofs establish
        _Lemma("3f", c2b, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[1] / w[3], x[3] / x[1],
                                        _sign(s.gamma - s.delta))),
        _Lemma("3g", c2b, lambda d, g, n: True,
               lambda s, w, x: _ordered(w[0] / w[3], x[3],
                                        _sign(s.gamma * s.delta - 1.0))),
        _Lemma("3h", c2b, lambda d, g, n: n >= 6,
               lambda s, w, x: _pair_equality(w, x, 5), equality=True),
    ]
    return {l.lemma_id: l for l in lemmas}


LEMMAS = _build_registry()
LEMMA_IDS = tuple(LEMMAS)
ALL_CHECK_IDS = LEMMA_IDS + (POSITIVITY_CHECK, CYCLE_CHECK)

# Directed cycles certifying strong connectivity, one per parameter sign
# region (1-based nodes; "i" stands for every contracted trailing node).
CASE1_CYCLES = (
    (lambda d, g: d > 1 and g > d, (1, "i", 2, 3, 1)),
    (lambda d, g: g > 1 and g < d, (1, "i", 3, 2, 1)),
    (lambda d, g: d > 1 and g < 1, (1, 3, "i", 2, 1)),
    (lambda d, g: d < 1 and g < d, (1, 3, 2, "i", 1)),
    (lambda d, g: g < 1 and g > d, (1, 2, 3, "i", 1)),
    (lambda d, g: d < 1 and g > 1, (1, 2, "i", 3, 1)),
)
CASE2A_CYCLES = (
    (lambda d, g: d > 1 and g > 1, (1, 4, 3, 2, 1)),
    (lambda d, g: d > 1 and g < 1, (1, 3, 4, 2, 1)),
    (lambda d, g: d < 1 and g < 1, (1, 2, 3, 4, 1)),
    (lambda d, g: d < 1 and g > 1, (1, 2, 4, 3, 1)),
)
CASE2B_CYCLES = (
    (lambda d, g: d > 1 and g > 1, (1, 4, 3, "i", 2, 1)),
    (lambda d, g: d > 1 and g < 1, (1, "i", 3, 4, 2, 1)),
    (lambda d, g: d < 1 and g < 1, (1, 2, "i", 3, 4, 1)),
    (lambda d, g: d < 1 and g > 1, (1, 2, 4, 3, "i", 1)),
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


def _cycle_margin(sample: LemmaSample, m: Pcm, w: np.ndarray) -> float:
    cycle = region_cycle(sample.kind, sample.delta, sample.gamma)
    arcs = expand_cycle_arcs(cycle, sample.n, sample.kind)
    a = m.entries
    return min((w[u] / w[v] - a[u, v]) / a[u, v] for u, v in arcs)


def _positivity_margin(sample: LemmaSample, lam: float) -> float:
    """Worst normalized entry of the closed-form variant vectors at the root ``lam``."""
    structure = sample.structure()
    margins = []
    for variant in range(variant_count(sample.kind)):
        v = raw_variant_vector(structure, variant, lam)
        margins.append(np.min(v) / np.max(np.abs(v)))
    return float(min(margins))


def _hypothesis_violation(check_id: str, kind: PerturbationKind, n: int,
                          delta: float, gamma: float) -> str | None:
    """Why the point (kind, n, delta, gamma) lies outside the check's hypothesis, or None.

    ``KeyError`` for an unknown check id.
    """
    if kind not in DOUBLE_KINDS:
        return f"sample kind {kind.value!r} is not double-perturbed"
    if not (delta > 0 and gamma > 0) or 1.0 in (delta, gamma):
        return "delta and gamma must be positive and different from 1"
    if check_id == CYCLE_CHECK and kind == PerturbationKind.CASE1 and delta == gamma:
        return "shared-row cycle regions require delta != gamma"
    if check_id in (POSITIVITY_CHECK, CYCLE_CHECK):
        return None
    lemma = LEMMAS.get(check_id)
    if lemma is None:
        raise KeyError(f"unknown check id {check_id!r}")
    if kind != lemma.kind:
        return f"check {check_id} applies to {lemma.kind.value}, sample is {kind.value}"
    if not lemma.hypothesis(delta, gamma, n):
        return f"sample outside the hypothesis region of {check_id}"
    return None


def _check(check_id: str, sample: LemmaSample, m: Pcm | None, w: np.ndarray | None,
           lam: float | None) -> LemmaCheck:
    """One check on a sample inside its hypothesis.

    Lemmas and the cycle check read the matrix ``m`` and eigenvector ``w``;
    the positivity check reads the closed-form root ``lam`` of its grid cell.
    """
    lemma = LEMMAS.get(check_id)
    if lemma is not None:
        margin = float(lemma.margin(sample, w, _x(sample)))
    elif check_id == POSITIVITY_CHECK:
        margin = _positivity_margin(sample, lam)
    else:
        margin = _cycle_margin(sample, m, w)
    floor = 0.0 if lemma is not None and lemma.equality else STRICT_MARGIN_FLOOR
    return LemmaCheck(check_id, margin > floor, margin)


def check_lemma(lemma_id: str, sample: LemmaSample) -> LemmaCheck:
    """Evaluate one check on one sample; margin > 0 means the claim held.

    Builds the sample's matrix and power-iteration eigenvector, or for the
    positivity check the closed-form root.  Raises
    :class:`HypothesisViolatedError` when the base does not fit the order,
    or with the reason of :func:`_hypothesis_violation` (in particular
    whenever delta or gamma equals 1, which no perturbation statement
    covers).
    """
    if len(sample.base) != sample.n - 1:
        raise HypothesisViolatedError("base length does not match the order")
    reason = _hypothesis_violation(lemma_id, sample.kind, sample.n, sample.delta, sample.gamma)
    if reason is not None:
        raise HypothesisViolatedError(reason)
    if lemma_id == POSITIVITY_CHECK:
        lam = lambda_max_closed_form(
            CharPolyParams(sample.kind, sample.n, sample.delta, sample.gamma))
        return _check(lemma_id, sample, None, None, lam)
    m = sample.matrix()
    return _check(lemma_id, sample, m, power_iteration(m).w, None)


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
        region = {kind: min(sum(lem.hypothesis(d, g, n) for n in cls.orders(kind)
                                for d in cls.ratio_values for g in cls.ratio_values)
                            for lem in LEMMAS.values() if lem.kind == kind)
                  for kind in DOUBLE_KINDS}
        case2a = region.pop(PerturbationKind.CASE2A)
        return cls(bases_per_cell=max(1, math.ceil(samples / min(region.values()))),
                   bases_per_cell_case2a=max(1, math.ceil(samples / case2a)))


def _eigenvectors(ms: list[Pcm]) -> list[np.ndarray]:
    """Power-iteration eigenvectors of ``ms`` in input order, one stack per order."""
    ws = [None] * len(ms)
    by_order = {}
    for i, m in enumerate(ms):
        by_order.setdefault(m.n, []).append(i)
    for idx in by_order.values():
        for i, w in zip(idx, power_iteration_batch([ms[i] for i in idx]).w):
            ws[i] = w
    return ws


def _record(pending: list, reports: dict[str, LemmaReport]) -> None:
    """Solve the pending samples' matrices as one stack, then record their checks in draw order.

    Each entry is (sample, held check ids, closed-form root or None, matrix
    or None); a sample whose held checks read no matrix carries none.
    """
    ws = iter(_eigenvectors([m for *_, m in pending if m is not None]))
    for sample, held, lam, m in pending:
        w = None if m is None else next(ws)
        for check_id in held:
            reports[check_id].record(sample, _check(check_id, sample, m, w, lam))


def run_lemma_suite(grid: SuiteGrid | None = None, seed: int = 0,
                    check_ids: Sequence[str] = ALL_CHECK_IDS) -> list[LemmaReport]:
    """Sweep the requested checks over their hypothesis regions of the grid.

    Each sample's matrix is built once, when a requested check reads it,
    and shared by the checks whose hypothesis holds in its grid cell; the
    eigenvectors of one order are solved as one stack.  The closed-form root, which depends on the
    cell alone, is solved once per cell.  Every base is drawn whichever
    checks are requested, so a subset reports exactly what the full sweep
    reports for it.  Reports come back in registry order followed by the
    positivity and cycle checks; the run is a pure function of the grid,
    seed and check ids.  ``ValueError`` for an unknown check id.
    """
    unknown = [check_id for check_id in check_ids if check_id not in ALL_CHECK_IDS]
    if unknown:
        raise ValueError(f"unknown check ids {unknown}")
    grid = grid or SuiteGrid()
    rng = np.random.default_rng(seed)
    reports = {check_id: LemmaReport(check_id) for check_id in ALL_CHECK_IDS
               if check_id in check_ids}

    for kind in DOUBLE_KINDS:
        kind_ids = [check_id for check_id in reports
                    if check_id not in LEMMAS or LEMMAS[check_id].kind == kind]
        for n in grid.orders(kind):
            pending = []
            for delta in grid.ratio_values:
                for gamma in grid.ratio_values:
                    held = [check_id for check_id in kind_ids
                            if _hypothesis_violation(check_id, kind, n, delta, gamma) is None]
                    lam = (lambda_max_closed_form(CharPolyParams(kind, n, delta, gamma))
                           if POSITIVITY_CHECK in held else None)
                    reads_matrix = any(check_id != POSITIVITY_CHECK for check_id in held)
                    for _ in range(grid.bases(kind)):
                        sample = LemmaSample(kind, n, delta, gamma, sample_base(rng, n))
                        if not held:
                            continue
                        pending.append((sample, held, lam,
                                        sample.matrix() if reads_matrix else None))
                        if len(pending) == _STACK_CAP:
                            _record(pending, reports)
                            pending = []
            _record(pending, reports)
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
        conforming += sum(is_efficient(m, w).efficient == efficient
                          for m, w in zip(ms, _eigenvectors(ms)))
    return TheoremReport(name, "efficient" if efficient else "inefficient", samples, conforming)


def _random_double_matrix(rng: np.random.Generator) -> Pcm:
    n = int(rng.choice((4, 5, 6, 7, 8, 9)))
    kind = PerturbationKind.CASE1 if rng.random() < 0.5 else disjoint_kind(n)
    return LemmaSample(kind, n,
                       sample_ratio(rng, 1 / 9, 9, exclude_one=True),
                       sample_ratio(rng, 1 / 9, 9, exclude_one=True),
                       sample_base(rng, n)).matrix()


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
