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

from dataclasses import dataclass, field
from typing import Callable

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
    raw_variant_vector, variant_count

STRICT_MARGIN_FLOOR = 1e-10
EQUALITY_REL_TOL = 1e-9

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


def _nondegenerate(d: float, g: float) -> bool:
    return d > 0 and g > 0 and d != 1.0 and g != 1.0


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


def _cycle_margin(sample: LemmaSample, w: np.ndarray) -> float:
    cycle = region_cycle(sample.kind, sample.delta, sample.gamma)
    arcs = expand_cycle_arcs(cycle, sample.n, sample.kind)
    a = sample.matrix().entries
    return min((w[u] / w[v] - a[u, v]) / a[u, v] for u, v in arcs)


def _positivity_margin(sample: LemmaSample) -> float:
    structure = sample.structure()
    lam = lambda_max_closed_form(
        CharPolyParams(sample.kind, sample.n, sample.delta, sample.gamma))
    margins = []
    for variant in range(variant_count(sample.kind)):
        v = raw_variant_vector(structure, variant, lam)
        margins.append(np.min(v) / np.max(np.abs(v)))
    return float(min(margins))


def _validate_sample(sample: LemmaSample) -> None:
    if sample.kind not in DOUBLE_KINDS:
        raise HypothesisViolatedError(f"sample kind {sample.kind.value!r} is not double-perturbed")
    if len(sample.base) != sample.n - 1:
        raise HypothesisViolatedError("base length does not match the order")


def check_lemma(lemma_id: str, sample: LemmaSample, w: np.ndarray | None = None) -> LemmaCheck:
    """Evaluate one check on one sample; margin > 0 means the claim held.

    ``w`` may carry a precomputed power-iteration eigenvector for the
    sample's matrix so a suite can share it across checks.  Raises
    :class:`HypothesisViolatedError` when the sample is outside the
    check's hypothesis region (in particular whenever delta or gamma
    equals 1, which no perturbation statement covers).
    """
    _validate_sample(sample)
    d, g, n = sample.delta, sample.gamma, sample.n
    if not _nondegenerate(d, g):
        raise HypothesisViolatedError("delta and gamma must be positive and different from 1")

    if lemma_id == POSITIVITY_CHECK:
        margin = _positivity_margin(sample)
        return LemmaCheck(lemma_id, margin > STRICT_MARGIN_FLOOR, margin)

    if lemma_id == CYCLE_CHECK:
        if sample.kind == PerturbationKind.CASE1 and d == g:
            raise HypothesisViolatedError("shared-row cycle regions require delta != gamma")
        if w is None:
            w = power_iteration(sample.matrix()).w
        margin = _cycle_margin(sample, w)
        return LemmaCheck(lemma_id, margin > STRICT_MARGIN_FLOOR, margin)

    lemma = LEMMAS.get(lemma_id)
    if lemma is None:
        raise KeyError(f"unknown check id {lemma_id!r}")
    if sample.kind != lemma.kind:
        raise HypothesisViolatedError(
            f"check {lemma_id} applies to {lemma.kind.value}, sample is {sample.kind.value}")
    if not lemma.hypothesis(d, g, n):
        raise HypothesisViolatedError(f"sample outside the hypothesis region of {lemma_id}")
    if w is None:
        w = power_iteration(sample.matrix()).w
    margin = float(lemma.margin(sample, w, _x(sample)))
    floor = 0.0 if lemma.equality else STRICT_MARGIN_FLOOR
    return LemmaCheck(lemma_id, margin > floor, margin)


@dataclass(frozen=True)
class SuiteGrid:
    """Deterministic sweep: ratio grid x orders x seeded random bases.

    The 4x4 disjoint-row case gets more bases per cell because its
    quadrant-restricted statements see only a quarter of the ratio grid
    and must still accumulate a meaningful sample count.
    """

    ratio_values: tuple[float, ...] = (1 / 9, 1 / 5, 1 / 2, 0.9, 1.1, 2.0, 5.0, 9.0)
    orders_case1: tuple[int, ...] = (4, 5, 6, 7, 8)
    orders_case2b: tuple[int, ...] = (5, 6, 7, 8)
    bases_per_cell: int = 20
    bases_per_cell_case2a: int = 64
    base_range: tuple[float, float] = (1 / 9, 9.0)

    def orders(self, kind: PerturbationKind) -> tuple[int, ...]:
        form = CANONICAL_FORMS[kind]
        if form.max_order is not None:    # a form of bounded order: sweep all of them
            return tuple(range(form.min_order, form.max_order + 1))
        return self.orders_case1 if kind == PerturbationKind.CASE1 else self.orders_case2b

    def bases(self, kind: PerturbationKind) -> int:
        if kind == PerturbationKind.CASE2A:
            return self.bases_per_cell_case2a
        return self.bases_per_cell


def run_lemma_suite(grid: SuiteGrid | None = None, seed: int = 0) -> list[LemmaReport]:
    """Sweep every check over its hypothesis region of the grid.

    One eigenvector is computed per sample matrix and shared by all checks
    that accept the sample.  Reports come back in registry order followed
    by the positivity and cycle checks; the run is a pure function of the
    grid and seed.
    """
    grid = grid or SuiteGrid()
    rng = np.random.default_rng(seed)
    reports = {check_id: LemmaReport(check_id) for check_id in ALL_CHECK_IDS}

    for kind in DOUBLE_KINDS:
        lemma_ids = [lid for lid, lem in LEMMAS.items() if lem.kind == kind]
        for n in grid.orders(kind):
            for delta in grid.ratio_values:
                for gamma in grid.ratio_values:
                    for _ in range(grid.bases(kind)):
                        base = sample_base(rng, n, grid.base_range)
                        sample = LemmaSample(kind, n, delta, gamma, base)
                        w = power_iteration(sample.matrix()).w
                        for lemma_id in lemma_ids + [POSITIVITY_CHECK, CYCLE_CHECK]:
                            try:
                                check = check_lemma(lemma_id, sample, w)
                            except HypothesisViolatedError:
                                continue
                            reports[lemma_id].record(sample, check)
    return [reports[check_id] for check_id in ALL_CHECK_IDS]


@dataclass
class TheoremReport:
    """Count of samples conforming to a predicted verdict."""

    name: str
    expected: str
    samples: int = 0
    conforming: int = 0
    failures: list = field(default_factory=list)

    def record(self, conforms: bool, detail) -> None:
        self.samples += 1
        if conforms:
            self.conforming += 1
        elif len(self.failures) < 20:
            self.failures.append(detail)

    @property
    def passed(self) -> bool:
        return self.samples > 0 and self.conforming == self.samples


def _random_double_sample(rng: np.random.Generator, orders=(4, 5, 6, 7, 8, 9)) -> LemmaSample:
    n = int(rng.choice(orders))
    kind = PerturbationKind.CASE1 if rng.random() < 0.5 else disjoint_kind(n)
    return LemmaSample(kind, n,
                       sample_ratio(rng, 1 / 9, 9, exclude_one=True),
                       sample_ratio(rng, 1 / 9, 9, exclude_one=True),
                       sample_base(rng, n))


def verify_double_perturbed_efficiency(samples: int = 1000, seed: int = 0) -> TheoremReport:
    """Eigenvectors of random double-perturbed matrices must all be efficient."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("double-perturbed efficiency", expected="efficient")
    for _ in range(samples):
        sample = _random_double_sample(rng)
        m = sample.matrix()
        verdict = is_efficient(m, power_iteration(m).w)
        report.record(verdict.efficient, sample)
    return report


def verify_simple_perturbed_efficiency(samples: int = 500, seed: int = 0) -> TheoremReport:
    """Eigenvectors of random one-cell-perturbed matrices must all be efficient."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("simple-perturbed efficiency", expected="efficient")
    for _ in range(samples):
        n = int(rng.choice((3, 4, 5, 6, 7, 8, 9)))
        structure = PerturbationStructure(
            kind=PerturbationKind.SIMPLE, n=n, base=sample_base(rng, n),
            delta=sample_ratio(rng, 1 / 9, 9, exclude_one=True))
        m = apply_perturbation(structure)
        verdict = is_efficient(m, power_iteration(m).w)
        report.record(verdict.efficient, structure)
    return report


def verify_parametric_inefficiency(samples: int = 100, seed: int = 0) -> TheoremReport:
    """Eigenvectors of the parametric family must all be inefficient."""
    rng = np.random.default_rng(seed)
    report = TheoremReport("parametric family inefficiency", expected="inefficient")
    for _ in range(samples):
        n = int(rng.choice((4, 5, 6, 7, 8)))
        p = sample_ratio(rng, 1 / 9, 9)
        q = sample_ratio(rng, 1 / 9, 9, exclude_one=True)
        m = parametric_inefficient(n, p, q)
        verdict = is_efficient(m, power_iteration(m).w)
        report.record(not verdict.efficient, (n, p, q))
    return report


def verify_main_theorem(samples: int = 1000, seed: int = 0) -> list[TheoremReport]:
    """Efficiency of double-perturbed eigenvectors, plus the simple-perturbed case."""
    return [
        verify_double_perturbed_efficiency(samples, seed),
        verify_simple_perturbed_efficiency(max(1, samples // 2), seed + 1),
    ]
