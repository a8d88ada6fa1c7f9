"""The stacked lemma sweep against the per-sample check path it replaced.

The reference below is that per-sample path: one scalar margin per sample
and check, through the scalar lemma lambdas, ``_ordered``,
``_positivity_margin`` and ``_cycle_margin``, with the variant vectors
evaluated on a one-dimensional x.  Every margin must agree to the bit,
sign of zero included.
"""

import math

import numpy as np
import pytest

from pcmeff import PerturbationKind, PerturbationStructure, SuiteGrid, apply_perturbation, \
    check_lemma, power_iteration, run_lemma_suite
from pcmeff import spectral, verification
from pcmeff.generators import sample_base
from pcmeff.pcm import DOUBLE_KINDS
from pcmeff.spectral import lambda_max_closed_form, lambda_max_closed_forms
from pcmeff.verification import (
    ALL_CHECK_IDS,
    EQUALITY_REL_TOL,
    LEMMAS,
    POSITIVITY_CHECK,
    expand_cycle_arcs,
)

from conftest import region_cycle

SMALL_GRID = SuiteGrid(bases_per_cell=1, bases_per_cell_case2a=4)


# ------------------------------------------------------- per-sample reference

def _ordered(ratio, target, direction):
    if direction > 0:
        return (ratio - target) / target
    if direction < 0:
        return (target - ratio) / target
    return EQUALITY_REL_TOL - abs(ratio - target) / target


def _sign(v):
    return (v > 0) - (v < 0)


def _tail_margin(w, x, row, first, direction):
    return min([_ordered(w[row - 1] / w[i], x[i] / x[row - 1], direction)
                for i in range(first, len(w))])


def _pair_equality(w, x, first):
    n = len(w)
    return min([_ordered(w[i - 1] / w[j - 1], x[j - 1] / x[i - 1], 0.0)
                for i in range(first, n + 1) for j in range(i + 1, n + 1)])


MARGINS = {
    "1a": lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], -1),
    "1b": lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], +1),
    "1c": lambda s, w, x: _ordered(w[0] / w[2], s.gamma * x[2], -1),
    "1d": lambda s, w, x: _ordered(w[0] / w[2], s.gamma * x[2], +1),
    "1e": lambda s, w, x: _tail_margin(w, x, 1, 3, +1),
    "1f": lambda s, w, x: _tail_margin(w, x, 1, 3, -1),
    "1g": lambda s, w, x: _ordered(w[1] / w[2], x[2] / x[1], _sign(s.gamma - s.delta)),
    "1h": lambda s, w, x: _tail_margin(w, x, 2, 3, _sign(1.0 - s.delta)),
    "1i": lambda s, w, x: _tail_margin(w, x, 3, 3, _sign(1.0 - s.gamma)),
    "1j": lambda s, w, x: _pair_equality(w, x, 4),
    "2a": lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], _sign(1.0 - s.delta)),
    "2b": lambda s, w, x: _ordered(w[0] / w[2], x[2], +1),
    "2c": lambda s, w, x: _ordered(w[0] / w[2], x[2], -1),
    "2d": lambda s, w, x: _ordered(w[0] / w[3], x[3], -1),
    "2e": lambda s, w, x: _ordered(w[0] / w[3], x[3], +1),
    "2f": lambda s, w, x: _ordered(w[1] / w[2], x[2] / x[1], +1),
    "2g": lambda s, w, x: _ordered(w[1] / w[2], x[2] / x[1], -1),
    "2h": lambda s, w, x: _ordered(w[1] / w[3], x[3] / x[1], +1),
    "2i": lambda s, w, x: _ordered(w[1] / w[3], x[3] / x[1], -1),
    "2j": lambda s, w, x: _ordered(w[2] / w[3], s.gamma * x[3] / x[2], _sign(1.0 - s.gamma)),
    "3a": lambda s, w, x: _ordered(w[2] / w[3], s.gamma * x[3] / x[2], _sign(1.0 - s.gamma)),
    "3b": lambda s, w, x: _ordered(w[0] / w[1], s.delta * x[1], _sign(1.0 - s.delta)),
    "3c": lambda s, w, x: _tail_margin(w, x, 1, 4, _sign(s.delta - 1.0)),
    "3d": lambda s, w, x: _tail_margin(w, x, 2, 4, _sign(1.0 - s.delta)),
    "3e": lambda s, w, x: _tail_margin(w, x, 3, 4, _sign(s.gamma - 1.0)),
    "3f": lambda s, w, x: _ordered(w[1] / w[3], x[3] / x[1], _sign(s.gamma - s.delta)),
    "3g": lambda s, w, x: _ordered(w[0] / w[3], x[3], _sign(s.gamma * s.delta - 1.0)),
    "3h": lambda s, w, x: _pair_equality(w, x, 5),
}


def _x(sample):
    return np.concatenate(([1.0], np.asarray(sample.base)))


def _cycle_margin(sample, m, w):
    cycle = region_cycle(sample.kind, sample.delta, sample.gamma)
    arcs = expand_cycle_arcs(cycle, sample.n, sample.kind)
    a = m.entries
    return min((w[u] / w[v] - a[u, v]) / a[u, v] for u, v in arcs)


def _positivity_margin(sample, lam):
    # one-dimensional: the scalar evaluation of each form
    vectors = [spectral.raw_variant_vector(sample, v, lam)
               for v in range(spectral.variant_count(sample.kind))]
    return float(min(np.min(v) / np.max(np.abs(v)) for v in vectors))


def reference_check(check_id, sample, m, w, lam):
    """(passed, margin) of one check on one sample, as the per-sample path computed it."""
    if check_id in MARGINS:
        margin = float(MARGINS[check_id](sample, w, _x(sample)))
    elif check_id == POSITIVITY_CHECK:
        margin = _positivity_margin(sample, lam)
    else:
        margin = float(_cycle_margin(sample, m, w))
    lemma = LEMMAS.get(check_id)
    floor = 0.0 if lemma is not None and lemma.equality else verification.STRICT_MARGIN_FLOOR
    return margin > floor, margin


def reference_suite(grid, seed):
    """Per check: (samples, min_margin, violations), sample by sample in draw order."""
    rng = np.random.default_rng(seed)
    reports = {check_id: [0, math.inf, []] for check_id in ALL_CHECK_IDS}
    for kind in DOUBLE_KINDS:
        for n in grid.orders(kind):
            for delta in grid.ratio_values:
                for gamma in grid.ratio_values:
                    held = [check_id for check_id in ALL_CHECK_IDS
                            if verification._holds(check_id, kind, n, delta, gamma)]
                    lam = (float(lambda_max_closed_forms([(kind, n, delta, gamma)])[0])
                           if POSITIVITY_CHECK in held else None)
                    for _ in range(grid.bases(kind)):
                        sample = PerturbationStructure(kind, n, sample_base(rng, n), delta, gamma)
                        m = apply_perturbation(sample)
                        w = power_iteration(m).w
                        for check_id in held:
                            passed, margin = reference_check(check_id, sample, m, w, lam)
                            report = reports[check_id]
                            report[0] += 1
                            report[1] = min(report[1], margin)
                            if not passed:
                                report[2].append((sample, margin))
    return reports


def bits(samples, min_margin, violations):
    """Hex of every margin, so that -0.0 and +0.0 differ."""
    return samples, float(min_margin).hex(), [(s, float(v).hex()) for s, v in violations]


# ---------------------------------------------------------------------- tests

@pytest.mark.parametrize("grid, seed", [(SMALL_GRID, 1), (SMALL_GRID, 4),
                                        (SuiteGrid.for_samples(64), 42),
                                        (SuiteGrid(bases_per_cell=2, bases_per_cell_case2a=3), 5)])
def test_stacked_sweep_equals_the_per_sample_path(monkeypatch, grid, seed):
    # a floor above the smallest strict margins sends samples down the violation path
    monkeypatch.setattr(verification, "STRICT_MARGIN_FLOOR", 1e-2)
    reference = reference_suite(grid, seed)
    reports = run_lemma_suite(grid, seed)
    assert [r.lemma_id for r in reports] == list(ALL_CHECK_IDS)
    assert sum(len(r.violations) for r in reports) > 0
    # a kind's orders are recorded as one padded stack: violations at several of its
    # orders show that each keeps its own order and base
    for kind in (PerturbationKind.CASE1, PerturbationKind.CASE2B):
        assert len({s.n for r in reports for s, _ in r.violations if s.kind == kind}) >= 2, kind
    for r in reports:
        assert bits(r.samples_run, r.min_margin, r.violations) == bits(*reference[r.lemma_id]), \
            r.lemma_id


@pytest.mark.parametrize("kind, n, delta, gamma", [
    (PerturbationKind.CASE1, 5, 2.0, 2.0),      # 1g: delta == gamma
    (PerturbationKind.CASE1, 4, 0.3, 0.3),
    (PerturbationKind.CASE2B, 5, 2.0, 2.0),     # 3f: delta == gamma
    (PerturbationKind.CASE2B, 6, 0.5, 0.5),
    (PerturbationKind.CASE2B, 6, 2.0, 0.5),     # 3g: delta * gamma == 1
    (PerturbationKind.CASE2B, 7, 0.25, 4.0),
    (PerturbationKind.CASE2A, 4, 3.0, 0.2),
])
def test_check_lemma_equals_the_per_sample_path(kind, n, delta, gamma):
    rng = np.random.default_rng(n)
    for base in [(1.0,) * (n - 1), sample_base(rng, n)]:
        sample = PerturbationStructure(kind, n, base, delta, gamma)
        m = apply_perturbation(sample)
        w = power_iteration(m).w
        lam = lambda_max_closed_form(sample)
        held = [check_id for check_id in ALL_CHECK_IDS
                if verification._holds(check_id, kind, n, delta, gamma)]
        assert POSITIVITY_CHECK in held and len(held) > 5
        for check_id in held:
            check = check_lemma(check_id, sample)
            passed, margin = reference_check(check_id, sample, m, w, lam)
            assert (check.passed, float(check.min_margin).hex()) == (passed, margin.hex()), check_id


def test_tied_ratios_keep_the_sign_of_zero():
    # a tie in a strict direction has margin +0.0 either way; -(r - t) / t would give -0.0
    ratio = np.array([0.75, 0.75, 3.0, 3.0, 3.0, 5.0])
    target = np.array([0.75, 0.75, 3.0, 3.0, 3.0 + 2e-9, 1.0])
    direction = np.array([1.0, -1.0, 2.5, -0.5, 0.0, -1.0])
    want = [float(_ordered(r, t, d)).hex() for r, t, d in zip(ratio, target, direction)]
    assert [float(v).hex() for v in verification._ordered(ratio, target, direction)] == want
    for d in (+1, -1, 0):
        assert [float(v).hex() for v in verification._ordered(ratio, target, d)] == \
            [float(_ordered(r, t, d)).hex() for r, t in zip(ratio, target)]
