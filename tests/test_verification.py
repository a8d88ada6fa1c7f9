import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from pcmeff import (
    HypothesisViolatedError,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    SuiteGrid,
    apply_perturbation,
    build_digraph,
    check_lemma,
    is_efficient,
    power_iteration,
    run_lemma_suite,
    strongly_connected_components,
    verify_double_perturbed_efficiency,
    verify_main_theorem,
    verify_parametric_inefficiency,
    verify_simple_perturbed_efficiency,
)
from pcmeff import spectral, verification
from pcmeff.pcm import DOUBLE_KINDS
from pcmeff.verification import (
    ALL_CHECK_IDS,
    CASE1_CYCLES,
    CASE2A_CYCLES,
    CASE2B_CYCLES,
    CYCLE_CHECK,
    LEMMA_IDS,
    LEMMAS,
    POSITIVITY_CHECK,
    expand_cycle_arcs,
    region_cycle,
)

from conftest import digraph_from_arcs

UNIT4 = (1.0, 1.0, 1.0)
SMALL_GRID = SuiteGrid(bases_per_cell=1, bases_per_cell_case2a=4)


def test_registry_has_every_statement():
    assert len(LEMMA_IDS) == 28
    assert len(ALL_CHECK_IDS) == 30


# ------------------------------------------------------------- single checks

def test_shared_row_upper_bound_on_first_ratio():
    sample = PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, 3.0, 2.0)
    check = check_lemma("1a", sample)
    assert check.passed and check.margin > 0
    # conclusion is w1/w2 < delta * x1
    w = power_iteration(apply_perturbation(sample)).w
    assert w[0] / w[1] < 3.0


def test_trailing_ratios_equal_base_ratios():
    sample = PerturbationStructure(PerturbationKind.CASE1, 6, (2.0, 3.0, 4.0, 5.0, 0.7), 2.0, 0.5)
    w = power_iteration(apply_perturbation(sample)).w
    assert w[3] / w[4] == pytest.approx(sample.base[3] / sample.base[2], rel=1e-9)
    assert check_lemma("1j", sample).passed


def test_three_way_checks_cover_the_equality_branch():
    equal_factors = PerturbationStructure(PerturbationKind.CASE2B, 5, (1.5, 2.5, 0.3, 4.0),
                                          2.0, 2.0)
    check = check_lemma("3f", equal_factors)       # gamma == delta branch
    assert check.passed
    w = power_iteration(apply_perturbation(equal_factors)).w
    assert w[1] / w[3] == pytest.approx(equal_factors.base[2] / equal_factors.base[0],
                                        rel=1e-9)

    reciprocal_pair = PerturbationStructure(PerturbationKind.CASE2B, 6,
                                            (1.5, 2.5, 0.3, 4.0, 1.1), 2.0, 0.5)
    assert check_lemma("3g", reciprocal_pair).passed   # gamma * delta == 1 branch
    w = power_iteration(apply_perturbation(reciprocal_pair)).w
    assert w[0] / w[3] == pytest.approx(reciprocal_pair.base[2], rel=1e-9)


def test_positivity_of_every_closed_form():
    for kind, n in [(PerturbationKind.CASE1, 5), (PerturbationKind.CASE2A, 4),
                    (PerturbationKind.CASE2B, 6)]:
        sample = PerturbationStructure(kind, n, (0.4,) * (n - 1), 0.2, 7.0)
        assert check_lemma("positivity", sample).passed


def test_degenerate_parameters_violate_every_hypothesis():
    for delta, gamma in [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]:
        sample = PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, delta, gamma)
        for lemma_id in ("1a", "1g", "1j", "positivity", "cycle"):
            with pytest.raises(HypothesisViolatedError):
                check_lemma(lemma_id, sample)


def test_sample_outside_region_is_rejected():
    sample = PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, 3.0, 2.0)
    with pytest.raises(HypothesisViolatedError):
        check_lemma("1b", sample)          # needs delta < 1
    with pytest.raises(HypothesisViolatedError):
        check_lemma("2a", sample)          # wrong case
    with pytest.raises(HypothesisViolatedError):
        check_lemma("3h", PerturbationStructure(PerturbationKind.CASE2B, 5, (1.0,) * 4, 2.0, 3.0))


def test_wrong_kind_for_positivity():
    sample = PerturbationStructure(PerturbationKind.SIMPLE, 5, (1.0,) * 4, 2.0, 2.0)
    with pytest.raises(HypothesisViolatedError):
        check_lemma("positivity", sample)


@pytest.mark.parametrize("sample", [
    PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, 1.0, 2.0),
    PerturbationStructure(PerturbationKind.SIMPLE, 5, (1.0,) * 4, 2.0, 2.0),
])
def test_check_lemma_rejects_an_unknown_check_id_first(sample):
    with pytest.raises(ValueError, match=r"unknown check ids \['9z'\]") as raised:
        check_lemma("9z", sample)
    assert not isinstance(raised.value, HypothesisViolatedError)


# ------------------------------------------------------------- hypotheses

# 1.0, ties delta == gamma and reciprocal pairs delta * gamma == 1
MESH = (1 / 9, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0, 9.0)


def mesh_cells():
    delta, gamma = (f.ravel() for f in np.meshgrid(MESH, MESH))
    return delta, gamma, list(zip(delta.tolist(), gamma.tolist()))


def per_cell_rule(check_id, kind, n, d, g):
    """The hypothesis rule as it was stated one cell at a time."""
    if 1.0 in (d, g):
        return False
    if check_id == CYCLE_CHECK:
        return not (kind == PerturbationKind.CASE1 and d == g)
    if check_id == POSITIVITY_CHECK:
        return True
    lemma = LEMMAS[check_id]
    return lemma.kind == kind and bool(lemma.hypothesis(d, g, n))


def test_elementwise_tables_equal_the_scalar_evaluation():
    delta, gamma, cells = mesh_cells()
    for lemma in LEMMAS.values():
        for n in SuiteGrid.orders(lemma.kind):
            mask = np.broadcast_to(lemma.hypothesis(delta, gamma, n), delta.shape)
            assert mask.tolist() == [lemma.hypothesis(d, g, n) for d, g in cells], lemma.lemma_id
    for table in (CASE1_CYCLES, CASE2A_CYCLES, CASE2B_CYCLES):
        for predicate, cycle in table:
            assert predicate(delta, gamma).tolist() == [predicate(d, g) for d, g in cells], cycle
    for kind in DOUBLE_KINDS:
        for n in SuiteGrid.orders(kind):
            for check_id in ALL_CHECK_IDS:
                held = verification._holds(check_id, kind, n, delta, gamma)
                assert held.tolist() == [bool(verification._holds(check_id, kind, n, d, g))
                                         for d, g in cells], (check_id, kind, n)
                assert held.tolist() == [per_cell_rule(check_id, kind, n, d, g)
                                         for d, g in cells], (check_id, kind, n)


def test_check_lemma_raises_exactly_where_the_hypothesis_fails(monkeypatch):
    swept = []
    monkeypatch.setattr(verification, "_sweep_cells", lambda *args: swept.append(args))
    delta, gamma, cells = mesh_cells()
    for kind in DOUBLE_KINDS + (PerturbationKind.SIMPLE,):
        orders = SuiteGrid.orders(kind)
        for n in {orders[0], orders[-1]}:    # 1j and 3h fail at the first, hold at the last
            for check_id in ALL_CHECK_IDS:
                held = [False] * len(cells) if kind == PerturbationKind.SIMPLE \
                    else verification._holds(check_id, kind, n, delta, gamma).tolist()
                for (d, g), h in zip(cells, held):
                    sample = PerturbationStructure(kind, n, (1.5,) * (n - 1), d, g)
                    swept.clear()
                    if h:
                        check_lemma(check_id, sample)
                        assert len(swept) == 1
                    else:
                        with pytest.raises(HypothesisViolatedError) as raised:
                            check_lemma(check_id, sample)
                        assert swept == []
                        assert str(raised.value) == (
                            f"check {check_id} does not apply to kind '{kind.value}', "
                            f"n = {n}, delta = {d}, gamma = {g}")


# ----------------------------------------------------------------- cycles

def test_region_tables_partition_the_parameter_space():
    values = [0.2, 0.7, 1.3, 4.0]
    for d in values:
        for g in values:
            assert sum(pred(d, g) for pred, _ in CASE2A_CYCLES) == 1
            assert sum(pred(d, g) for pred, _ in CASE2B_CYCLES) == 1
            if d != g:
                assert sum(pred(d, g) for pred, _ in CASE1_CYCLES) == 1


def test_a_sample_outside_every_region_is_a_cycle_violation():
    # shared-row delta == gamma lies in no sign region: its margin is NaN, never a pass
    sample = PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, 2.0, 2.0)
    m = apply_perturbation(sample)
    factor = np.array([2.0])
    margins = verification._cycle_margins(sample.kind, power_iteration(m).w[None],
                                          m.entries[None], factor, factor)
    assert np.isnan(margins).all()
    report = verification.LemmaReport(CYCLE_CHECK)
    report.record(sample.kind, np.ones((1, 5)), factor, factor, margins)
    assert not report.passed and [s for s, _ in report.violations] == [sample]


def test_named_cycle_is_present_in_the_digraph():
    rng = np.random.default_rng(4)
    for kind, n in [(PerturbationKind.CASE1, 6), (PerturbationKind.CASE2A, 4),
                    (PerturbationKind.CASE2B, 7)]:
        for d, g in [(3.0, 5.0), (3.0, 2.0), (3.0, 0.5), (0.5, 0.2), (0.2, 0.5), (0.5, 3.0)]:
            base = tuple(np.exp(rng.uniform(-1, 1, n - 1)))
            sample = PerturbationStructure(kind, n, base, d, g)
            assert check_lemma("cycle", sample).passed
            m = apply_perturbation(sample)
            digraph = build_digraph(m, power_iteration(m).w)
            cycle = region_cycle(kind, d, g)
            for u, v in expand_cycle_arcs(cycle, n, kind):
                assert digraph.adjacency[u, v]


def test_cycle_alone_certifies_strong_connectivity():
    # orientation of the unanalyzed pairs must not matter: the named cycle
    # plus the bidirected trailing block plus any pair-complete filling is
    # strongly connected
    rng = np.random.default_rng(9)
    for kind, n, cycles in [(PerturbationKind.CASE1, 7, CASE1_CYCLES),
                            (PerturbationKind.CASE2A, 4, CASE2A_CYCLES),
                            (PerturbationKind.CASE2B, 7, CASE2B_CYCLES)]:
        first_tail = 3 if kind == PerturbationKind.CASE1 else 4
        for _, cycle in cycles:
            fixed = set(expand_cycle_arcs(cycle, n, kind))
            for i in range(first_tail, n):
                for j in range(first_tail, n):
                    if i != j:
                        fixed.add((i, j))
            for _ in range(25):
                arcs = set(fixed)
                for i in range(n):
                    for j in range(i + 1, n):
                        if (i, j) in arcs or (j, i) in arcs:
                            continue
                        arcs.add((i, j) if rng.random() < 0.5 else (j, i))
                assert len(strongly_connected_components(digraph_from_arcs(n, arcs))) == 1


# ------------------------------------------------------------------- suites

def test_small_suite_all_checks_pass():
    reports = run_lemma_suite(SMALL_GRID, seed=1)
    assert [r.lemma_id for r in reports] == list(ALL_CHECK_IDS)
    for report in reports:
        assert report.passed, (report.lemma_id, report.min_margin)
        assert report.min_margin > 0
        assert report.samples_run > 0


def test_suite_is_deterministic():
    r1 = run_lemma_suite(SMALL_GRID, seed=5)
    r2 = run_lemma_suite(SMALL_GRID, seed=5)
    assert [(a.lemma_id, a.samples_run, a.min_margin) for a in r1] == \
           [(b.lemma_id, b.samples_run, b.min_margin) for b in r2]


def count_builds(monkeypatch):
    """Record the rows of every stacked build and every ``Pcm`` built."""
    rows, pcms = [], []
    build, init = verification.canonical_entries, Pcm.__init__

    def counting_build(kind, base, *factors):
        rows.append(len(base))
        return build(kind, base, *factors)

    def counting_init(self, entries):
        pcms.append(entries)
        init(self, entries)

    monkeypatch.setattr(verification, "canonical_entries", counting_build)
    monkeypatch.setattr(Pcm, "__init__", counting_init)
    return rows, pcms


def test_suite_builds_one_matrix_per_sample(monkeypatch):
    rows, pcms = count_builds(monkeypatch)
    reports = {r.lemma_id: r for r in run_lemma_suite(SMALL_GRID, seed=1)}
    # every grid sample is a positivity sample: the ratio grid leaves out 1
    assert sum(rows) == reports["positivity"].samples_run == 5 * 64 + 4 * 64 + 4 * 64
    assert pcms == []    # the sweep checks its stacks without building a Pcm


def test_suite_solves_the_closed_form_root_once_per_grid_cell(monkeypatch):
    solved = []
    solve = verification.lambda_max_closed_form

    def counting_solve(params):
        solved.append((params.kind, params.n, params.delta, params.gamma))
        return solve(params)

    monkeypatch.setattr(verification, "lambda_max_closed_form", counting_solve)
    run_lemma_suite(SMALL_GRID, seed=1)
    cells = sum(len(SMALL_GRID.orders(kind)) for kind in DOUBLE_KINDS) \
        * len(SMALL_GRID.ratio_values) ** 2
    assert len(solved) == len(set(solved)) == cells == 640


@pytest.mark.parametrize("check_ids", [ALL_CHECK_IDS, ("2b", "cycle"), ("positivity", "3h")])
def test_hypotheses_are_evaluated_once_per_stack(monkeypatch, check_ids):
    held, hypotheses = [], []
    holds = verification._holds

    def counting_holds(check_id, kind, n, delta, gamma):
        held.append((check_id, kind, n, type(delta), delta.shape, type(gamma), gamma.shape))
        return holds(check_id, kind, n, delta, gamma)

    for lemma in list(LEMMAS.values()):
        def counting(d, g, n, lemma=lemma):
            hypotheses.append((lemma.lemma_id, n, type(d), np.shape(d), type(g), np.shape(g)))
            return lemma.hypothesis(d, g, n)
        monkeypatch.setitem(LEMMAS, lemma.lemma_id,
                            dataclasses.replace(lemma, hypothesis=counting))
    monkeypatch.setattr(verification, "_holds", counting_holds)
    run_lemma_suite(SMALL_GRID, 1, check_ids)
    cells = (len(SMALL_GRID.ratio_values) ** 2,)
    # one call per (kind, n) stack for each requested check, each on the stack's cell arrays
    assert Counter(held) == Counter(
        (check_id, kind, n, np.ndarray, cells, np.ndarray, cells)
        for kind in DOUBLE_KINDS for n in SMALL_GRID.orders(kind) for check_id in check_ids
        if check_id not in LEMMAS or LEMMAS[check_id].kind == kind)
    assert Counter(hypotheses) == Counter(
        (check_id, n, np.ndarray, cells, np.ndarray, cells)
        for check_id in check_ids if check_id in LEMMAS
        for n in SMALL_GRID.orders(LEMMAS[check_id].kind))


@pytest.mark.parametrize("samples, bases", [
    (1, (1, 1)), (16, (1, 1)), (17, (1, 2)), (64, (1, 4)), (80, (1, 5)), (81, (2, 6)),
    (1000, (13, 63)),
])
def test_grid_for_samples(samples, bases):
    grid = SuiteGrid.for_samples(samples)
    assert (grid.bases_per_cell, grid.bases_per_cell_case2a) == bases


def test_positivity_check_reads_each_structure_once(monkeypatch):
    counted = []
    count = spectral.variant_count

    def counting_count(kind):
        counted.append(kind)
        return count(kind)

    monkeypatch.setattr(spectral, "variant_count", counting_count)
    for cap in (verification._STACK_CAP, 7):
        monkeypatch.setattr(verification, "_STACK_CAP", cap)
        counted.clear()
        reports = {r.lemma_id: r for r in run_lemma_suite(SMALL_GRID, seed=1)}
        # positivity holds in every cell, and each (kind, n) stack is evaluated
        # once per chunk of at most _STACK_CAP samples
        chunks = sum(math.ceil(SMALL_GRID.bases(kind) * len(SMALL_GRID.ratio_values) ** 2 / cap)
                     for kind in DOUBLE_KINDS for n in SMALL_GRID.orders(kind))
        assert len(counted) == chunks
        assert reports[POSITIVITY_CHECK].samples_run == 832


def test_equality_checks_hold_tightly():
    reports = {r.lemma_id: r for r in run_lemma_suite(SMALL_GRID, seed=3)}
    for lemma_id in ("1j", "3h"):
        # margin is the unused part of the 1e-9 relative tolerance
        assert reports[lemma_id].min_margin > 0.9e-9


def test_main_theorem_sweep():
    double, simple = verify_main_theorem(samples=60, seed=2)
    assert double.passed and double.samples == 60
    assert simple.passed and simple.samples == 30


def test_individual_sweeps():
    assert verify_double_perturbed_efficiency(40, seed=11).passed
    assert verify_simple_perturbed_efficiency(40, seed=12).passed
    report = verify_parametric_inefficiency(40, seed=13)
    assert report.passed and report.expected == "inefficient"


# ------------------------------------------------------------ stacked solves

def report_bits(reports):
    return [(r.lemma_id, r.samples_run, float(r.min_margin).hex(),
             [(s, float(margin).hex()) for s, margin in r.violations]) for r in reports]


def count_solves(monkeypatch):
    """Record the size of every stacked solve; fail on any one-matrix solve."""
    sizes = []
    batch = verification.power_iteration_batch

    def counting_batch(a, *args, **kwargs):
        sizes.append(len(a))
        return batch(a, *args, **kwargs)

    def scalar(*args, **kwargs):
        raise AssertionError("the sweep solved one matrix on its own")

    monkeypatch.setattr(verification, "power_iteration_batch", counting_batch)
    monkeypatch.setattr(verification, "power_iteration", scalar)
    return sizes


def test_suite_solves_one_stack_per_kind_and_order(monkeypatch):
    sizes = count_solves(monkeypatch)
    run_lemma_suite(SMALL_GRID, seed=1)
    orders = sum(len(SMALL_GRID.orders(kind)) for kind in DOUBLE_KINDS)
    assert len(sizes) == orders == 10
    assert sum(sizes) == 832


def test_stack_cap_changes_no_report(monkeypatch):
    whole = report_bits(run_lemma_suite(SMALL_GRID, seed=4))
    sizes = count_solves(monkeypatch)
    monkeypatch.setattr(verification, "_STACK_CAP", 7)
    assert report_bits(run_lemma_suite(SMALL_GRID, seed=4)) == whole
    assert max(sizes) == 7 and sum(sizes) == 832


@pytest.mark.parametrize("check_ids", [("2a",), ("1a", "3h"), ("positivity",), ("cycle", "2j")])
def test_subset_reports_equal_the_full_sweep(check_ids):
    full = {r.lemma_id: r for r in run_lemma_suite(SMALL_GRID, seed=6)}
    subset = run_lemma_suite(SMALL_GRID, seed=6, check_ids=check_ids)
    assert report_bits(subset) == report_bits(
        [full[check_id] for check_id in ALL_CHECK_IDS if check_id in check_ids])


@pytest.mark.parametrize("check_ids, builds", [(("2a",), 4 * 64), (("positivity",), 0)])
def test_subset_builds_only_the_matrices_its_checks_read(monkeypatch, check_ids, builds):
    rows, pcms = count_builds(monkeypatch)
    sizes = count_solves(monkeypatch)
    run_lemma_suite(SMALL_GRID, seed=1, check_ids=check_ids)
    assert sum(rows) == sum(sizes) == builds
    assert pcms == []


@pytest.mark.parametrize("counts", [dict(bases_per_cell=0, bases_per_cell_case2a=-3),
                                    dict(bases_per_cell_case2a=0), dict(bases_per_cell=2.5),
                                    dict(bases_per_cell_case2a="4"), dict(bases_per_cell=True)])
def test_suite_grid_rejects_unusable_base_counts(counts):
    name = next(iter(counts))
    with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
        SuiteGrid(**counts)


def test_suite_rejects_unknown_check_ids():
    with pytest.raises(ValueError, match="unknown check ids"):
        run_lemma_suite(SMALL_GRID, check_ids=("1a", "9z"))


def test_theorem_sweeps_solve_one_stack_per_order(monkeypatch):
    # verify_main_theorem(60, 2) runs the double sweep, then 30 simple samples at seed 3
    sweeps = [(verification._random_double_matrix, 60, 2, True),
              (verification._random_simple_matrix, 30, 3, True),
              (verification._random_apq_matrix, 20, 1, False)]
    expected, orders = [], 0
    for draw, samples, seed, efficient in sweeps:
        rng = np.random.default_rng(seed)
        ms = [draw(rng) for _ in range(samples)]
        orders += len({m.n for m in ms})
        expected.append(sum(is_efficient(m, power_iteration(m).w).efficient == efficient
                            for m in ms))
    sizes = count_solves(monkeypatch)
    reports = verify_main_theorem(samples=60, seed=2) + [verify_parametric_inefficiency(20, 1)]
    assert [r.conforming for r in reports] == expected
    assert len(sizes) == orders and sum(sizes) == 110
