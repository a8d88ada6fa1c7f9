import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from pcmeff import (
    HypothesisViolatedError,
    InvalidCaseError,
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
    theorem_sweep,
    verify_theorem,
)
from pcmeff import cli, spectral, verification
from pcmeff.generators import sample_bases
from pcmeff.pcm import CANONICAL_FORMS, DOUBLE_KINDS
from pcmeff.spectral import power_iteration_batch
from pcmeff.verification import (
    ALL_CHECK_IDS,
    CYCLE_CHECK,
    CYCLES,
    LEMMA_IDS,
    LEMMAS,
    POSITIVITY_CHECK,
    THEOREMS,
    expand_cycle_arcs,
)

from conftest import digraph_from_arcs, region_cycle

UNIT4 = (1.0, 1.0, 1.0)
SMALL_GRID = SuiteGrid(bases_per_cell=1, bases_per_cell_case2a=4)


def test_registry_has_every_statement():
    assert len(LEMMA_IDS) == 28
    assert len(ALL_CHECK_IDS) == 30


# ------------------------------------------------------------- single checks

def test_shared_row_upper_bound_on_first_ratio():
    sample = PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, 3.0, 2.0)
    check = check_lemma("1a", sample)
    assert check.passed and check.min_margin > 0
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


def test_check_lemma_needs_a_base():
    # the structure itself refuses a missing base, before check_lemma runs
    with pytest.raises(InvalidCaseError) as exc:
        check_lemma("1a", PerturbationStructure(PerturbationKind.CASE1, 4, None, 2.0, 1.5))
    assert (type(exc.value), str(exc.value)) == (
        InvalidCaseError, "structure must carry a base vector: kind 'case1' needs 3 ratios")


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
    for table in CYCLES.values():
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
            for kind in (PerturbationKind.CASE2A, PerturbationKind.CASE2B):
                assert sum(pred(d, g) for pred, _ in CYCLES[kind]) == 1
            if d != g:
                assert sum(pred(d, g) for pred, _ in CYCLES[PerturbationKind.CASE1]) == 1


def test_a_sample_outside_every_region_is_a_cycle_violation():
    # shared-row delta == gamma lies in no sign region: its margin is NaN, never a pass
    sample = PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, 2.0, 2.0)
    m = apply_perturbation(sample)
    factor = np.array([2.0])
    row = np.array([0])
    margins = verification._cycle_margins(sample.kind, power_iteration(m).w[None],
                                          m.entries[None], row, factor, factor)
    assert np.isnan(margins).all()
    report = verification.LemmaReport(CYCLE_CHECK)
    report.record(sample.kind, row, np.ones((1, 5)), [5], factor, factor, margins)
    assert not report.passed and [s for s, _ in report.violations] == [sample]
    # the NaN reaches the worst margin, and a later number does not replace it
    assert np.isnan(report.min_margin)
    report.record(sample.kind, row, np.ones((1, 5)), [5], factor, factor, np.array([0.5]))
    assert np.isnan(report.min_margin) and report.samples_run == 2


def test_every_region_of_a_kind_expands_to_one_arc_count():
    # _cycle_margins gathers every region's arcs as one (rows, arcs) array
    for kind in DOUBLE_KINDS:
        form = CANONICAL_FORMS[kind]
        for n in range(form.min_order, (form.max_order or 32) + 1):
            counts = {len(expand_cycle_arcs(cycle, n, kind)) for _, cycle in CYCLES[kind]}
            assert len(counts) == 1, (kind, n, counts)


def per_region_cycle_margins(kind, w, a, delta, gamma):
    """Each region's rows copied out of the stacks and scored on their own arcs."""
    margins = np.full(len(w), np.nan)
    for predicate, cycle in CYCLES[kind]:
        rows = np.flatnonzero(predicate(delta, gamma))
        u, v = np.array(expand_cycle_arcs(cycle, w.shape[1], kind)).T
        entries = a[rows][:, u, v]
        margins[rows] = ((w[rows][:, u] / w[rows][:, v] - entries) / entries).min(axis=1)
    return margins


@pytest.mark.parametrize("kind", DOUBLE_KINDS, ids=lambda k: k.value)
def test_one_gather_cycle_margins_equal_the_per_region_loop(kind):
    rng = np.random.default_rng(DOUBLE_KINDS.index(kind))
    orders = [n for n in range(4, 13) if CANONICAL_FORMS[kind].allows(n)]
    checked = 0
    for n in orders:
        count = -(-240 // len(orders))
        delta = rng.choice(SuiteGrid.ratio_values, count)
        gamma = rng.choice(SuiteGrid.ratio_values, count)
        if kind == PerturbationKind.CASE1:    # delta == gamma: no region, a NaN margin
            gamma[:3] = delta[:3]
        a = verification.canonical_entries(kind, np.exp(rng.uniform(-2.0, 2.0, (count, n - 1))),
                                           delta, gamma)
        w = power_iteration_batch(a).w
        rows = np.append(rng.permutation(count), 0)    # rows out of order, one of them twice
        got = verification._cycle_margins(kind, w, a, rows, delta[rows], gamma[rows])
        want = per_region_cycle_margins(kind, w[rows], a[rows], delta[rows], gamma[rows])
        assert got.tobytes() == want.tobytes(), (kind, n)
        nan = (delta[rows] == gamma[rows]) if kind == PerturbationKind.CASE1 else False
        assert np.array_equal(np.isnan(got), np.broadcast_to(nan, got.shape)), (kind, n)
        checked += len(rows)
    assert checked >= 200


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
    for kind, n in [(PerturbationKind.CASE1, 7), (PerturbationKind.CASE2A, 4),
                    (PerturbationKind.CASE2B, 7)]:
        first_tail = 3 if kind == PerturbationKind.CASE1 else 4
        for _, cycle in CYCLES[kind]:
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
    solves = []
    solve = verification.lambda_max_closed_forms

    def counting_solve(groups):
        solves.append([(kind, *cell) for kind, *arrays in groups
                       for cell in zip(*(np.atleast_1d(a).tolist() for a in arrays))])
        return solve(groups)

    def scalar(params):
        raise AssertionError("the sweep solved one root on its own")

    monkeypatch.setattr(verification, "lambda_max_closed_forms", counting_solve)
    monkeypatch.setattr(verification, "lambda_max_closed_form", scalar)
    run_lemma_suite(SMALL_GRID, seed=1)
    # one stacked solve per sweep, whose rows are the grid's cells, each once
    grid = {(kind, n, d, g) for kind in DOUBLE_KINDS for n in SMALL_GRID.orders(kind)
            for d in SMALL_GRID.ratio_values for g in SMALL_GRID.ratio_values}
    assert len(solves) == 1
    assert len(solves[0]) == len(set(solves[0])) == len(grid) == 640
    assert set(solves[0]) == grid


def test_margins_do_not_depend_on_the_base(monkeypatch):
    # every check but positivity compares weight ratios with entries, from which the
    # base cancels: on each cell of the default grid, 20 random bases give the
    # unit base's margin to within 1e-10 absolute
    bases, recorded = 21, []    # per cell, the unit base, then the random ones
    record = verification.LemmaReport.record

    def spy(self, kind, rows, *rest):
        recorded.append((self.lemma_id, kind, rows, rest[-1]))    # rest ends with the margins
        record(self, kind, rows, *rest)

    monkeypatch.setattr(verification.LemmaReport, "record", spy)
    grid, rng = SuiteGrid(), np.random.default_rng(43)
    delta = np.repeat(grid.ratio_values, len(grid.ratio_values))
    gamma = np.tile(grid.ratio_values, len(grid.ratio_values))
    runs = []
    for kind in DOUBLE_KINDS:
        xs = []
        for n in grid.orders(kind):
            x = np.ones((len(delta), bases, n))
            x[:, 1:, 1:] = sample_bases(rng, n, len(delta) * (bases - 1)).reshape(
                len(delta), bases - 1, n - 1)
            xs.append(x.reshape(-1, n))
        runs.append((kind, xs))
    reports = {check_id: verification.LemmaReport(check_id) for check_id in ALL_CHECK_IDS
               if check_id != POSITIVITY_CHECK}
    verification._sweep_cells(reports, delta, gamma, runs)
    checked, cells, worst = set(), set(), 0.0
    for check_id, kind, rows, margins in recorded:
        by_cell = margins.reshape(-1, bases)    # a mask holds all or none of a cell's rows
        assert (rows.reshape(-1, bases) % bases == np.arange(bases)).all()
        worst = max(worst, float(np.abs(by_cell[:, 1:] - by_cell[:, :1]).max()))
        checked.add(check_id)
        cells.update((kind, c) for c in (rows[::bases] // bases).tolist())
    assert checked == reports.keys()
    assert len(cells) == 640
    assert worst <= 1e-10


def test_suite_takes_coefficients_and_form_terms_on_arrays(monkeypatch):
    calls, floats = Counter(), []
    for module, name in ((spectral, "_bracket_coeffs"), (verification, "form_terms")):
        monkeypatch.setattr(module, name, lambda *args, _call=getattr(module, name), _name=name:
                            calls.update([_name]) or _call(*args))
    power = spectral._power
    monkeypatch.setattr(spectral, "_power", lambda v, p: (
        floats.append(p) if isinstance(v, float) else None) or power(v, p))
    run_lemma_suite(SMALL_GRID, seed=1)
    # one coefficient call per kind and one form-term call, none per cell; each square
    # of a factor is taken once per distinct value (8 ratios), each power of a root once
    assert calls == {"_bracket_coeffs": 3, "form_terms": 1}
    assert floats.count(2) <= 8 * 8 + 640 and floats.count(3) <= 640


@pytest.mark.parametrize("check_ids", [ALL_CHECK_IDS, ("2b", "cycle"), ("positivity", "3h")])
def test_hypotheses_are_evaluated_once_per_stack(monkeypatch, check_ids):
    held, hypotheses = [], []
    holds = verification._holds

    def shapes(n, d, g):
        return tuple(np.unique(n).tolist()), type(d), np.shape(d), type(g), np.shape(g)

    def counting_holds(check_id, kind, n, delta, gamma):
        held.append((check_id, kind, *shapes(n, delta, gamma)))
        return holds(check_id, kind, n, delta, gamma)

    for lemma in list(LEMMAS.values()):
        def counting(d, g, n, lemma=lemma):
            hypotheses.append((lemma.lemma_id, *shapes(n, d, g)))
            return lemma.hypothesis(d, g, n)
        monkeypatch.setitem(LEMMAS, lemma.lemma_id,
                            dataclasses.replace(lemma, hypothesis=counting))
    monkeypatch.setattr(verification, "_holds", counting_holds)
    run_lemma_suite(SMALL_GRID, 1, check_ids)
    rows = {kind: (len(SMALL_GRID.ratio_values) ** 2 * SMALL_GRID.bases(kind)
                   * len(SMALL_GRID.orders(kind)),) for kind in DOUBLE_KINDS}
    # one call per kind for each requested check but positivity, which holds in
    # every cell, each on per-row arrays of the orders and factors of all its samples
    assert Counter(held) == Counter(
        (check_id, kind, SMALL_GRID.orders(kind), np.ndarray, rows[kind], np.ndarray, rows[kind])
        for kind in DOUBLE_KINDS for check_id in check_ids
        if check_id != POSITIVITY_CHECK
        and (check_id not in LEMMAS or LEMMAS[check_id].kind == kind))
    assert Counter(hypotheses) == Counter(
        (check_id, SMALL_GRID.orders(kind), np.ndarray, rows[kind], np.ndarray, rows[kind])
        for check_id in check_ids if check_id in LEMMAS for kind in [LEMMAS[check_id].kind])


def test_positivity_holds_in_every_grid_cell():
    # the sweep runs positivity on every sample without a mask: a grid with a
    # factor of 1 would feed it degenerate forms
    delta, gamma = np.meshgrid(SuiteGrid.ratio_values, SuiteGrid.ratio_values)
    for kind in DOUBLE_KINDS:
        for n in SuiteGrid.orders(kind):
            assert np.all(verification._holds(POSITIVITY_CHECK, kind, n, delta, gamma))


@pytest.mark.parametrize("samples, bases", [
    (1, (1, 1)), (16, (1, 1)), (17, (1, 2)), (64, (1, 4)), (80, (1, 5)), (81, (2, 6)),
    (1000, (13, 63)),
])
def test_grid_for_samples(samples, bases):
    grid = SuiteGrid.for_samples(samples)
    assert (grid.bases_per_cell, grid.bases_per_cell_case2a) == bases


def test_grid_for_samples_evaluates_the_hypotheses_once(monkeypatch):
    evaluated = []
    for lemma in list(LEMMAS.values()):
        def counting(d, g, n, lemma=lemma):
            evaluated.append(lemma.lemma_id)
            return lemma.hypothesis(d, g, n)
        monkeypatch.setitem(LEMMAS, lemma.lemma_id,
                            dataclasses.replace(lemma, hypothesis=counting))
    verification._smallest_regions.cache_clear()
    first = SuiteGrid.for_samples(81)
    assert set(evaluated) == set(LEMMA_IDS)
    evaluated.clear()
    assert SuiteGrid.for_samples(1000) == SuiteGrid(13, 63)
    assert SuiteGrid.for_samples(81) == first == SuiteGrid(2, 6)
    assert evaluated == []


def test_positivity_check_reads_each_kind_once_per_chunk(monkeypatch):
    counted = []
    count = spectral.variant_count

    def counting_count(kind):
        counted.append(kind)
        return count(kind)

    monkeypatch.setattr(spectral, "variant_count", counting_count)
    for budget in (verification._STACK_ENTRIES, 7 * 8**2):
        monkeypatch.setattr(verification, "_STACK_ENTRIES", budget)
        counted.clear()
        reports = {r.lemma_id: r for r in run_lemma_suite(SMALL_GRID, seed=1)}
        # positivity holds in every cell, and the samples of all orders of a kind
        # are evaluated as one stack, once per chunk of at most budget // top**2
        # samples, for the kind's top order
        rows = {kind: SMALL_GRID.bases(kind) * len(SMALL_GRID.ratio_values) ** 2
                * len(SMALL_GRID.orders(kind)) for kind in DOUBLE_KINDS}
        assert counted == [kind for kind in DOUBLE_KINDS for _ in range(
            math.ceil(rows[kind] / (budget // SMALL_GRID.orders(kind)[-1]**2)))]
        assert reports[POSITIVITY_CHECK].samples_run == sum(rows.values()) == 832


def test_each_lemma_margin_is_evaluated_once_per_kind(monkeypatch):
    evaluated = []
    for lemma in list(LEMMAS.values()):
        def counting(w, x, d, g, lemma=lemma):
            evaluated.append((lemma.lemma_id, x.shape[1], len(x)))
            return lemma.margin(w, x, d, g)
        monkeypatch.setitem(LEMMAS, lemma.lemma_id, dataclasses.replace(lemma, margin=counting))
    grid = SuiteGrid()
    run_lemma_suite(grid, seed=1)
    # one call over every sample of every order of the lemma's kind, padded to its
    # top order, whether or not its hypothesis holds there
    assert sorted(evaluated) == sorted(
        (lemma_id, max(grid.orders(lemma.kind)),
         len(grid.ratio_values) ** 2 * grid.bases(lemma.kind) * len(grid.orders(lemma.kind)))
        for lemma_id, lemma in LEMMAS.items())


def test_equality_checks_hold_tightly():
    reports = {r.lemma_id: r for r in run_lemma_suite(SMALL_GRID, seed=3)}
    for lemma_id in ("1j", "3h"):
        # margin is the unused part of the 1e-9 relative tolerance
        assert reports[lemma_id].min_margin > 0.9e-9


def test_main_theorem_sweep():
    double, simple = verify_theorem("main", samples=60, seed=2)
    assert double.passed and double.samples == 60
    assert simple.passed and simple.samples == 30


def test_individual_sweeps():
    assert theorem_sweep("double", 40, seed=11).passed
    assert theorem_sweep("simple", 40, seed=12).passed
    report = theorem_sweep("apq", 40, seed=13)
    assert report.passed and report.expected == "inefficient"


# SHA-256 of the entry bytes of the first 500 matrices each drawer makes at seed 0
SWEEP_DRAW_DIGESTS = {
    "double": "bc4ac14d8913fa695bcd7d048234d1c2563edb09c2807a8ed785d7d03702ccab",
    "simple": "aff13ecca6bc2ba7e45aa97dde24f732f225262ce0d389aa910bec47fe410201",
    "apq": "76987366b94d63f3f6c8157acefcc08fa2b0a27d98314d2495e1b162177826fc",
}


@pytest.mark.parametrize("sweep", list(SWEEP_DRAW_DIGESTS))
def test_sweep_draws_keep_their_bits(sweep):
    # the conforming counts would not move if a draw's bits did; the digests do
    _, _, draw = verification.SWEEPS[sweep]
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(np.ascontiguousarray(draw(rng).entries, dtype="<f8").tobytes())
    assert digest.hexdigest() == SWEEP_DRAW_DIGESTS[sweep]


@pytest.mark.parametrize("samples", [1, 2, 7, 1000])
@pytest.mark.parametrize("seed", [0, 41])
def test_each_theorem_choice_runs_its_written_plan(monkeypatch, samples, seed):
    calls = []

    def recording_sweep(sweep, samples, seed):
        calls.append((sweep, samples, seed))
        return sweep

    monkeypatch.setattr(verification, "theorem_sweep", recording_sweep)
    plans = {
        "main": [("double", samples, seed), ("simple", max(1, samples // 2), seed + 1)],
        "simple": [("simple", samples, seed)],
        "apq": [("apq", samples, seed)],
    }
    for theorem, plan in plans.items():
        calls.clear()
        assert verify_theorem(theorem, samples, seed) == [sweep for sweep, _, _ in plan]
        assert calls == plan, theorem
    assert tuple(plans) == tuple(THEOREMS)


def test_the_theorem_option_offers_every_theorem():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    option = next(a for a in commands.choices["verify"]._actions if a.dest == "theorem")
    assert option.choices == tuple(THEOREMS)


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


def chunk_sizes(budget: int) -> list[int]:
    """The SMALL_GRID solves under an entry budget: 320 rows at n = 4, 128 at n = 5..8."""
    return [min(budget // n**2, rows - start) for n, rows in zip(range(4, 9), [320] + [128] * 4)
            for start in range(0, rows, budget // n**2)]


def test_suite_solves_one_stack_per_order(monkeypatch):
    rows, _ = count_builds(monkeypatch)
    sizes = count_solves(monkeypatch)
    run_lemma_suite(SMALL_GRID, seed=1)
    # case1 and case2a share n = 4 (64 + 256 rows), case1 and case2b each
    # order from 5 to 8 (64 + 64 rows); no stack reaches 256 * 9**2 entries
    assert sizes == chunk_sizes(verification._STACK_ENTRIES) == [320, 128, 128, 128, 128]
    # a stack spanning two kinds is built per kind, then solved as one stack
    assert rows == [64, 256] + [64, 64] * 4
    rows.clear()
    sizes.clear()
    # 28 rows of order 4 a chunk, 7 of order 8
    monkeypatch.setattr(verification, "_STACK_ENTRIES", 7 * 8**2)
    run_lemma_suite(SMALL_GRID, seed=1)
    assert sizes == chunk_sizes(7 * 8**2) and sizes[:3] == [28, 28, 28] and sizes[-1] == 2
    assert max(rows) == 28 and sum(sizes) == sum(rows) == 832


def test_stack_cap_changes_no_report(monkeypatch):
    whole = report_bits(run_lemma_suite(SMALL_GRID, seed=4))
    sizes = count_solves(monkeypatch)
    monkeypatch.setattr(verification, "_STACK_ENTRIES", 7 * 8**2)
    assert report_bits(run_lemma_suite(SMALL_GRID, seed=4)) == whole
    assert sizes == chunk_sizes(7 * 8**2) and sum(sizes) == 832


def test_entry_budget_below_one_matrix_solves_one_row_at_a_time(monkeypatch):
    check_ids = ("positivity", "cycle", "1a", "3h")
    whole = report_bits(run_lemma_suite(SMALL_GRID, seed=4, check_ids=check_ids))
    sizes = count_solves(monkeypatch)
    monkeypatch.setattr(verification, "_STACK_ENTRIES", 4**2 - 1)
    assert report_bits(run_lemma_suite(SMALL_GRID, seed=4, check_ids=check_ids)) == whole
    assert set(sizes) == {1} and len(sizes) > 0


@pytest.mark.parametrize("kind", [PerturbationKind.CASE1, PerturbationKind.CASE2B])
def test_check_lemma_holds_one_matrix_past_the_entry_budget(monkeypatch, kind):
    n = 145    # the first order one of whose matrices holds more than the budget
    assert (n - 1)**2 <= verification._STACK_ENTRIES < n**2
    sample = PerturbationStructure(kind, n, tuple(np.linspace(0.5, 2.0, n - 1)), 3.0, 0.5)
    reports = [check_lemma(check_id, sample) for check_id in ("positivity", "cycle")]
    assert all(r.passed and r.samples_run == 1 for r in reports)
    monkeypatch.setattr(verification, "_STACK_ENTRIES", n**2)
    assert report_bits(reports) == report_bits(
        [check_lemma(check_id, sample) for check_id in ("positivity", "cycle")])


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
    # verify_theorem("main", 60, 2) runs the double sweep, then 30 simple samples at seed 3
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
    reports = verify_theorem("main", samples=60, seed=2) + [theorem_sweep("apq", 20, 1)]
    assert [r.conforming for r in reports] == expected
    assert len(sizes) == orders and sum(sizes) == 110
