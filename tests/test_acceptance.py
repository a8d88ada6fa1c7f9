"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from pcmeff import (
    PerturbationKind,
    PerturbationStructure,
    apply_perturbation,
    classify_perturbation,
    dominates,
    find_sink_improvement,
    generate,
    GeneratorSpec,
    is_efficient,
    lambda_max_closed_form,
    parametric_inefficient,
    power_iteration,
    raw_variant_vector,
    reachability_oracle,
    run_lemma_suite,
    strongly_connected_components,
    theorem_sweep,
    variant_count,
)
from pcmeff.spectral import lambda_max_closed_forms
from pcmeff.verification import CYCLE_CHECK, LEMMA_IDS, POSITIVITY_CHECK

from conftest import (
    EXAMPLE1_ENTRIES,
    EXAMPLE1_IMPROVED_W2,
    EXAMPLE1_RATIOS,
    EXAMPLE1_W,
    charpoly_oracle,
    digraph_from_arcs,
    eval_charpoly,
)

SAMPLES_PER_CASE = 500
CASES = (
    (PerturbationKind.CASE1, (4, 5, 6, 7, 8, 9)),
    (PerturbationKind.CASE2A, (4,)),
    (PerturbationKind.CASE2B, (5, 6, 7, 8, 9)),
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def sample_structure(rng, kind, orders):
    n = int(rng.choice(orders))
    base = tuple(np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1)))
    while True:
        d = float(np.exp(rng.uniform(np.log(1 / 9), np.log(9))))
        if abs(d - 1) >= 1e-3:
            break
    while True:
        g = float(np.exp(rng.uniform(np.log(1 / 9), np.log(9))))
        if abs(g - 1) >= 1e-3:
            break
    return PerturbationStructure(kind=kind, n=n, base=base, delta=d, gamma=g)


@pytest.fixture(scope="module")
def case_samples():
    rng = np.random.default_rng(20240915)
    return {kind: [sample_structure(rng, kind, orders) for _ in range(SAMPLES_PER_CASE)]
            for kind, orders in CASES}


def test_criterion_1_example1_golden():
    t0 = time.perf_counter()
    m, _ = generate(GeneratorSpec(family="example1"))
    assert np.array_equal(m.entries, np.array(EXAMPLE1_ENTRIES))
    result = power_iteration(m)

    coord_err = np.abs(result.w - EXAMPLE1_W).max()
    ok_w = coord_err < 1e-7

    # the reference ratio table is truncated at 4 decimals, so compare after
    # applying the same truncation to the computed ratios
    ratios = np.outer(result.w, 1.0 / result.w)
    truncated = np.floor(ratios * 1e4) / 1e4
    table_err = np.abs(truncated - EXAMPLE1_RATIOS).max()
    ok_table = table_err <= 5e-5

    verdict = is_efficient(m, result.w)
    ok_verdict = (not verdict.efficient) and verdict.sink == (1,)

    w_improved = result.w.copy()
    w_improved[1] = EXAMPLE1_IMPROVED_W2
    ok_dom = dominates(m, result.w, w_improved)

    constructed = find_sink_improvement(m, result.w, verdict)
    ok_constructed = constructed is not None and dominates(m, result.w, constructed)

    elapsed = time.perf_counter() - t0
    report(1, ok_w and ok_table and ok_verdict and ok_dom and ok_constructed
           and elapsed < 1.0,
           f"worked 4x4 example: coord_err={coord_err:.2e}, table_err={table_err:.2e}, "
           f"sink={verdict.sink}, known improvement dominates={ok_dom}, "
           f"{elapsed:.2f}s")


def test_criterion_2_double_perturbed_efficiency():
    t0 = time.perf_counter()
    result = theorem_sweep("double", 1000, 101)
    elapsed = time.perf_counter() - t0
    report(2, result.passed and elapsed < 30.0,
           f"double-perturbed: {result.conforming}/{result.samples} efficient "
           f"in {elapsed:.1f}s")


def test_criterion_3_simple_perturbed_efficiency():
    result = theorem_sweep("simple", 500, 102)
    report(3, result.passed,
           f"simple-perturbed: {result.conforming}/{result.samples} efficient")


def test_criterion_4_parametric_grid_inefficiency():
    bad = []
    total = 0
    for n in (4, 5, 6, 7, 8):
        for p in (1 / 3, 1.0, 3.0):
            for q in (0.5, 2.0, 5.0):
                total += 1
                m = parametric_inefficient(n, p, q)
                if is_efficient(m, power_iteration(m).w).efficient:
                    bad.append((n, p, q))
    report(4, total == 45 and not bad,
           f"parametric family: {total - len(bad)}/{total} inefficient")


def test_criterion_5_charpoly_oracle_agreement(case_samples):
    worst = 0.0
    for kind, _ in CASES:
        for st in case_samples[kind]:
            n = len(st.base) + 1
            m = apply_perturbation(st)
            for lam in (-2.0, 1.0, 2.5, n - 1.0, n - 0.25):
                closed = eval_charpoly(st, lam)
                det = charpoly_oracle(m, lam)
                worst = max(worst, abs(closed - det) / max(abs(closed), abs(det)))
    report(5, worst <= 1e-8,
           f"characteristic polynomial vs determinant: {SAMPLES_PER_CASE}/case at 5 "
           f"points each, worst rel err {worst:.2e}")


def test_criterion_6_closed_form_eigenvectors(case_samples):
    worst_resid, worst_parallel, all_positive = 0.0, 0.0, True
    for kind, _ in CASES:
        for st in case_samples[kind]:
            n = len(st.base) + 1
            a = apply_perturbation(st).entries
            lam = lambda_max_closed_form(st)
            vecs = []
            for variant in range(variant_count(kind)):
                raw = raw_variant_vector(st, variant, lam)
                all_positive &= bool(np.all(raw > 0))
                w = raw / raw.sum()
                resid = np.max(np.abs(a @ w - lam * w)) / np.max(np.abs(lam * w))
                worst_resid = max(worst_resid, resid)
                vecs.append(w)
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    cross = np.max(np.abs(np.outer(vecs[i], vecs[j])
                                          - np.outer(vecs[j], vecs[i])))
                    scale = np.max(vecs[i]) * np.max(vecs[j])
                    worst_parallel = max(worst_parallel, cross / scale)
    report(6, all_positive and worst_resid <= 1e-8 and worst_parallel <= 1e-9,
           f"closed forms: positive={all_positive}, worst residual {worst_resid:.2e}, "
           f"worst parallelism defect {worst_parallel:.2e}")


def test_criterion_7_lambda_cross_method(case_samples):
    worst_rel, strict_ok = 0.0, True
    for kind, _ in CASES:
        for st in case_samples[kind]:
            n = len(st.base) + 1
            lam_closed = lambda_max_closed_form(st)
            lam_iter = power_iteration(apply_perturbation(st)).lambda_max
            worst_rel = max(worst_rel, abs(lam_closed - lam_iter) / lam_closed)
            strict_ok &= lam_closed > n
    consistent_ok = True
    for kind, orders in CASES:
        for n in orders:
            lam = float(lambda_max_closed_forms([(kind, n, 1.0, 1.0)])[0])
            consistent_ok &= abs(lam - n) <= 1e-10
    report(7, worst_rel <= 1e-9 and strict_ok and consistent_ok,
           f"dominant root: worst cross-method rel err {worst_rel:.2e}, "
           f"strictly above n on all perturbed samples={strict_ok}, "
           f"equals n at unit factors={consistent_ok}")


def test_criterion_8_lemma_suite():
    reports = run_lemma_suite(seed=42)
    by_id = {r.lemma_id: r for r in reports}
    lemma_ok = all(by_id[lid].passed and by_id[lid].samples_run >= 1000
                   and by_id[lid].min_margin > 0 for lid in LEMMA_IDS)
    equalities_ok = all(by_id[lid].min_margin > 0 for lid in ("1j", "3h"))
    cycles = by_id[CYCLE_CHECK]
    positivity = by_id[POSITIVITY_CHECK]
    cycle_ok = cycles.passed and cycles.samples_run >= 1000
    report(8, lemma_ok and equalities_ok and cycle_ok and positivity.passed,
           f"28 inequality checks pass on {min(by_id[lid].samples_run for lid in LEMMA_IDS)}"
           f"+ samples each; region cycles present in {cycles.samples_run} digraphs")


def test_criterion_9_scc_oracle_equivalence():
    rng = np.random.default_rng(313)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        arcs = set()
        for i in range(n):
            for j in range(i + 1, n):
                c = rng.integers(0, 3)
                if c != 1:
                    arcs.add((i, j))
                if c != 0:
                    arcs.add((j, i))
        g = digraph_from_arcs(n, arcs)
        if (len(strongly_connected_components(g)) == 1) != reachability_oracle(g):
            mismatches += 1
    report(9, mismatches == 0,
           f"strong-connectivity verdicts: 1000 random pair-complete digraphs, "
           f"{mismatches} disagreements")


def test_criterion_10_classification_round_trip():
    rng = np.random.default_rng(555)
    families = [("consistent", (3, 4, 5, 6, 7, 8, 9)),
                ("simple", (3, 4, 5, 6, 7, 8, 9)),
                ("case1", (4, 5, 6, 7, 8, 9)),
                ("case2a", (4,)),
                ("case2b", (5, 6, 7, 8, 9))]
    kind_of = {"consistent": PerturbationKind.CONSISTENT,
               "simple": PerturbationKind.SIMPLE,
               "case1": PerturbationKind.CASE1,
               "case2a": PerturbationKind.CASE2A,
               "case2b": PerturbationKind.CASE2B}
    failures = []
    total = 0
    for trial in range(300):
        family, orders = families[trial % len(families)]
        n = int(rng.choice(orders))
        seed = int(rng.integers(0, 2**31))
        if family == "case1" and n == 4:
            # equal factors degrade to a single-cell repair; keep them apart
            m, truth = generate(GeneratorSpec(family=family, n=n, seed=seed, delta=3.0))
        else:
            m, truth = generate(GeneratorSpec(family=family, n=n, seed=seed))
        total += 1
        c = classify_perturbation(m)
        ok = c.kind == kind_of[family]
        if ok and truth.delta is not None:
            ok &= abs(c.delta - truth.delta) <= 1e-6 * truth.delta
        if ok and truth.gamma is not None:
            ok &= abs(c.gamma - truth.gamma) <= 1e-6 * truth.gamma
        if not ok:
            failures.append((family, n, seed))
    report(10, total == 300 and not failures,
           f"generate-then-classify: {total - len(failures)}/{total} recovered family "
           f"and factors within 1e-6")
