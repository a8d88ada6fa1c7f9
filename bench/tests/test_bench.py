"""Tests of the benchmark harness itself.

Run from the root of the repository::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pcmeff import cli, efficiency, matrixio, pcm, spectral  # noqa: E402
from pcmeff.generators import example1_matrix  # noqa: E402
from pcmeff.verification import ALL_CHECK_IDS, LEMMAS, SuiteGrid  # noqa: E402


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_covered_child_time():
    # (index, name, start, end, parent, n); children of one parent may overlap
    recorded = [
        (3, "d", 2.0, 3.0, 1, None),
        (1, "b", 1.0, 4.0, 0, 4),
        (2, "c", 3.0, 6.0, 0, 4),
        (0, "a", 0.0, 10.0, -1, None),
        (4, "a", 12.0, 14.0, -1, None),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}

    m = spans.layer_metrics(recorded, {"a.work": 7}, wall_s=20.0)
    assert m["a.calls"] == 2 and m["b.calls"] == 1
    assert m["a.self_ms"] == pytest.approx(7000.0)
    assert m["a.share"] == pytest.approx(0.35)
    assert m["b.n4.p50_ms"] == pytest.approx(3000.0)
    assert m["c.n4.p50_ms"] == pytest.approx(3000.0)
    assert m["a.work"] == 7
    assert m["trace.coverage"] == pytest.approx(12.0 / 20.0)

    halves = spans.layer_metrics(recorded, {"a.work": 7}, wall_s=20.0, passes=2)
    assert halves["a.calls"] == 1 and halves["a.work"] == 3.5
    assert halves["a.self_ms"] == pytest.approx(3500.0)
    for same in ("a.share", "b.n4.p50_ms", "trace.coverage"):
        assert halves[same] == pytest.approx(m[same])


def test_nested_wrapped_calls_record_parents_and_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    outer(20000)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["outer"]
    assert root[4] == -1
    assert [s[4] for s in by_name["inner"]] == [root[0], root[0]]
    own = spans.self_times(tracer.spans)
    inner_total = sum(s[3] - s[2] for s in by_name["inner"])
    assert own[root[0]] == pytest.approx(root[3] - root[2] - inner_total, abs=1e-12)
    assert 0 < own[root[0]] < root[3] - root[2]


def test_span_of_a_raising_call_is_kept():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("f", fail)()
    assert [s[1] for s in tracer.spans] == ["f"] and tracer._stack == []


# --- wrappers ----------------------------------------------------------------

def test_wrappers_are_removed_and_pcm_stays_a_class():
    original_main, original_init = cli.main, pcm.Pcm.__init__
    assert spans.installed_wrappers() == []
    with spans.Tracer().installed() as tracer:
        every = [t for targets, _ in spans.LAYERS.values() for t in targets]
        assert spans.installed_wrappers() == every
        m = pcm.Pcm(example1_matrix().entries)
        assert isinstance(m, pcm.Pcm)
        spectral.power_iteration(m)
    assert spans.installed_wrappers() == []
    assert cli.main is original_main and pcm.Pcm.__init__ is original_init
    assert {s[1] for s in tracer.spans} == {"pcm.Pcm", "spectral.power_iteration"}


def test_untraced_run_refuses_installed_wrappers(tmp_path):
    with spans.Tracer().installed():
        with pytest.raises(RuntimeError, match="span wrappers"):
            workloads.measure("weights-large", 1, 0.0, False, str(tmp_path))


def test_traced_run_leaves_no_wrappers(tmp_path):
    out = workloads.measure("weights-large", 1, 0.0, True, str(tmp_path))
    assert spans.installed_wrappers() == []
    assert out["failed"] == 0 and not out["checks_missing"]
    layers = out["layers"]
    assert list(layers) == workloads.PER_LAYER
    assert layers["trace.coverage"] >= 0.95
    assert layers["pcm.Pcm.calls"] == layers["matrixio.load_matrix.calls"] == 15
    assert layers["pcm.Pcm.entries"] == 5 * (32**2 + 64**2 + 128**2)
    assert layers["pcm.classify_perturbation.calls"] == 0


# --- statistics --------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert workloads.tail_percentile(count) == expected


def test_scaled_times_follow_the_reference(monkeypatch):
    # a reference twice its nominal time means the host runs at half speed
    monkeypatch.setattr(workloads, "reference_ms", lambda: 2 * workloads.REFERENCE_NOMINAL_MS)
    ops = [lambda: (0.4, 3, [("ok", True, "")]), lambda: (0.2, 1, [("ok", False, "bad")])]
    gate, scaled = checks.Gate(), []
    passes, times, units = workloads.run_passes(ops, gate, passes=2, scaled=scaled)
    assert (passes, times, units) == (2, [0.4, 0.4], 6)
    assert scaled == [0.2, 0.2]
    assert (gate.attempted, gate.failed) == (4, 2)


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert workloads.percentile(values, 50) == 50.5
    assert workloads.percentile(values, 90) == pytest.approx(90.1)


# --- correctness gate --------------------------------------------------------

def _analyze(tmp_path, entries) -> tuple[int, dict, pcm.Pcm]:
    path = tmp_path / "m.txt"
    n = len(entries)
    path.write_text(f"{n}\n" + "\n".join(" ".join(repr(float(v)) for v in row)
                                         for row in entries) + "\n")
    _, code, report = workloads.run_cli(["analyze", str(path), "--json"])
    return code, report, pcm.Pcm(matrixio.load_matrix(str(path)))


def test_gate_counts_a_wrong_analyze_verdict(tmp_path):
    code, report, m = _analyze(tmp_path, example1_matrix().entries)
    truth = {"kind": None, "positions": None, "efficient": False}
    gate = checks.Gate()
    assert gate.record(checks.analyze_checks(code, report, truth, m))

    wrong = json.loads(json.dumps(report))
    wrong["efficiency"]["efficient"] = True
    assert not gate.record(checks.analyze_checks(code, wrong, truth, m))
    assert (gate.attempted, gate.failed) == (2, 1)
    assert any(e.startswith("exit_code") for e in gate.errors)
    assert any(e.startswith("verdict_oracle") for e in gate.errors)


def test_gate_counts_wrong_kind_positions_and_lambda(tmp_path):
    rng = np.random.default_rng(3)
    a, truth = workloads.make_input("case1", 6, rng)
    code, report, m = _analyze(tmp_path, a)
    gate = checks.Gate()
    assert gate.record(checks.analyze_checks(code, report, truth, m))
    assert gate.ran["lambda_routes"] == gate.ran["positions"] == 1

    for edit in ("kind", "positions", "lambda"):
        wrong = json.loads(json.dumps(report))
        if edit == "kind":
            wrong["classification"]["kind"] = "case2b"
        elif edit == "positions":
            wrong["classification"]["positions"] = [[1, 2], [3, 4]]
            wrong["classification"]["alternatives"] = []
        else:
            wrong["weights"]["closed_form"]["lambda_max"] *= 1 + 1e-8
        gate.record(checks.analyze_checks(code, wrong, truth, m))
    assert (gate.attempted, gate.failed) == (4, 3)


def test_gate_counts_a_wrong_weights_verdict():
    m = example1_matrix()
    w = spectral.power_iteration(m).w
    verdict = efficiency.is_efficient(m, w)
    improvement = efficiency.find_sink_improvement(m, w, verdict)
    gate = checks.Gate()
    assert gate.record(checks.weights_checks(m, w, verdict, improvement, False))
    flipped = dataclasses.replace(verdict, efficient=True)
    assert not gate.record(checks.weights_checks(m, w, flipped, None, False))
    assert not gate.record(checks.weights_checks(m, w, verdict, w * 1.0, False))
    assert (gate.attempted, gate.failed) == (3, 2)


def test_gate_counts_wrong_sweep_sample_counts():
    _, code, payload = workloads.run_cli(
        ["verify", "--lemmas", "all", "--samples", str(workloads.LEMMA_SAMPLES),
         "--seed", "5", "--json"])
    gate = checks.Gate()
    assert gate.record(checks.lemma_checks(code, payload, workloads.LEMMA_COUNTS))
    payload["checks"][0]["samples"] -= 1
    assert not gate.record(checks.lemma_checks(code, payload, workloads.LEMMA_COUNTS))
    gate.crash("sweep", RuntimeError("no result"))
    assert (gate.attempted, gate.failed) == (3, 2)


# --- inputs ------------------------------------------------------------------

def test_lemma_counts_are_what_the_grid_implies():
    # the verify command sizes its grid so each check gets at least --samples points
    samples = workloads.LEMMA_SAMPLES
    grid = SuiteGrid(bases_per_cell=math.ceil(samples / 130),
                     bases_per_cell_case2a=math.ceil(samples / 16))
    counts = dict.fromkeys(ALL_CHECK_IDS, 0)
    for lem_kind in ("case1", "case2a", "case2b"):
        kind = pcm.PerturbationKind(lem_kind)
        for n in grid.orders(kind):
            for d in grid.ratio_values:
                for g in grid.ratio_values:
                    k = grid.bases(kind)
                    for lid, lem in LEMMAS.items():
                        if lem.kind == kind and lem.hypothesis(d, g, n):
                            counts[lid] += k
                    counts["positivity"] += k
                    counts["cycle"] += 0 if kind == pcm.PerturbationKind.CASE1 and d == g else k
    assert counts == workloads.LEMMA_COUNTS


@pytest.mark.parametrize("family", ["consistent", "simple", "case1", "case2b", "random"])
def test_relabeled_inputs_classify_to_their_ground_truth(family):
    rng = np.random.default_rng(7)
    a, truth = workloads.make_input(family, 7, rng)
    structure = pcm.classify_perturbation(pcm.Pcm(a))
    assert structure.kind.value == truth["kind"]
    found = [structure.positions] + list(structure.alternatives)
    truth_cells = tuple(tuple(p - 1 for p in pair) for pair in truth["positions"])
    assert truth_cells in found


def test_inputs_repeat_for_a_seed(tmp_path):
    corpora = []
    for name in ("a", "b"):
        os.makedirs(tmp_path / name)
        corpora.append(workloads.write_corpus(str(tmp_path / name), (4, 6),
                                              lambda n: ("apq", "random"),
                                              np.random.default_rng(9)))
    first, second = corpora
    assert [t for _, t in first] == [t for _, t in second]
    for (p, _), (q, _) in zip(first, second):
        assert open(p).read() == open(q).read()


# --- contract ----------------------------------------------------------------

def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb",
                                                       "p50_ref_ms", "per_ref_s"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "weights-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
