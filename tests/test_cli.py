import ast
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import EXAMPLE1_W
from pcmeff import example1_matrix, is_efficient, power_iteration, to_dot

EXAMPLE1_TEXT = "4\n1 1/2 4 2\n2 1 5 7\n1/4 1/5 1 2\n1/2 1/7 1/2 1\n"
CONSISTENT_TEXT = "3\n1 2 6\n1/2 1 3\n1/6 1/3 1\n"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "pcmeff", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.txt"
    path.write_text(EXAMPLE1_TEXT)
    return path


@pytest.fixture
def consistent_file(tmp_path):
    path = tmp_path / "consistent.txt"
    path.write_text(CONSISTENT_TEXT)
    return path


# ------------------------------------------------------------------ analyze

def test_analyze_inefficient_matrix(example1_file):
    proc = run_cli("analyze", str(example1_file), "--json")
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["schema_version"] == 1
    assert report["classification"]["kind"] == "other"
    assert report["efficiency"]["efficient"] is False
    assert report["efficiency"]["sink"] == [2]
    w = np.array(report["weights"]["power_iteration"])
    assert np.abs(w - EXAMPLE1_W).max() < 1e-7
    assert report["weights"]["closed_form"] is None


def test_analyze_consistent_matrix(consistent_file):
    proc = run_cli("analyze", str(consistent_file), "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["classification"]["kind"] == "consistent"
    assert report["classification"]["base"] == pytest.approx([2.0, 6.0])
    assert report["lambda_max"] == pytest.approx(3.0, abs=1e-10)


def test_analyze_reports_both_weight_routes(tmp_path):
    gen = run_cli("generate", "--family", "case2b", "--n", "5", "--delta", "3",
                  "--gamma", "0.5", "--seed", "7", "--out", str(tmp_path / "m.txt"))
    assert gen.returncode == 0
    proc = run_cli("analyze", str(tmp_path / "m.txt"), "--json")
    assert proc.returncode == 0       # double-perturbed eigenvectors are efficient
    report = json.loads(proc.stdout)
    assert report["classification"]["kind"] == "case2b"
    assert report["classification"]["delta"] == pytest.approx(3.0)
    assert report["classification"]["gamma"] == pytest.approx(0.5)
    closed = report["weights"]["closed_form"]
    w_iter = np.array(report["weights"]["power_iteration"])
    assert np.allclose(np.array(closed["w"]), w_iter, rtol=1e-8)
    assert closed["lambda_max"] == pytest.approx(report["lambda_max"], rel=1e-9)


def test_analyze_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_analyze_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 3\n0.5 1\n")      # reciprocity violation
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 1


def test_analyze_missing_file_exit_code(tmp_path):
    proc = run_cli("analyze", str(tmp_path / "nope.txt"))
    assert proc.returncode == 1


def test_analyze_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1, 2, 6\n1/2, 1, 3\n1/6, 1/3, 1\n")
    proc = run_cli("analyze", str(path), "--format", "csv", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"]["kind"] == "consistent"


def test_json_report_round_trips(example1_file):
    proc = run_cli("analyze", str(example1_file), "--json")
    report = json.loads(proc.stdout)
    assert json.loads(json.dumps(report)) == report


def test_text_and_json_values_agree(example1_file):
    as_json = json.loads(run_cli("analyze", str(example1_file), "--json").stdout)
    text = run_cli("analyze", str(example1_file)).stdout
    w_line = next(line for line in text.splitlines() if line.startswith("w (power"))
    w_text = ast.literal_eval(w_line.split(": ", 1)[1])
    assert w_text == as_json["weights"]["power_iteration"]
    lam_line = next(line for line in text.splitlines() if line.startswith("lambda_max:"))
    assert float(lam_line.split(": ")[1]) == as_json["lambda_max"]


def test_dot_export_is_byte_deterministic(example1_file, tmp_path):
    d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
    run_cli("analyze", str(example1_file), "--digraph-dot", str(d1))
    run_cli("analyze", str(example1_file), "--digraph-dot", str(d2))
    assert d1.read_bytes() == d2.read_bytes()
    content = d1.read_text()
    m = example1_matrix()
    assert content == to_dot(is_efficient(m, power_iteration(m).w).digraph)
    assert content.startswith("digraph efficiency {")
    assert "    1 -> 2;\n" in content
    assert "    2 -> 1;\n" not in content


# ----------------------------------------------------------------- generate

def test_generate_example1_to_stdout():
    proc = run_cli("generate", "--family", "example1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("4\n1.0 0.5 4.0 2.0\n")


def test_generate_writes_matrix_and_sidecar(tmp_path):
    out = tmp_path / "m.txt"
    proc = run_cli("generate", "--family", "consistent", "--n", "4", "--seed", "1",
                   "--out", str(out))
    assert proc.returncode == 0
    sidecar = json.loads((tmp_path / "m.txt.json").read_text())
    assert sidecar["family"] == "consistent"
    assert sidecar["ground_truth"]["kind"] == "consistent"
    assert len(sidecar["ground_truth"]["base"]) == 3
    check = run_cli("analyze", str(out), "--json")
    assert json.loads(check.stdout)["classification"]["base"] == \
        pytest.approx(sidecar["ground_truth"]["base"])


def test_generate_incompatible_order_exit_code():
    proc = run_cli("generate", "--family", "case2a", "--n", "5")
    assert proc.returncode == 1
    assert "requires n = 4" in proc.stderr


# ------------------------------------------------------------------- verify

def test_verify_lemma_subset():
    proc = run_cli("verify", "--lemmas", "1a,2j,3g,positivity", "--samples", "30",
                   "--seed", "3", "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert [c["id"] for c in report["checks"]] == ["1a", "2j", "3g", "positivity"]
    assert all(c["samples"] >= 30 for c in report["checks"])


@pytest.mark.parametrize("samples", [81, 200])
def test_verify_gives_every_check_the_requested_samples(samples):
    proc = run_cli("verify", "--lemmas", "all", "--samples", str(samples), "--json")
    report = json.loads(proc.stdout)
    assert report["samples_requested"] == samples
    assert all(c["samples"] >= samples for c in report["checks"]), report["checks"]


def test_verify_unknown_lemma_id():
    proc = run_cli("verify", "--lemmas", "9z")
    assert proc.returncode == 1


def test_verify_theorem_sweeps():
    proc = run_cli("verify", "--theorem", "main", "--samples", "40", "--seed", "5", "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    names = [r["name"] for r in report["reports"]]
    assert names == ["double-perturbed efficiency", "simple-perturbed efficiency"]
    assert all(r["conforming"] == r["samples"] for r in report["reports"])

    proc = run_cli("verify", "--theorem", "apq", "--samples", "25", "--seed", "6")
    assert proc.returncode == 0
    assert "25/25 inefficient" in proc.stdout


def test_verify_is_deterministic_per_seed():
    args = ("verify", "--lemmas", "1g", "--samples", "25", "--seed", "11", "--json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_verify_requires_exactly_one_mode():
    assert run_cli("verify").returncode == 1
    assert run_cli("verify", "--lemmas", "all", "--theorem", "main").returncode == 1
