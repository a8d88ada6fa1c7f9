import ast
import enum
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE1_W
from pcmeff import (
    GeneratorSpec,
    NoConvergenceError,
    Pcm,
    PerturbationKind,
    PerturbationStructure,
    RootNotBracketedError,
    apply_perturbation,
    cli,
    example1_matrix,
    generate,
    is_efficient,
    power_iteration,
    to_dot,
)
from pcmeff.efficiency import DEFAULT_TIE_TOL
from pcmeff.generators import FAMILIES
from pcmeff.matrixio import format_matrix, load_matrix
from pcmeff.pcm import DEFAULT_CONSISTENCY_TOL
from pcmeff.spectral import DEFAULT_POWER_TOL

# `pcmeff verify --lemmas all --samples 64 --seed 42 --json`, saved while the
# root finder still bisected before its Newton steps
SAVED_LEMMA_REPORT = Path(__file__).parent / "data" / "verify_lemmas_64_seed42.json"
EXAMPLE1_TEXT = "4\n1 1/2 4 2\n2 1 5 7\n1/4 1/5 1 2\n1/2 1/7 1/2 1\n"
CONSISTENT_TEXT = "3\n1 2 6\n1/2 1 3\n1/6 1/3 1\n"


def run_process(*args):
    """``python -m pcmeff *args`` in a new process."""
    return subprocess.run([sys.executable, "-m", "pcmeff", *args], capture_output=True, text=True)


def run_cli(*args):
    """``cli.main(args)`` in this process, with the result :func:`run_process` would give.

    Standard output and error are captured, a ``SystemExit`` becomes its exit
    code, and the working directory is restored.
    """
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


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


@pytest.mark.parametrize("args, code", [
    (("generate", "--family", "example1"), 0),
    (("verify", "--lemmas", "9z"), 1),
    (("analyze", "{dir}/bad.txt"), 2),
    (("analyze", "{dir}/example1.txt"), 3),
])
def test_module_entry_point_matches_the_in_process_run(example1_file, args, code):
    (example1_file.parent / "bad.txt").write_text("not a matrix\n")
    args = [a.format(dir=example1_file.parent) for a in args]
    proc, ran = run_process(*args), run_cli(*args)
    assert proc.returncode == ran.returncode == code
    assert (proc.stdout, proc.stderr) == (ran.stdout, ran.stderr)


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


def test_analyze_classifies_order_32(tmp_path):
    st_ = PerturbationStructure(kind=PerturbationKind.CASE2B, n=32, base=tuple(range(2, 33)),
                                delta=3.0, gamma=0.5)
    perm = np.roll(np.arange(32), 5)           # canonical cell (i, j) lands at (i + 5, j + 5)
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(apply_perturbation(st_).entries[np.ix_(perm, perm)]))
    proc = run_cli("analyze", str(path), "--json")
    assert proc.returncode == 0
    cls = json.loads(proc.stdout)["classification"]
    assert cls["kind"] == "case2b"
    assert cls["positions"] == [[6, 7], [8, 9]]


@pytest.mark.parametrize("error", [NoConvergenceError(200_000, 1.8e-12),
                                   RootNotBracketedError("no sign change")])
def test_analyze_reports_numeric_failure(example1_file, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "power_iteration", fail)
    assert cli.main(["analyze", str(example1_file)]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {error}\n"


def test_pair_without_a_hit_is_a_tie(tmp_path, capsys):
    # a_12 a_21 = 1 + 5e-13: at --tol-tie 0, w_1/w_2 < a_12 and w_2/w_1 < a_21
    path = tmp_path / "m.txt"
    path.write_text("2\n1 2\n0.50000000000025 1\n")
    assert cli.main(["analyze", str(path), "--tol-tie", "0", "--json"]) == cli.EXIT_OK
    eff = json.loads(capsys.readouterr().out)["efficiency"]
    assert eff["efficient"] is True
    assert eff["arcs"] == [[1, 2], [2, 1]]


def test_sink_too_tight_to_improve_is_an_error(tmp_path, capsys):
    # rounding in w leaves this consistent matrix a sink at --tol-tie 0
    path = tmp_path / "m.txt"
    assert cli.main(["generate", "--family", "consistent", "--n", "5", "--seed", "0",
                     "--out", str(path)]) == cli.EXIT_OK
    assert cli.main(["analyze", str(path), "--tol-tie", "0"]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: sink (1-based) (4,) has slack ")
    assert err.endswith(" to dominate w in float arithmetic\n")


@pytest.mark.parametrize("option,value,bound", [
    ("--tol-tie", "-1", "at least"), ("--tol-tie", "nan", "at least"),
    ("--tol-tie", "inf", "at least"), ("--tol-consistency", "-1", "at least"),
    ("--tol-consistency", "nan", "at least"), ("--tol-consistency", "inf", "at least"),
    ("--tol-power", "0", "above"), ("--tol-power", "-1", "above"),
    ("--tol-power", "nan", "above"), ("--tol-power", "inf", "above"),
])
def test_bad_tolerance_is_a_usage_error(example1_file, capsys, option, value, bound):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", str(example1_file), option, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {option}: must be finite and {bound} 0, got {value}\n")


@pytest.mark.parametrize("value", ["1", "5"])
def test_tie_tolerance_from_1_up_is_a_usage_error(example1_file, capsys, value):
    # at 1 - tol <= 0 every pair would be a tie, and the inefficient example1 would pass
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", str(example1_file), "--tol-tie", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --tol-tie: must be below 1, got {value}\n")
    assert cli.main(["analyze", str(example1_file), "--tol-tie", "0.01"]) == cli.EXIT_INEFFICIENT


def test_analyze_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_analyze_exits_2_on_an_undecodable_file(tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_bytes("2\n1 2\n1/2 1\n".encode("utf-16"))
    assert cli.main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("parse error: line 1, column 1: undecodable byte 0xff at offset 0;"
                   " expected UTF-8\n")


def analyze_without_warnings(path, entries):
    """``analyze PATH --json`` on ``entries`` written to ``path``, with warnings as errors."""
    path.write_text(format_matrix(entries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli("analyze", str(path), "--json")


def test_analyze_takes_a_closed_form_that_fits_in_floats(tmp_path):
    # at base (1, 1, 1e306) form 3 of case1 overflows, and form 2 is the largest that fits
    a = apply_perturbation(PerturbationStructure(kind=PerturbationKind.CASE1, n=4,
                                                 base=(1.0, 1.0, 1e306), delta=50.0,
                                                 gamma=0.02)).entries
    for b in (a, a.T):
        proc = analyze_without_warnings(tmp_path / "m.txt", b)
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        closed = report["weights"]["closed_form"]
        assert closed["variant"] == 2
        w, lam = np.array(closed["w"]), closed["lambda_max"]
        assert np.all(np.abs(b @ w - lam * w) <= 1e-12 * lam * w)    # entry by entry
        if b is a:    # in the transpose, power iteration stops before its tiny entries settle
            assert np.allclose(w, report["weights"]["power_iteration"], rtol=1e-8, atol=0)


def test_analyze_names_a_repair_beyond_the_float_range(tmp_path):
    # the potentials fit, but the simple repair at (1, 2) puts node 1 first, and its
    # base then needs t_2 / t_1 = 1e-360 (1e360 in the transpose)
    a = np.ones((4, 4))
    for (i, j), v in {(0, 1): 1e200, (0, 2): 1e-160, (0, 3): 1e20, (1, 2): 1.0,
                      (1, 3): 1e-180, (2, 3): 1e180}.items():
        a[i, j], a[j, i] = v, 1.0 / v
    for b, log10 in [(a, -360.0), (a.T, 360.0)]:
        proc = analyze_without_warnings(tmp_path / "m.txt", b)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: the simple repair at cells (1-based) ((2, 3),) needs "
                               f"base ratio x_1 = 10^{log10}, beyond the float range\n")


def test_analyze_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 3\n0.5 1\n")      # reciprocity violation
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 1


def test_rounded_reciprocal_suggests_exact_ratios(tmp_path):
    path = tmp_path / "rounded.txt"
    path.write_text("3\n1 2 7\n1/2 1 3\n0.1429 1/3 1\n")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: entries (1-based) (1, 3) and (3, 1) multiply to 1.0003")
    assert "p/q" in proc.stderr


def test_analyze_names_a_bad_entry_1_based(tmp_path):
    # as the report labels its cells: row 1, column 2 of the file is (1, 2)
    path = tmp_path / "negative.txt"
    path.write_text("3\n1 -2 1\n-1/2 1 1\n1 1 1\n")
    proc = run_cli("analyze", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: entry (1-based) (1, 2) = -2.0 is not a positive finite real\n")


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
    assert proc.stdout == json.dumps(report, indent=2) + "\n"


# the orders of each family among 4, 8 and 16; case2b starts at 5
FAMILY_ORDERS = {"case2a": (4,), "case2b": (5, 8, 16), "example1": (None,)}


def analyzed_matrices():
    """(name, entries) of every family at n = 4, 8 and 16, and of a noisy PCM."""
    for family in FAMILIES:
        for n in FAMILY_ORDERS.get(family, (4, 8, 16)):
            m, _ = generate(GeneratorSpec(family, n=n, seed=5))
            yield f"{family}-n{m.n}", m.entries
    rng = np.random.default_rng(11)
    log_a = np.triu(rng.normal(0.0, 1.0, (9, 9)), 1)
    yield "noisy-n9", np.exp(log_a - log_a.T)


@pytest.mark.parametrize("name, entries", list(analyzed_matrices()))
def test_analyze_json_is_the_indented_json_of_the_report(tmp_path, name, entries):
    path = tmp_path / f"{name}.txt"
    path.write_text(format_matrix(entries))
    proc = run_cli("analyze", str(path), "--json")
    report, _ = cli._analysis_report(
        Pcm(load_matrix(str(path))), source={"path": str(path), "format": "txt"},
        tol_consistency=DEFAULT_CONSISTENCY_TOL, tie_tol=DEFAULT_TIE_TOL,
        power_tol=DEFAULT_POWER_TOL)
    report["timing_seconds"] = json.loads(proc.stdout)["timing_seconds"]
    assert proc.stdout == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("args", [("--lemmas", "all", "--samples", "1"),
                                  ("--theorem", "apq", "--samples", "3")])
def test_verify_json_is_the_indented_json_of_its_payload(args):
    proc = run_cli("verify", *args, "--json")
    assert proc.returncode == 0
    assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2) + "\n"


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_sidecar_is_the_indented_json_of_the_ground_truth(tmp_path, family):
    n = FAMILY_ORDERS.get(family, (4,))[0]
    out = tmp_path / "m.txt"
    assert run_cli("generate", "--family", family, *(("--n", str(n)) if n else ()),
                   "--seed", "2", "--out", str(out)).returncode == 0
    m, structure = generate(GeneratorSpec(family, n=n, seed=2))
    sidecar = {"schema_version": cli.SCHEMA_VERSION, "family": family, "n": m.n, "seed": 2,
               "ground_truth": cli._classification_dict(structure) if structure else None}
    if family == "apq":
        sidecar["p"], sidecar["q"] = float(m.entries[0, 1]), float(m.entries[1, 2])
    assert (tmp_path / "m.txt.json").read_text() == json.dumps(sidecar, indent=2) + "\n"


@pytest.mark.parametrize("args", [("apq", "--n", "4", "--seed", "3"),
                                  ("apq", "--n", "4", "--p", "2"),
                                  ("case1", "--n", "4", "--p", "2")])
def test_generate_sidecar_records_the_p_and_q_that_built_the_matrix(tmp_path, args):
    # drawn or given, apq's p and q are read back from the matrix; no other family reads them
    out = tmp_path / "m.txt"
    assert run_cli("generate", "--family", *args, "--out", str(out)).returncode == 0
    sidecar = json.loads((tmp_path / "m.txt.json").read_text())
    entries = load_matrix(str(out))
    if args[0] == "apq":
        assert (sidecar["p"], sidecar["q"]) == (entries[0, 1], entries[1, 2])
    else:
        assert "p" not in sidecar and "q" not in sidecar


# ----------------------------------------------------------- the json writer

class Grade(enum.IntEnum):
    HIGH = 3


# values that a careless writer could take for others, or that it must escape
NUMBERS = [0, 1, 0.0, 1.0, -0.0, 0.1, 5e-324, -2.2250738585072014e-308, 1e16, 1e-7,
           2**1024, -(2**1100), math.nan, math.inf, -math.inf]    # 1 == 1.0 == True
OTHERS = [None, True, False, np.float64(1.5), np.float64(math.inf), Grade.HIGH]
TEXTS = ["", "[", "]", ",", ", ", '", "', ": ", '"', "\\", "{", "}", "\n", "\t", "\x00",
         "\x1f", "\x7f", "n", "é", "\u2028", "\U0001f600", "\ud800", "\udfff", "a b"]
numbers = st.sampled_from(NUMBERS) | st.integers() | st.floats()
texts = st.lists(st.sampled_from(TEXTS), max_size=3).map("".join) | st.text(max_size=3)
number_lists = st.lists(numbers, max_size=5) | st.lists(numbers | st.booleans(), max_size=5)
leaves = st.one_of(
    st.sampled_from(NUMBERS + OTHERS + TEXTS), numbers, texts, number_lists,
    st.lists(number_lists, max_size=4),          # ragged, and lists of empty lists
    st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(numbers, max_size=3).map(tuple),
    st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), numbers,
                    min_size=1, max_size=2),
)
json_trees = st.recursive(leaves, lambda children: (
    st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(json_trees)
def test_json_writer_equals_indented_json_dumps(tree):
    assert cli._json(tree) == json.dumps(tree, indent=2)


def test_text_and_json_values_agree(example1_file):
    # example1, and a classified double-perturbed matrix, whose text shows both weight routes
    double = example1_file.parent / "case2b.txt"
    assert run_cli("generate", "--family", "case2b", "--n", "6", "--seed", "7",
                   "--out", str(double)).returncode == 0
    for path, labels in [
        (example1_file, ("order", "lambda_max", "w (power iteration)", "efficient",
                         "sink component (1-based)", "dominating vector")),
        (double, ("order", "perturbed cells (1-based)", "delta", "gamma", "base", "lambda_max",
                  "w (power iteration)", "w (closed form, variant 3)",
                  "lambda_max (closed form)", "efficient")),
    ]:
        assert_text_agrees_with_json(path, labels)


def assert_text_agrees_with_json(path, labels):
    """``analyze``'s text shows exactly the ``labels`` lines, each with its ``--json`` value."""
    report = json.loads(run_cli("analyze", str(path), "--json").stdout)
    text = run_cli("analyze", str(path)).stdout
    lines = dict(line.strip().split(": ", 1) for line in text.splitlines())
    cls, weights, eff = report["classification"], report["weights"], report["efficiency"]
    assert lines.pop("classification") == cls["kind"]
    closed = weights["closed_form"] or {}
    values = {
        "order": report["n"], "perturbed cells (1-based)": cls["positions"],
        "delta": cls["delta"], "gamma": cls["gamma"], "base": cls["base"],
        "lambda_max": report["lambda_max"], "w (power iteration)": weights["power_iteration"],
        f"w (closed form, variant {closed.get('variant')})": closed.get("w"),
        "lambda_max (closed form)": closed.get("lambda_max"),
        "efficient": eff["efficient"], "sink component (1-based)": eff["sink"],
        "dominating vector": eff["improvement"],
    }
    assert {label: ast.literal_eval(text) for label, text in lines.items()} == {
        label: values[label] for label in labels}


def test_dot_export_failure_keeps_the_old_file(example1_file, tmp_path, monkeypatch):
    dot = tmp_path / "g.dot"
    dot.write_text("prior content\n")

    def fail(digraph):
        raise OSError("cannot render")

    monkeypatch.setattr(cli, "to_dot", fail)
    proc = run_cli("analyze", str(example1_file), "--digraph-dot", str(dot))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: cannot render\n")
    assert dot.read_text() == "prior content\n"


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


@pytest.mark.parametrize("args", [
    ("analyze", "{dir}/example1.txt", "--json", "--digraph-dot", "{dir}/missing/g.dot"),
    ("generate", "--family", "example1", "--out", "{dir}/missing/m.txt"),
    ("generate", "--family", "example1", "--out", "{dir}/m.txt",
     "--sidecar", "{dir}/missing/m.json"),
    ("generate", "--family", "example1", "--sidecar", "{dir}/missing/m.json"),
])
def test_unwritable_output_is_an_error(example1_file, args):
    kept = example1_file.parent / "m.txt"
    kept.write_text("prior content\n")
    proc = run_cli(*(a.format(dir=example1_file.parent) for a in args))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 2]")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    # a failed run changes no file: --out m.txt keeps what it held
    assert kept.read_text() == "prior content\n"
    assert sorted(p.name for p in example1_file.parent.iterdir()) == ["example1.txt", "m.txt"]


@pytest.mark.parametrize("args", [("analyze", "{dir}/example1.txt", "--digraph-dot", "{dir}/d"),
                                  ("generate", "--family", "example1", "--out", "{dir}/d")])
def test_a_directory_as_output_is_named_in_the_error(example1_file, args):
    # the error names the path asked for, not the temporary file written beside it
    target = example1_file.parent / "d"
    target.mkdir()
    proc = run_cli(*(a.format(dir=example1_file.parent) for a in args))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
    assert sorted(p.name for p in example1_file.parent.iterdir()) == ["d", "example1.txt"]


@pytest.mark.parametrize("args, unbuffered", [
    pytest.param(("analyze", "{dir}/example1.txt", "--json"), False, id="analyze"),
    pytest.param(("analyze", "{dir}/example1.txt", "--json"), True, id="analyze-unbuffered"),
    pytest.param(("generate", "--family", "case2b", "--n", "6"), False, id="generate"),
    pytest.param(("verify", "--lemmas", "2a", "--samples", "1", "--json"), False, id="verify"),
])
def test_a_closed_stdout_is_one_error_line(example1_file, args, unbuffered):
    # buffered, the report reaches the closed pipe only when stdout is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "pcmeff",
                               *(a.format(dir=example1_file.parent) for a in args)],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr


def test_a_directory_among_the_outputs_changes_no_file(example1_file):
    kept, target = example1_file.parent / "m.txt", example1_file.parent / "d"
    kept.write_text("old\n")
    target.mkdir()
    proc = run_cli("generate", "--family", "example1", "--out", str(kept), "--sidecar", str(target))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
    assert kept.read_text() == "old\n"
    assert sorted(p.name for p in example1_file.parent.iterdir()) == ["d", "example1.txt", "m.txt"]


def test_out_and_sidecar_on_one_file_is_a_usage_error(example1_file, capsys):
    kept = example1_file.parent / "m.txt"
    kept.write_text("prior content\n")
    same = example1_file.parent / "." / "m.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--family", "example1", "--out", str(kept), "--sidecar", str(same)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--out and --sidecar name the same file" in err
    assert kept.read_text() == "prior content\n"
    assert sorted(p.name for p in example1_file.parent.iterdir()) == ["example1.txt", "m.txt"]


def test_main_builds_one_parser(example1_file, capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["analyze", str(example1_file), "--json"]) == cli.EXIT_INEFFICIENT
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


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


def test_generate_names_a_bad_factor():
    proc = run_cli("generate", "--family", "case1", "--n", "5", "--delta", "0")
    assert proc.returncode == 1
    assert proc.stderr == "error: delta must be a positive finite real, got 0.0\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("args, cell", [
    pytest.param(("--family", "simple", "--n", "3", "--delta", "5e-324"), (2, 1),
                 id="tiny-delta"),
    pytest.param(("--family", "case1", "--n", "4", "--delta", "1e308", "--seed", "0"), (1, 2),
                 id="huge-delta"),
])
def test_generate_reports_an_overflowing_factor_in_one_line(args, cell):
    # a new process prints any RuntimeWarning as the console would
    proc = run_process("generate", *args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: entry (1-based) {cell} = inf is not a positive finite real\n"


@pytest.mark.parametrize("family, option", [("case1", "--delta"), ("case1", "--gamma"),
                                            ("case2b", "--gamma"), ("simple", "--delta")])
def test_generate_rejects_a_unit_factor(tmp_path, capsys, family, option):
    # a factor of (nearly) 1 leaves its cell unperturbed: the sidecar would name the wrong kind
    out = tmp_path / "m.txt"
    for value in ("1", repr(1 + 1e-13), "0.9995"):
        assert cli.main(["generate", "--family", family, "--n", "5", option, value,
                         "--out", str(out)]) == cli.EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {option[2:]} must differ from 1 for family "
                                           f"{family!r}\n")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [("verify", "--theorem", "apq", "--samples", "2"),
                                  ("generate", "--family", "case1", "--n", "5")])
def test_negative_seed_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --seed: must be at least 0, got -1\n")


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


@pytest.mark.parametrize("mode", [("--lemmas", "all"), ("--theorem", "main")])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_fewer_than_one_sample(mode, samples, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *mode, "--samples", samples])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--samples: must be at least 1" in err


def test_lemma_sweep_matches_the_saved_report(capsys):
    assert cli.main(["verify", "--lemmas", "all", "--samples", "64", "--seed", "42",
                     "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    saved = json.loads(SAVED_LEMMA_REPORT.read_text())
    margins = [[c.pop("min_margin") for c in r["checks"]] for r in (report, saved)]
    assert report == saved
    assert margins[0] == pytest.approx(margins[1], rel=1e-12, abs=0)


def test_verify_unknown_lemma_id():
    for ids in ("9z", "1a,9z,positivity"):
        proc = run_cli("verify", "--lemmas", ids)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: unknown check ids ['9z']\n")


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
    assert run_cli("verify").returncode == 2
    assert run_cli("verify", "--lemmas", "all", "--theorem", "main").returncode == 2


@pytest.mark.parametrize("args", [
    pytest.param(("verify", "--lemmas", "all", "--samples", "16", "--json"), id="lemmas"),
    pytest.param(("verify", "--theorem", "main", "--samples", "20", "--json"), id="theorem"),
    pytest.param(("analyze", "{path}", "--json"), id="analyze"),
])
def test_no_command_imports_numpy_ma(tmp_path, args):
    # np.unique imports numpy.ma, which adds about 1.2 MB to a process's peak RSS
    path = tmp_path / "case1.txt"
    assert run_cli("generate", "--family", "case1", "--n", "6", "--seed", "3",
                   "--out", str(path)).returncode == 0
    probe = ("import sys; from pcmeff import cli; code = cli.main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules, file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe, *(a.format(path=path) for a in args)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "False\n")
