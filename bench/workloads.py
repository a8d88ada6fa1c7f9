"""One benchmark workload, run in a fresh Python process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

The process writes the workload's seeded inputs under ``DIR``, then runs
the workload as a closed loop with one client: the next operation starts
when the previous one has returned.  It measures whole passes over the
inputs until ``S`` seconds have gone by, checks every output, and prints
one JSON object on its last line.

Workloads, and why each was chosen:

analyze-corpus
    ``pcmeff analyze FILE --json`` in-process over matrix files of orders
    4-16 from every generator family plus unstructured random PCMs.  The
    single-matrix path users run; brute-force classification
    (``pcm.classify_perturbation``) dominates at n >= 10 while consistent
    and simple inputs stop early.  Bypasses verification and generators.
lemma-sweep
    ``verify --lemmas all`` at a fixed sample count.  Stresses the
    closed-form root finder, power iteration and perturbed-matrix
    construction (``spectral``, ``pcm.apply_perturbation``); never
    classifies, loads a file or searches for an improvement.
weights-large
    The library path ``load_matrix -> Pcm -> power_iteration ->
    is_efficient -> find_sink_improvement`` on files of order 32-128.
    Parsing, ``Pcm`` validation and the efficiency digraph dominate here
    and nowhere else; ``analyze`` cannot run at these orders because
    brute-force classification stalls beyond n ~ 20.  Bypasses
    classification, closed forms and verification.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

from pcmeff import cli, efficiency, matrixio, pcm, spectral
from pcmeff.generators import FAMILIES, GeneratorSpec, generate

from checks import Gate, analyze_checks, lemma_checks, weights_checks
from reference import REFERENCE_NOMINAL_MS, reference_ms
from spans import Tracer, installed_wrappers, layer_metrics

WORKLOADS = ("analyze-corpus", "lemma-sweep", "weights-large")

ANALYZE_ORDERS = (4, 8, 10, 12, 14, 16)
WEIGHTS_ORDERS = (32, 64, 128)
ANALYZE_FAMILIES = ("consistent", "simple", "case1", "case2b", "apq", "random")
# n = 4 adds the two families that exist only at that order.  n = 8 has its
# four full searches twice (~13 ms each, like simple n = 14): the median
# file then sits in the middle of a block of nine similar costs, with 15
# cheaper and 17 dearer files around it, so it does not jump between the
# costs of two different files.
ANALYZE_FAMILIES_AT = {
    4: ("consistent", "simple", "case1", "case2a", "apq", "example1", "random"),
    8: ANALYZE_FAMILIES + ("case1", "case2b", "apq", "random"),
}
# five files per order: an odd count per pass keeps the median off the
# boundary between two files' costs
WEIGHTS_FAMILIES = ("consistent", "case1", "case2b", "apq", "random")
RANDOM_LOG_SIGMA = 0.5

LEMMA_SAMPLES = 64
# What the verify grid for --samples 64 implies: one base per grid cell
# (four in the 4x4 disjoint-row case), each check counted over its
# hypothesis region; the seed moves only the bases.
LEMMA_COUNTS = {
    "1a": 130, "1b": 130, "1c": 130, "1d": 130, "1e": 80, "1f": 80, "1g": 320, "1h": 320,
    "1i": 320, "1j": 256, "2a": 256, "2b": 64, "2c": 64, "2d": 64, "2e": 64, "2f": 64,
    "2g": 64, "2h": 64, "2i": 64, "2j": 256, "3a": 256, "3b": 256, "3c": 256, "3d": 256,
    "3e": 256, "3f": 256, "3g": 256, "3h": 192, "positivity": 832, "cycle": 792,
}
# perturbed upper-triangle cells of each canonical form (0-based)
CANONICAL_CELLS = {
    "consistent": (), "simple": ((0, 1),), "case1": ((0, 1), (0, 2)),
    "case2a": ((0, 1), (2, 3)), "case2b": ((0, 1), (2, 3)),
}
# theory: double- and simple-perturbed eigenvectors are efficient, the
# worked example and the parametric family are not
EXPECTED_EFFICIENT = {
    "consistent": True, "simple": True, "case1": True, "case2a": True, "case2b": True,
    "example1": False, "apq": False, "random": None,
}

# every check each workload must have run at least once for a correct result
REQUIRED_CHECKS = {
    "analyze-corpus": ("exit_code", "verdict_oracle", "verdict_theory", "kind", "positions",
                       "lambda_routes", "dominates", "no_improvement"),
    "lemma-sweep": ("exit_code", "passed", "sample_counts"),
    "weights-large": ("verdict_oracle", "verdict_theory", "dominates", "no_improvement"),
}

_LAYER_STATS = {
    "matrixio.load_matrix": ("calls", "self_ms", "bytes"),
    "pcm.Pcm": ("calls", "self_ms", "entries"),
    "pcm.apply_perturbation": ("calls", "self_ms"),
    "pcm.classify_perturbation": ("calls", "self_ms", "share"),
    "spectral.power_iteration": ("calls", "self_ms", "share", "iterations"),
    "spectral.lambda_max_closed_form": ("calls", "self_ms", "share"),
    "spectral.raw_variant_vector": ("calls", "self_ms"),
    "spectral.closed_form_eigenvector": ("calls", "self_ms"),
    "efficiency.is_efficient": ("calls", "self_ms", "share", "arcs", "inefficient"),
    "efficiency.find_sink_improvement": ("calls", "self_ms"),
    "verification.sweep": ("self_ms",),
    "verification.check_lemma": ("calls", "self_ms"),
    "generators.sample": ("calls", "self_ms"),
    "cli.main": ("self_ms",),
}
_ORDER_MEDIANS = {
    "pcm.classify_perturbation": ANALYZE_ORDERS,
    "pcm.Pcm": ANALYZE_ORDERS + WEIGHTS_ORDERS,
    "efficiency.is_efficient": WEIGHTS_ORDERS,
}
KINDS = ("consistent", "simple", "case1", "case2a", "case2b", "other")

PER_LAYER = (
    [f"{layer}.{stat}" for layer, stats in _LAYER_STATS.items() for stat in stats]
    + [f"{layer}.n{n}.p50_ms" for layer, orders in _ORDER_MEDIANS.items() for n in orders]
    + [f"pcm.classify_perturbation.kind.{kind}" for kind in KINDS]
    + ["trace.overhead_pct", "trace.coverage"]
)


def random_pcm(n: int, rng: np.random.Generator) -> np.ndarray:
    """Consistent PCM times log-normal, skew-symmetric noise."""
    log_x = rng.uniform(np.log(1 / 9), np.log(9), n)
    log_a = log_x[None, :] - log_x[:, None] + rng.normal(0.0, RANDOM_LOG_SIGMA, (n, n))
    a = np.exp(np.triu(log_a, 1))
    lower = np.tril_indices(n, -1)
    a[lower] = 1.0 / a.T[lower]
    np.fill_diagonal(a, 1.0)
    return a


def make_input(family: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """A relabeled matrix of the family and its ground truth (1-based positions).

    ``rng`` draws the matrix's values; the relabeling depends only on the
    family and the order.
    """
    if family == "random":
        return random_pcm(n, rng), {"kind": "other", "positions": [],
                                    "efficient": EXPECTED_EFFICIENT[family]}
    spec = GeneratorSpec(family, n=None if family == "example1" else n,
                         seed=int(rng.integers(2**31)))
    m, _ = generate(spec)
    # the relabeling is part of the corpus's shape, fixed for every seed: where
    # the perturbed cells sit decides how long the brute-force search runs
    perm = np.random.default_rng([n, FAMILIES.index(family)]).permutation(n)
    truth = {"kind": None, "positions": None, "efficient": EXPECTED_EFFICIENT[family]}
    if family in CANONICAL_CELLS:
        cells = sorted(tuple(sorted((int(perm[i]), int(perm[j]))))
                       for i, j in CANONICAL_CELLS[family])
        truth["kind"] = family
        truth["positions"] = [[i + 1, j + 1] for i, j in cells]
    a = np.empty_like(m.entries)
    a[np.ix_(perm, perm)] = m.entries    # alternative i is renamed perm[i]
    return a, truth


def write_corpus(work: str, orders, families_at, rng) -> list[tuple[str, dict]]:
    """Write one file per (order, family) with a .json ground-truth sidecar."""
    corpus = []
    for n in orders:
        for family in families_at(n):
            a, truth = make_input(family, n, rng)
            path = os.path.join(work, f"{len(corpus):02d}-{family}-n{n}.txt")
            rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in a)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{n}\n{rows}\n")
            truth = {"family": family, "n": n, **truth}
            with open(path + ".json", "w", encoding="utf-8") as fh:
                json.dump(truth, fh)
            corpus.append((path, truth))
    return corpus


def run_cli(argv: list[str]) -> tuple[float, int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - t0
    return elapsed, code, json.loads(buf.getvalue())


def analyze_workload(work: str, seed: int):
    rng = np.random.default_rng([seed, 1])
    corpus = write_corpus(work, ANALYZE_ORDERS,
                          lambda n: ANALYZE_FAMILIES_AT.get(n, ANALYZE_FAMILIES), rng)
    # loaded before any tracing, so checks add no spans
    matrices = [pcm.Pcm(matrixio.load_matrix(path)) for path, _ in corpus]

    def op(path, truth, m):
        elapsed, code, report = run_cli(["analyze", path, "--json"])
        return elapsed, 1, analyze_checks(code, report, truth, m)

    return [lambda p=p, t=t, m=m: op(p, t, m) for (p, t), m in zip(corpus, matrices)]


def lemma_workload(work: str, seed: int):
    def op():
        elapsed, code, payload = run_cli(
            ["verify", "--lemmas", "all", "--samples", str(LEMMA_SAMPLES),
             "--seed", str(seed), "--json"])
        evaluations = sum(c["samples"] for c in payload["checks"])
        return elapsed, evaluations, lemma_checks(code, payload, LEMMA_COUNTS)

    return [op]


def weights_workload(work: str, seed: int):
    rng = np.random.default_rng([seed, 4])
    corpus = write_corpus(work, WEIGHTS_ORDERS, lambda n: WEIGHTS_FAMILIES, rng)

    def op(path, truth):
        t0 = perf_counter()
        m = pcm.Pcm(matrixio.load_matrix(path))
        result = spectral.power_iteration(m)
        verdict = efficiency.is_efficient(m, result.w)
        improvement = efficiency.find_sink_improvement(m, result.w, verdict)
        elapsed = perf_counter() - t0
        return elapsed, 1, weights_checks(m, result.w, verdict, improvement, truth["efficient"])

    return [lambda p=p, t=t: op(p, t) for p, t in corpus]


WORKLOAD_OPS = {
    "analyze-corpus": analyze_workload,
    "lemma-sweep": lemma_workload,
    "weights-large": weights_workload,
}


REFERENCE_EVERY_S = 0.25


def run_passes(ops, gate: Gate, seconds: float | None = None, passes: int | None = None,
               scaled: list[float] | None = None) -> tuple[int, list[float], int]:
    """Run whole passes over ``ops``, a fixed number or until ``seconds`` have gone by.

    Returns (passes run, elapsed time of each operation, work units done).
    With a ``scaled`` list, the reference computation is timed before an
    operation whenever REFERENCE_EVERY_S have gone by since it last was,
    and each operation's time at reference speed is appended to ``scaled``.
    """
    times: list[float] = []
    units = 0
    start = perf_counter()
    last_reference, speed = float("-inf"), 1.0
    done = 0
    while (done < passes) if passes is not None else (
            done == 0 or perf_counter() - start < seconds):
        for op in ops:
            if scaled is not None and perf_counter() - last_reference >= REFERENCE_EVERY_S:
                speed = REFERENCE_NOMINAL_MS / reference_ms()
                last_reference = perf_counter()
            try:
                elapsed, n_units, checks = op()
                ok = gate.record(checks)
            except Exception as exc:  # a crashed operation counts as failed
                gate.crash(f"pass {done}", exc)
                continue
            if ok:
                times.append(elapsed)
                units += n_units
                if scaled is not None:
                    scaled.append(elapsed * speed)
        done += 1
    return done, times, units


TAIL_CANDIDATES = (50, 90, 99, 99.9)


def tail_percentile(count: int) -> float | None:
    """Highest of TAIL_CANDIDATES with at least ten of ``count`` samples beyond it."""
    fit = [p for p in TAIL_CANDIDATES if count * (100 - p) / 100 >= 10 - 1e-9]
    return max(fit) if fit else None


def percentile(values, p: float) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def _refuse_wrappers() -> None:
    wrapped = installed_wrappers()
    if wrapped:
        raise RuntimeError(f"untraced pass found span wrappers on {wrapped}")


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    ops = WORKLOAD_OPS[workload](work, seed)
    gate = Gate()
    out = {"workload": workload, "seed": seed, "numpy": np.__version__,
           "python": sys.version.split()[0]}
    if not trace:
        _refuse_wrappers()
        scaled: list[float] = []
        passes, times, units = run_passes(ops, gate, seconds=seconds, scaled=scaled)
        out["timing"] = {"passes": passes, "samples": len(times),
                         "p50_ms": percentile(times, 50) * 1e3, "per_s": units / sum(times),
                         "p50_ref_ms": percentile(scaled, 50) * 1e3,
                         "per_ref_s": units / sum(scaled)}
        tail = tail_percentile(len(times))
        out["timing"]["tail"] = {"percentile": tail, "ms": percentile(times, tail) * 1e3} \
            if tail is not None and tail > 50 else None
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # untraced and traced passes alternate, so that a drift in machine
        # speed during the run does not show as tracing overhead
        tracer = Tracer()
        plain, traced = [], []
        passes = 0
        start = perf_counter()
        while passes == 0 or perf_counter() - start < seconds:
            _refuse_wrappers()
            plain += run_passes(ops, gate, passes=1)[1]
            with tracer.installed():
                traced += run_passes(ops, gate, passes=1)[1]
            passes += 1
        _refuse_wrappers()
        wall = sum(traced)
        layers = layer_metrics(tracer.spans, tracer.counts, wall, passes)
        layers["trace.overhead_pct"] = (wall / sum(plain) - 1.0) * 100
        out["layers"] = {name: layers.get(name, 0.0) for name in PER_LAYER}
        out["timing"] = {"passes": passes, "untraced_s": sum(plain), "traced_s": wall}
    out.update(attempted=gate.attempted, failed=gate.failed, checks_run=dict(gate.ran),
               checks_missing=[c for c in REQUIRED_CHECKS[workload] if not gate.ran[c]],
               errors=gate.errors)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True, help="the src directory pcmeff must come from")
    args = parser.parse_args(argv)

    origin = os.path.realpath(os.path.dirname(cli.__file__))
    expected = os.path.realpath(os.path.join(args.src, "pcmeff"))
    if origin != expected:
        print(f"pcmeff imported from {origin}, expected {expected}", file=sys.stderr)
        return 2
    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
