"""pcmeff benchmark: one command, three seeded workloads, every metric by name.

Run from the root of a checkout::

    python3 bench/run.py --workload analyze-corpus --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics, measured with tracing off; with
``--trace 1`` they are the per-layer metrics of a separate traced run.
The full record (environment, named metrics, checks that ran, errors) is
written to ``.bench_work/results/`` and summarized above that line.

The workload runs in one fresh Python process with BLAS and OpenMP pinned
to one thread (``bench/workloads.py`` describes the workloads).  Set-up
time is measured apart from it: the median time for a fresh interpreter
to import ``pcmeff.cli``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("analyze-corpus", "lemma-sweep", "weights-large")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 170

# the names each workload's latency and throughput are known by to its users,
# which the full record carries beside the shared names p50_ms and per_s
NAMES = {
    "analyze-corpus": ("analyze_p50_ms", "analyze_per_s", "files/s"),
    "lemma-sweep": ("lemma_sweep_s", "lemma_checks_per_s", "checks/s"),
    "weights-large": ("weights_p50_ms", "weights_per_s", "matrices/s"),
}

# ROADMAP Baseline, single runs at re-anchor (ms; classification on case2b)
BASELINE_MS = {
    "pcm.classify_perturbation": {4: 0.4, 8: 16, 12: 151, 16: 762},
    "pcm.Pcm": {4: 0.04, 8: 0.13, 12: 0.30, 16: 0.56, 32: 2.1},
    "efficiency.is_efficient": {32: 0.65},
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def run_child(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {argv[:2]} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(repeats: int) -> list[float]:
    """Import time of pcmeff.cli in ``repeats`` fresh interpreters."""
    probe = ("import time; t = time.perf_counter(); import pcmeff.cli; "
             "print(time.perf_counter() - t)")
    return [float(run_child(["-c", probe])) for _ in range(repeats)]


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pcmeff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "pythonhashseed": "0",
    }


def summarize(record: dict) -> list[str]:
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']}: {record['attempted']} attempted, "
             f"{record['failed']} failed"]
    for name, m in record["named_metrics"].items():
        lines.append(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for error in record["errors"]:
        lines.append(f"  error: {error}")
    for layer, rows in record.get("order_medians", {}).items():
        lines.append(f"  {layer} median ms by order (ROADMAP baseline):")
        for n, (value, base) in rows.items():
            lines.append(f"    n={n:<4} {value:10.4g}   ({base if base is not None else '-'})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pcmeff benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pcmeff", "cli.py")):
        print(f"no pcmeff sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    # one warm-up import, then half the samples before the workload and half
    # after it, so that the median spans the run's changes in host speed
    setup = setup_seconds(SETUP_REPEATS // 2 + 1)[1:] if not args.trace else None
    out = json.loads(run_child([
        os.path.join(HERE, "workloads.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--src", SRC,
        "--work", os.path.join(WORK, f"{args.workload}-{args.seed}"),
    ]).splitlines()[-1])
    env.update(numpy=out["numpy"], workload_python=out["python"])
    if setup is not None:
        setup += setup_seconds(SETUP_REPEATS - len(setup))

    attempted, failed = out["attempted"], out["failed"]
    correct = failed == 0 and attempted > 0 and not out["checks_missing"]

    if not args.trace:
        t = out["timing"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "p50_ref_ms": {"value": t["p50_ref_ms"], "unit": "ms"},
            "per_ref_s": {"value": t["per_ref_s"], "unit": "1/s"},
        }
        latency, throughput, unit = NAMES[args.workload]
        named = {
            **metrics,
            "error_rate": {"value": failed / attempted, "unit": "ratio"},
            "p50_ms": {"value": t["p50_ms"], "unit": "ms"},
            "per_s": {"value": t["per_s"], "unit": "1/s"},
        }
        if latency.endswith("_ms"):
            named[latency] = named["p50_ms"]
        else:
            named[latency] = {"value": t["p50_ms"] / 1e3, "unit": "s"}
        if t["tail"] is not None and latency.endswith("p50_ms"):
            tail = latency.replace("p50", f"p{t['tail']['percentile']:g}")
            named[tail] = {"value": t["tail"]["ms"], "unit": "ms"}
        named[throughput] = {"value": t["per_s"], "unit": unit}
        named["samples"] = {"value": t["samples"], "unit": "count"}
    else:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in out["layers"].items()}
        named = metrics

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_samples_s": setup,
        "timing": out["timing"], "named_metrics": named, "checks_run": out["checks_run"],
        "checks_missing": out["checks_missing"],
        "attempted": attempted, "failed": failed, "errors": out["errors"],
    }
    if args.trace:
        record["order_medians"] = order_medians(out["layers"])
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print("\n".join(summarize(record)))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith((".share", ".coverage")):
        return "fraction"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def order_medians(layers: dict) -> dict:
    """Per-order medians of the layers the ROADMAP Baseline tracks, beside it."""
    table = {}
    for layer, baseline in BASELINE_MS.items():
        rows = {}
        for name, value in layers.items():
            if name.startswith(layer + ".n") and name.endswith(".p50_ms") and value:
                n = int(name[len(layer) + 2:-len(".p50_ms")])
                rows[n] = (value, baseline.get(n))
        if rows:
            table[layer] = dict(sorted(rows.items()))
    return table


if __name__ == "__main__":
    sys.exit(main())
