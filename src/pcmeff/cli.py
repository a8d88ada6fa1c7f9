"""Command-line front end.

``analyze`` ingests a matrix file and reports perturbation structure, the
principal eigenpair (both computation routes when the closed forms apply),
and the efficiency verdict with its certificate.  ``generate`` writes
matrices from the built-in families together with a ground-truth sidecar.
``verify`` runs the inequality suite or the theorem-level sweeps.  Every
command takes ``--json`` for machine-readable output carrying the same
numbers as the text rendering.

Exit codes: analyze 0 = efficient, 3 = inefficient, 2 = parse error,
1 = any other error; generate/verify 0 = success/all passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .efficiency import DEFAULT_TIE_TOL, find_sink_improvement, is_efficient, to_dot
from .errors import NoConvergenceError, ParseError, PcmError, RootNotBracketedError
from .generators import FAMILIES, GeneratorSpec, generate
from .matrixio import FORMATS, format_matrix, load_matrix
from .pcm import DEFAULT_CONSISTENCY_TOL, DOUBLE_KINDS, PerturbationKind, Pcm, classify_perturbation
from .spectral import DEFAULT_POWER_TOL, closed_form_eigenvector, power_iteration
from .verification import (
    ALL_CHECK_IDS,
    LEMMAS,
    SuiteGrid,
    run_lemma_suite,
    verify_main_theorem,
    verify_parametric_inefficiency,
    verify_simple_perturbed_efficiency,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INEFFICIENT = 3


def _one_based(pairs) -> list[list[int]]:
    return [[i + 1, j + 1] for i, j in pairs]


def _classification_dict(structure) -> dict:
    return {
        "kind": structure.kind.value,
        "base": list(structure.base) if structure.base is not None else None,
        "delta": structure.delta,
        "gamma": structure.gamma,
        "positions": _one_based(structure.positions),
        "permutation": [p + 1 for p in structure.permutation]
        if structure.permutation is not None else None,
        "alternatives": [_one_based(alt) for alt in structure.alternatives],
    }


def _analysis_report(m: Pcm, source: dict, tol_consistency: float, tie_tol: float,
                     power_tol: float):
    """The analyze report, and the efficiency verdict it was built from."""
    t0 = time.perf_counter()
    structure = classify_perturbation(m, tol_consistency)
    spectral = power_iteration(m, tol=power_tol)
    verdict = is_efficient(m, spectral.w, tie_tol)

    closed = None
    if structure.kind in DOUBLE_KINDS:
        result = closed_form_eigenvector(structure)
        perm = list(structure.permutation)
        w = np.empty_like(result.w)
        w[perm] = result.w
        closed = {
            "w": w.tolist(),
            "lambda_max": result.lambda_max,
            "variant": result.variant,
        }

    improvement = find_sink_improvement(m, spectral.w, verdict)

    return {
        "schema_version": SCHEMA_VERSION,
        "input": source,
        "n": m.n,
        "classification": _classification_dict(structure),
        "lambda_max": spectral.lambda_max,
        "weights": {
            "power_iteration": spectral.w.tolist(),
            "residual": spectral.residual,
            "iterations": spectral.iterations,
            "closed_form": closed,
        },
        "efficiency": {
            "efficient": verdict.efficient,
            "sccs": [list(c + 1 for c in comp) for comp in verdict.sccs],
            "sink": [i + 1 for i in verdict.sink] if verdict.sink is not None else None,
            "arcs": _one_based(verdict.digraph.sorted_arcs()),
            "improvement": improvement.tolist() if improvement is not None else None,
        },
        "lemma_suite": None,    # kept for schema 1; the sweep is `verify --lemmas`
        "timing_seconds": time.perf_counter() - t0,
    }, verdict


def _print_analysis_text(report: dict, out) -> None:
    cls = report["classification"]
    print(f"order: {report['n']}", file=out)
    print(f"classification: {cls['kind']}", file=out)
    if cls["positions"]:
        print(f"  perturbed cells (1-based): {cls['positions']}", file=out)
    if cls["delta"] is not None:
        print(f"  delta: {cls['delta']}", file=out)
    if cls["gamma"] is not None:
        print(f"  gamma: {cls['gamma']}", file=out)
    if cls["base"] is not None:
        print(f"  base: {[v for v in cls['base']]}", file=out)
    print(f"lambda_max: {report['lambda_max']}", file=out)
    weights = report["weights"]
    print(f"w (power iteration): {weights['power_iteration']}", file=out)
    if weights["closed_form"] is not None:
        closed = weights["closed_form"]
        print(f"w (closed form, variant {closed['variant']}): {closed['w']}", file=out)
        print(f"lambda_max (closed form): {closed['lambda_max']}", file=out)
    eff = report["efficiency"]
    print(f"efficient: {eff['efficient']}", file=out)
    if eff["sink"] is not None:
        print(f"  sink component (1-based): {eff['sink']}", file=out)
        print(f"  dominating vector: {eff['improvement']}", file=out)


def _cmd_analyze(args) -> int:
    try:
        entries = load_matrix(args.path, args.format)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        m = Pcm(entries)
    except PcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        report, verdict = _analysis_report(
            m,
            source={"path": args.path, "format": args.format},
            tol_consistency=args.tol_consistency,
            tie_tol=args.tol_tie,
            power_tol=args.tol_power,
        )
    except (NoConvergenceError, RootNotBracketedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.digraph_dot:
        with open(args.digraph_dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(verdict.digraph))
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        _print_analysis_text(report, sys.stdout)
    return EXIT_OK if report["efficiency"]["efficient"] else EXIT_INEFFICIENT


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family, n=args.n, delta=args.delta, gamma=args.gamma,
        p=args.p, q=args.q, seed=args.seed,
    )
    try:
        m, structure = generate(spec)
    except PcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    text = format_matrix(m.entries)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "n": m.n,
        "seed": args.seed,
        "ground_truth": _classification_dict(structure) if structure is not None else None,
    }
    if args.p is not None or args.q is not None:
        sidecar["p"], sidecar["q"] = args.p, args.q
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        sidecar_path = args.sidecar or args.out + ".json"
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        if args.sidecar:
            with open(args.sidecar, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=2)
                fh.write("\n")
    return EXIT_OK


def _suite_grid_for(samples: int) -> SuiteGrid:
    # sized so every check collects at least `samples` grid points: each
    # base count covers the smallest hypothesis region among the kinds it feeds
    grid = SuiteGrid()
    region = {kind: min(sum(lem.hypothesis(d, g, n) for n in grid.orders(kind)
                            for d in grid.ratio_values for g in grid.ratio_values)
                        for lem in LEMMAS.values() if lem.kind == kind)
              for kind in DOUBLE_KINDS}
    case2a = region.pop(PerturbationKind.CASE2A)
    return SuiteGrid(bases_per_cell=max(1, math.ceil(samples / min(region.values()))),
                     bases_per_cell_case2a=max(1, math.ceil(samples / case2a)))


def _cmd_verify(args) -> int:
    if (args.lemmas is None) == (args.theorem is None):
        print("error: choose exactly one of --lemmas or --theorem", file=sys.stderr)
        return EXIT_ERROR

    if args.lemmas is not None:
        wanted = ALL_CHECK_IDS if args.lemmas == "all" else tuple(args.lemmas.split(","))
        unknown = [lid for lid in wanted if lid not in ALL_CHECK_IDS]
        if unknown:
            print(f"error: unknown check ids {unknown}", file=sys.stderr)
            return EXIT_ERROR
        reports = [r for r in run_lemma_suite(_suite_grid_for(args.samples), args.seed)
                   if r.lemma_id in wanted]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "lemmas",
            "seed": args.seed,
            "samples_requested": args.samples,
            "passed": all(r.passed for r in reports),
            "checks": [{"id": r.lemma_id, "samples": r.samples_run,
                        "min_margin": r.min_margin, "violations": len(r.violations)}
                       for r in reports],
        }
        if args.json:
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            for chk in payload["checks"]:
                status = "pass" if chk["violations"] == 0 else "FAIL"
                print(f"{chk['id']}: {chk['samples']} samples, "
                      f"min_margin {chk['min_margin']} {status}")
            print(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
        return EXIT_OK if payload["passed"] else EXIT_ERROR

    if args.theorem == "main":
        reports = verify_main_theorem(args.samples, args.seed)
    elif args.theorem == "simple":
        reports = [verify_simple_perturbed_efficiency(args.samples, args.seed)]
    else:
        reports = [verify_parametric_inefficiency(args.samples, args.seed)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": "theorem",
        "theorem": args.theorem,
        "seed": args.seed,
        "passed": all(r.passed for r in reports),
        "reports": [{"name": r.name, "expected": r.expected, "samples": r.samples,
                     "conforming": r.conforming} for r in reports],
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for rep in payload["reports"]:
            print(f"{rep['name']}: {rep['conforming']}/{rep['samples']} {rep['expected']}")
        print(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
    return EXIT_OK if payload["passed"] else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmeff",
        description="Eigenvector weights, Pareto efficiency and perturbation "
                    "structure of pairwise comparison matrices.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="classify a matrix file and judge its eigenvector")
    p_an.add_argument("path")
    p_an.add_argument("--format", choices=FORMATS, default="txt")
    p_an.add_argument("--json", action="store_true")
    p_an.add_argument("--digraph-dot", metavar="PATH")
    p_an.add_argument("--tol-consistency", type=float, default=DEFAULT_CONSISTENCY_TOL)
    p_an.add_argument("--tol-tie", type=float, default=DEFAULT_TIE_TOL)
    p_an.add_argument("--tol-power", type=float, default=DEFAULT_POWER_TOL)
    p_an.set_defaults(func=_cmd_analyze)

    p_gen = sub.add_parser("generate", help="write a matrix from a built-in family")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--delta", type=float)
    p_gen.add_argument("--gamma", type=float)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--q", type=float)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", metavar="PATH")
    p_gen.add_argument("--sidecar", metavar="PATH",
                       help="ground-truth JSON path (default: OUT.json)")
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="run the inequality suite or theorem sweeps")
    p_ver.add_argument("--lemmas", metavar="IDS",
                       help="'all' or a comma-separated list of check ids")
    p_ver.add_argument("--theorem", choices=("main", "simple", "apq"))
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
