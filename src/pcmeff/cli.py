"""Command-line front end.

``analyze`` ingests a matrix file and reports perturbation structure, the
principal eigenpair (both computation routes when the closed forms apply),
and the efficiency verdict with its certificate.  ``generate`` writes
matrices from the built-in families together with a ground-truth sidecar.
``verify`` runs the inequality suite or the theorem-level sweeps.  Every
command takes ``--json`` for machine-readable output carrying the same
numbers as the text rendering.

Exit codes: analyze 0 = efficient, 3 = inefficient, 2 = parse error
(input that is not UTF-8 included; a leading byte-order mark is skipped),
1 = any other error; generate/verify 0 = success/all passed, 1 otherwise.
An unopenable input or output path is an error (exit 1), as are a closed
standard output (one error line, and nothing more at exit), an order too
large to allocate, an invalid matrix and a sink too tight to improve in
floats; ``--samples`` below 1, ``--seed`` below 0, a tolerance that is not
finite and at least 0 (``--tol-power``: above 0), ``--out`` and
``--sidecar`` naming one file, and ``verify`` with neither or both of
``--lemmas`` and ``--theorem`` are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .efficiency import DEFAULT_TIE_TOL, find_sink_improvement, is_efficient, to_dot
from .errors import ImprovementFailedError, NoConvergenceError, ParseError, RootNotBracketedError
from .generators import FAMILIES, GeneratorSpec, generate
from .matrixio import FORMATS, format_matrix, load_matrix
from .pcm import DEFAULT_CONSISTENCY_TOL, DOUBLE_KINDS, Pcm, classify_perturbation
from .spectral import DEFAULT_POWER_TOL, closed_form_eigenvector, power_iteration
from .verification import ALL_CHECK_IDS, THEOREMS, SuiteGrid, run_lemma_suite, verify_theorem

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
            "arcs": (verdict.digraph.arcs + 1).tolist(),
            "improvement": improvement.tolist() if improvement is not None else None,
        },
        "lemma_suite": None,    # kept for schema 1; the sweep is `verify --lemmas`
        "timing_seconds": time.perf_counter() - t0,
    }, verdict


# the types whose repr is json's spelling of every finite value; bool is not one
_NUMBERS = frozenset((int, float))


def _json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, at about C-encoder speed.

    CPython 3.10-3.12 encode any ``indent`` in pure Python.  This writer
    recurses only through dicts with ``str`` keys and lists, and writes a
    list of numbers, or of number lists, with no Python call per value
    (:func:`_number_lists`).
    ``None``, ``True`` and ``False`` are matched by identity (``1.0 == True``).
    Anything else, such as a tuple, a float or int subclass, a non-finite
    float or a non-``str`` key, goes to ``json.dumps`` with its newlines
    indented by ``pad``, which is exact because encoded JSON holds no raw
    newline.  CPython 3.13 encodes ``indent`` in C, so this writer can go
    once ``requires-python`` reaches 3.13.
    """
    kind, inner = type(obj), pad + "  "
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind in _NUMBERS:
        text = repr(obj)
        if "n" not in text:    # not nan, inf or -inf
            return text
    elif kind is dict and set(map(type, obj)) <= {str}:
        if not obj:
            return "{}"
        members = ("," + inner).join([f"{encode_basestring_ascii(key)}: {_json(value, inner)}"
                                      for key, value in obj.items()])
        return f"{{{inner}{members}{pad}}}"
    elif kind is list:
        return _number_lists(obj, pad) or _list_layout([_json(item, inner) for item in obj], pad)
    return json.dumps(obj, indent=2).replace("\n", pad)


def _number_lists(items: list, pad: str) -> str | None:
    """A list of ints and floats, or of lists of them, as ``_json`` writes it.

    Every value is written by ``repr``, which spells every finite int and
    float as json does, in C-level maps: a list of lists fills one ``%r``
    template per row.  None for any other list, and for one holding nan,
    inf or -inf, which json spells differently.
    """
    kinds = set(map(type, items))
    if kinds <= _NUMBERS:
        written = list(map(repr, items))
    elif kinds == {list} and set(map(type, itertools.chain.from_iterable(items))) <= _NUMBERS:
        # one template per row, not one for the whole list: a single large
        # %-formatted string per report raised the peak RSS of long runs
        rows = {count: _list_layout(["%r"] * count, pad + "  ") for count in set(map(len, items))}
        written = list(map(str.__mod__, map(rows.__getitem__, map(len, items)), map(tuple, items)))
    else:
        return None
    text = _list_layout(written, pad)
    return text if "n" not in text else None


def _list_layout(items: list[str], pad: str) -> str:
    """The written ``items`` as the list json's ``indent=2`` lays out at indent ``pad``."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"


def _emit(payload: dict, lines, as_json: bool) -> None:
    """Print the payload as JSON, or else its text lines (consumed only then)."""
    if as_json:
        print(_json(payload))
    else:
        for line in lines:
            print(line)


def _analysis_lines(report: dict):
    cls = report["classification"]
    yield f"order: {report['n']}"
    yield f"classification: {cls['kind']}"
    if cls["positions"]:
        yield f"  perturbed cells (1-based): {cls['positions']}"
    if cls["delta"] is not None:
        yield f"  delta: {cls['delta']}"
    if cls["gamma"] is not None:
        yield f"  gamma: {cls['gamma']}"
    if cls["base"] is not None:
        yield f"  base: {cls['base']}"
    yield f"lambda_max: {report['lambda_max']}"
    weights = report["weights"]
    yield f"w (power iteration): {weights['power_iteration']}"
    if weights["closed_form"] is not None:
        closed = weights["closed_form"]
        yield f"w (closed form, variant {closed['variant']}): {closed['w']}"
        yield f"lambda_max (closed form): {closed['lambda_max']}"
    eff = report["efficiency"]
    yield f"efficient: {eff['efficient']}"
    if eff["sink"] is not None:
        yield f"  sink component (1-based): {eff['sink']}"
        yield f"  dominating vector: {eff['improvement']}"


def _cmd_analyze(args) -> int:
    report, verdict = _analysis_report(
        Pcm(load_matrix(args.path, args.format)),
        source={"path": args.path, "format": args.format},
        tol_consistency=args.tol_consistency,
        tie_tol=args.tol_tie,
        power_tol=args.tol_power,
    )
    if args.digraph_dot:
        _write_files({args.digraph_dot: to_dot(verdict.digraph)})
    _emit(report, _analysis_lines(report), args.json)
    return EXIT_OK if verdict.efficient else EXIT_INEFFICIENT


def _cmd_generate(args) -> int:
    if args.out and args.sidecar and os.path.realpath(args.out) == os.path.realpath(args.sidecar):
        build_parser().error(f"--out and --sidecar name the same file {args.out!r}")
    m, structure = generate(GeneratorSpec(
        family=args.family, n=args.n, delta=args.delta, gamma=args.gamma,
        p=args.p, q=args.q, seed=args.seed,
    ))
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "n": m.n,
        "seed": args.seed,
        "ground_truth": _classification_dict(structure) if structure is not None else None,
    }
    if args.family == "apq":    # parametric_inefficient stores p and q verbatim in these cells
        sidecar["p"], sidecar["q"] = float(m.entries[0, 1]), float(m.entries[1, 2])

    matrix = format_matrix(m.entries)
    sidecar_path = args.sidecar or (args.out and args.out + ".json")
    outputs = {args.out: matrix, sidecar_path: _json(sidecar) + "\n"}
    _write_files({path: text for path, text in outputs.items() if path})
    if not args.out:
        sys.stdout.write(matrix)
    return EXIT_OK


def _write_files(texts: dict[str, str]) -> None:
    """Write each path's text; unless every write succeeds, no path changes.

    Each text goes to a temporary file beside its path, and the temporary
    files replace the paths only once all of them are written and no path
    is a directory, which ``os.replace`` would refuse.
    """
    temps = {}
    try:
        for path, text in texts.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temps[path] = f"{path}.{os.getpid()}.tmp"
            with open(temps[path], "w", encoding="utf-8") as fh:
                fh.write(text)
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as exc:    # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _cmd_verify(args) -> int:
    if args.lemmas is not None:
        wanted = ALL_CHECK_IDS if args.lemmas == "all" else tuple(args.lemmas.split(","))
        reports = run_lemma_suite(SuiteGrid.for_samples(args.samples), args.seed, wanted)
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
        lines = [f"{chk['id']}: {chk['samples']} samples, min_margin {chk['min_margin']} "
                 f"{'pass' if chk['violations'] == 0 else 'FAIL'}" for chk in payload["checks"]]
    else:
        reports = verify_theorem(args.theorem, args.samples, args.seed)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "theorem",
            "theorem": args.theorem,
            "seed": args.seed,
            "passed": all(r.passed for r in reports),
            "reports": [{"name": r.name, "expected": r.expected, "samples": r.samples,
                         "conforming": r.conforming} for r in reports],
        }
        lines = [f"{rep['name']}: {rep['conforming']}/{rep['samples']} {rep['expected']}"
                 for rep in payload["reports"]]
    lines.append(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
    _emit(payload, lines, args.json)
    return EXIT_OK if payload["passed"] else EXIT_ERROR


def int_at_least(lowest: int):
    """An argparse type: an integer no smaller than ``lowest``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    parse.__name__ = "int"    # argparse reports text that is no integer as "invalid int value"
    return parse


def tolerance(zero_allowed: bool, below: float = np.inf):
    """An argparse type: a finite float above 0 (at least 0 if ``zero_allowed``) below ``below``."""
    def parse(text: str) -> float:
        value = float(text)
        if not ((value >= 0.0 if zero_allowed else value > 0.0) and value < np.inf):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'at least' if zero_allowed else 'above'} 0, got {text}")
        if not value < below:
            raise argparse.ArgumentTypeError(f"must be below {below:g}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that."""
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
    p_an.add_argument("--tol-consistency", type=tolerance(True), default=DEFAULT_CONSISTENCY_TOL)
    p_an.add_argument("--tol-tie", type=tolerance(True, below=1.0), default=DEFAULT_TIE_TOL)
    p_an.add_argument("--tol-power", type=tolerance(False), default=DEFAULT_POWER_TOL)
    p_an.set_defaults(func=_cmd_analyze)

    p_gen = sub.add_parser("generate", help="write a matrix from a built-in family")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--delta", type=float)
    p_gen.add_argument("--gamma", type=float)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--q", type=float)
    p_gen.add_argument("--seed", type=int_at_least(0), default=0)
    p_gen.add_argument("--out", metavar="PATH")
    p_gen.add_argument("--sidecar", metavar="PATH",
                       help="ground-truth JSON path (default: OUT.json)")
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="run the inequality suite or theorem sweeps")
    mode = p_ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lemmas", metavar="IDS",
                      help="'all' or a comma-separated list of check ids")
    mode.add_argument("--theorem", choices=tuple(THEOREMS))
    p_ver.add_argument("--samples", type=int_at_least(1), default=1000)
    p_ver.add_argument("--seed", type=int_at_least(0), default=42)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()    # a closed stdout fails here, as one error line, not at exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, MemoryError, ValueError, NoConvergenceError, RootNotBracketedError,
            ImprovementFailedError) as exc:
        if isinstance(exc, BrokenPipeError):    # the exit's flush then writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
