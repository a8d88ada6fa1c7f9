"""Correctness checks on the outputs of each workload.

Each ``*_checks`` function takes one operation's outputs and yields
``(check name, passed, detail)``; :class:`Gate` counts every check that
ran and every operation that failed at least one.  The checks compare
against independent routes: the generator's ground truth, the BFS
reachability oracle, the definition of dominance, and the closed-form
eigenvalue against power iteration.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from pcmeff.efficiency import build_digraph, dominates, reachability_oracle

# the two eigenvalue routes agree to this relative tolerance in the acceptance suite
LAMBDA_REL_TOL = 1e-9
EXIT_EFFICIENT, EXIT_INEFFICIENT = 0, 3
MAX_ERRORS_KEPT = 20


class Gate:
    """Attempted and failed operations, and how often each check ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ran: Counter = Counter()
        self.errors: list[str] = []

    def _fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.errors.extend(messages[:MAX_ERRORS_KEPT - len(self.errors)])

    def record(self, checks) -> bool:
        """Count one operation; returns whether every check passed."""
        self.attempted += 1
        bad = []
        for name, ok, detail in checks:
            self.ran[name] += 1
            if not ok:
                bad.append(f"{name}: {detail}")
        if bad:
            self._fail(bad)
        return not bad

    def crash(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail([f"{what}: {type(exc).__name__}: {exc}"])


def _expect(name, actual, expected):
    return name, actual == expected, f"got {actual!r}, expected {expected!r}"


def analyze_checks(exit_code: int, report: dict, truth: dict, m):
    """Checks on one ``analyze --json`` report for the matrix ``m`` (a Pcm).

    ``truth`` is the input's sidecar: ``kind`` and 1-based ``positions`` of
    the construction (kind None when the family has no recipe), and
    ``efficient``, the verdict theory predicts (None when unknown).
    """
    eff = report["efficiency"]
    efficient = eff["efficient"]
    yield _expect("exit_code", exit_code, EXIT_EFFICIENT if efficient else EXIT_INEFFICIENT)

    w = np.asarray(report["weights"]["power_iteration"])
    yield _expect("verdict_oracle", efficient, reachability_oracle(build_digraph(m, w)))
    if truth["efficient"] is not None:
        yield _expect("verdict_theory", efficient, truth["efficient"])

    cls = report["classification"]
    if truth["kind"] is not None:
        yield _expect("kind", cls["kind"], truth["kind"])
        found = [cls["positions"]] + cls["alternatives"]
        yield ("positions", truth["positions"] in found,
               f"{truth['positions']} not among {found}")

    closed = report["weights"]["closed_form"]
    if closed is not None:
        lam, lam_closed = report["lambda_max"], closed["lambda_max"]
        rel = abs(lam_closed - lam) / lam
        yield "lambda_routes", rel <= LAMBDA_REL_TOL, f"relative gap {rel:.3e}"

    improvement = eff["improvement"]
    if efficient:
        yield _expect("no_improvement", improvement, None)
    else:
        yield ("dominates", improvement is not None and dominates(m, w, improvement),
               "reported improvement does not dominate the eigenvector")


def lemma_checks(exit_code: int, payload: dict, expected_counts: dict):
    """Checks on one ``verify --lemmas all --json`` payload."""
    yield _expect("exit_code", exit_code, 0)
    yield _expect("passed", payload["passed"], True)
    yield _expect("sample_counts", {c["id"]: c["samples"] for c in payload["checks"]},
                  expected_counts)


def weights_checks(m, w, verdict, improvement, expected_efficient):
    """Checks on one pass of the library path for the matrix ``m``."""
    yield _expect("verdict_oracle", verdict.efficient, reachability_oracle(verdict.digraph))
    if expected_efficient is not None:
        yield _expect("verdict_theory", verdict.efficient, expected_efficient)
    if verdict.efficient:
        yield _expect("no_improvement", improvement, None)
    else:
        yield ("dominates", improvement is not None and dominates(m, w, improvement),
               "improvement does not dominate the eigenvector")
