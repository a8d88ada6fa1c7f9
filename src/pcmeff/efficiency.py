"""Pareto efficiency of a weight vector for a PCM, via a digraph criterion.

A positive weight vector w is efficient for A when no other positive
vector approximates every entry a_ij at least as well by its ratios and
some entry strictly better.  Efficiency is equivalent to strong
connectivity of the digraph with an arc i -> j whenever w_i / w_j >= a_ij;
ties produce arcs in both directions.  A strongly connected digraph
certifies efficiency through its single component; otherwise some
component has no outgoing arcs, and scaling that component up yields an
explicitly better vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ImprovementFailedError
from .pcm import Pcm

DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EfficiencyDigraph:
    """The weight-ratio dominance digraph as a boolean adjacency matrix.

    ``adjacency[i, j]`` is True when the digraph has the arc i -> j; the
    diagonal is False.  The array is a read-only copy of what the caller
    passed, and ``arcs`` is its (k, 2) index array of arcs in lexicographic
    order, built once here.  ``tie_tol`` is the relative margin under which
    w_i / w_j counts as reaching a_ij; with exact arithmetic and tie_tol = 0
    the arc rule is the literal inequality.  Reciprocity guarantees at least
    one arc per unordered pair, and exactly-tied pairs get both.
    """

    adjacency: np.ndarray
    tie_tol: float
    arcs: np.ndarray = field(init=False)

    def __post_init__(self):
        adjacency = np.array(self.adjacency, dtype=bool)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {adjacency.shape}")
        np.fill_diagonal(adjacency, False)
        adjacency.setflags(write=False)
        arcs = np.argwhere(adjacency)
        arcs.setflags(write=False)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "arcs", arcs)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def has_arc(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j])

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in self.arcs.tolist()]


def build_digraph(m: Pcm, w, tie_tol: float = DEFAULT_TIE_TOL) -> EfficiencyDigraph:
    """Arc i -> j (i != j) iff w_i / w_j >= a_ij * (1 - tie_tol)."""
    if tie_tol < 0:
        raise ValueError("tie_tol must be non-negative")
    w = np.asarray(w, dtype=float)
    if w.shape != (m.n,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be a positive finite vector of length n")
    ratio = w[:, None] / w[None, :]
    return EfficiencyDigraph(ratio >= m.entries * (1.0 - tie_tol), tie_tol)


def strongly_connected_components(g: EfficiencyDigraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative.

    Components are emitted sinks-first in the condensation order: every arc
    between components points from a later component to an earlier one.
    Node order inside a component and the DFS root order are fixed, so the
    output is deterministic.
    """
    n = g.n
    succ = [np.flatnonzero(row).tolist() for row in g.adjacency]

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    work: list = []    # (node, iterator over its successors not yet examined)
    counter = 0

    def visit(v: int) -> None:
        nonlocal counter
        index[v] = lowlink[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(succ[v])))

    for root in range(n):
        if index[root] != -1:
            continue
        visit(root)
        while work:
            v, successors = work[-1]
            for u in successors:    # resumes after the last successor descended into
                if index[u] == -1:
                    visit(u)
                    break
                if on_stack[u] and index[u] < lowlink[v]:
                    lowlink[v] = index[u]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        comp.append(u)
                        if u == v:
                            break
                    components.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def strongly_connected(g: EfficiencyDigraph) -> tuple[bool, list[list[int]]]:
    """Whether the digraph is one strongly connected component."""
    comps = strongly_connected_components(g)
    return len(comps) == 1, comps


def reachability_oracle(g: EfficiencyDigraph) -> bool:
    """Strong connectivity by brute force: BFS from every node.

    Independent of the Tarjan route; kept deliberately simple so the two
    can check each other.
    """
    n = g.n
    succ = [[] for _ in range(n)]
    for i, j in g.arcs.tolist():
        succ[i].append(j)
    for start in range(n):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) != n:
            return False
    return True


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Efficiency decision plus its graph certificate.

    Efficient: ``sccs`` has a single component.  Inefficient: ``sink`` is a
    nonempty node set with no outgoing arcs, the seed of an explicit
    improvement.
    """

    efficient: bool
    digraph: EfficiencyDigraph
    sccs: tuple[tuple[int, ...], ...]
    sink: tuple[int, ...] | None


def _sink_component(g: EfficiencyDigraph, comps: list[list[int]]) -> tuple[int, ...]:
    sinks = []
    for comp in comps:
        inside = np.zeros(g.n, dtype=bool)
        inside[comp] = True
        if not g.adjacency[np.ix_(inside, ~inside)].any():
            sinks.append(tuple(comp))
    return min(sinks)


def is_efficient(m: Pcm, w, tie_tol: float = DEFAULT_TIE_TOL) -> EfficiencyVerdict:
    """Decide efficiency of w for m and attach the certificate."""
    g = build_digraph(m, w, tie_tol)
    ok, comps = strongly_connected(g)
    sink = None if ok else _sink_component(g, comps)
    return EfficiencyVerdict(
        efficient=ok,
        digraph=g,
        sccs=tuple(tuple(c) for c in comps),
        sink=sink,
    )


def dominates(m: Pcm, w, w_prime) -> bool:
    """Is w_prime at least as close to every entry and strictly closer somewhere?

    A definition checker: comparisons are exact, with no numeric margin.
    """
    a = m.entries
    w = np.asarray(w, dtype=float)
    wp = np.asarray(w_prime, dtype=float)
    old = np.abs(a - w[:, None] / w[None, :])
    new = np.abs(a - wp[:, None] / wp[None, :])
    return bool(np.all(new <= old) and np.any(new < old))


def find_sink_improvement(m: Pcm, w, verdict: EfficiencyVerdict):
    """Turn an inefficiency certificate into a dominating vector.

    Every node in the sink component has slack w_i / w_j < a_ij toward
    every outside node; scaling the whole component by a common factor
    t > 1 tightens all of those approximations at once and leaves the rest
    untouched.  t is the midpoint between 1 and the largest
    non-overshooting factor, which keeps every crossing pair strictly
    improved.  Returns None for an efficient verdict.

    The result is deliberately not renormalized: dominance only involves
    ratios, and leaving the untouched coordinates bit-identical keeps the
    exact comparisons in :func:`dominates` free of rounding noise on pairs
    whose approximation must not change.
    """
    if verdict.efficient:
        return None
    w = np.asarray(w, dtype=float)
    a = m.entries
    inside = np.asarray(verdict.sink, dtype=int)
    outside = np.asarray([j for j in range(m.n) if j not in set(verdict.sink)], dtype=int)
    t_max = np.min(a[np.ix_(inside, outside)] * w[outside][None, :] / w[inside][:, None])
    t = 0.5 * (1.0 + t_max)
    w_prime = w.copy()
    w_prime[inside] *= t
    if not dominates(m, w, w_prime):
        raise ImprovementFailedError(
            f"scaling sink {verdict.sink} by {t} did not dominate; this is a bug")
    return w_prime


def to_dot(g: EfficiencyDigraph) -> str:
    """Graphviz rendering with 1-based node labels, byte-deterministic."""
    lines = ["digraph efficiency {"]
    for i in range(g.n):
        lines.append(f"    {i + 1};")
    for i, j in g.sorted_arcs():
        lines.append(f"    {i + 1} -> {j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
