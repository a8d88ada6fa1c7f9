"""Pareto efficiency of a weight vector for a PCM, via a digraph criterion.

A positive weight vector w is efficient for A when no other positive
vector approximates every entry a_ij at least as well by its ratios and
some entry strictly better.  Efficiency is equivalent to strong
connectivity of the digraph with an arc i -> j whenever w_i / w_j >= a_ij;
ties produce arcs in both directions, and every pair has an arc, so the
components form a chain.  A strongly connected digraph certifies
efficiency through its single component; otherwise the bottom component
has no outgoing arcs, and scaling it up yields an explicitly better vector.
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
    w_i / w_j counts as reaching a_ij (see :func:`build_digraph`).  Every
    pair of distinct nodes must have an arc in at least one direction;
    :func:`strongly_connected_components` relies on it.
    """

    adjacency: np.ndarray
    tie_tol: float
    arcs: np.ndarray = field(init=False)

    def __post_init__(self):
        adjacency = np.array(self.adjacency, dtype=bool)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {adjacency.shape}")
        np.fill_diagonal(adjacency, False)
        missing = ~(adjacency | adjacency.T | np.eye(len(adjacency), dtype=bool))
        if missing.any():
            i, j = divmod(int(np.argmax(missing)), len(adjacency))
            raise ValueError(f"nodes {i} and {j} have no arc between them")
        adjacency.setflags(write=False)
        arcs = np.argwhere(adjacency)
        arcs.setflags(write=False)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "arcs", arcs)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in self.arcs.tolist()]


def build_digraph(m: Pcm, w, tie_tol: float = DEFAULT_TIE_TOL) -> EfficiencyDigraph:
    """Arc i -> j (i != j) iff w_i / w_j >= a_ij (1 - tie_tol) or w_j / w_i < a_ji (1 - tie_tol).

    The second test gives an arc on every pair: where entries are reciprocal
    only within ``RECIPROCITY_TOL``, a pair that neither direction improves
    in both cells counts as a tie.
    """
    if not 0.0 <= tie_tol < 1.0:    # NaN fails too; from 1 up every pair is a tie
        raise ValueError(f"tie_tol must be non-negative and below 1, got {tie_tol}")
    w = np.asarray(w, dtype=float)
    if w.shape != (m.n,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be a positive finite vector of length n")
    hit = w[:, None] / w[None, :] >= m.entries * (1.0 - tie_tol)
    return EfficiencyDigraph(hit | ~hit.T, tie_tol)


def strongly_connected_components(g: EfficiencyDigraph) -> list[list[int]]:
    """Components by one scan of the nodes in order of out-degree.

    With an arc on every pair the components form a chain, and a node's
    out-degree counts every node below its component plus fewer than its
    component's size, so a stable sort by out-degree lists the components
    bottom up; each ends where no arc leaves the prefix.  They come sinks
    first, nodes in increasing order: the one order in which every arc
    between components points to an earlier one.
    """
    out_degree = g.adjacency.sum(axis=1)
    order = np.argsort(out_degree, kind="stable")
    ranked = g.adjacency[np.ix_(order, order)]
    # no arc leaves a prefix whose out-degrees add up to the arcs inside it
    inside = ranked.cumsum(axis=0).cumsum(axis=1).diagonal()
    ends = np.flatnonzero(np.cumsum(out_degree[order]) == inside) + 1
    return [np.sort(piece).tolist() for piece in np.split(order, ends[:-1])]


def reachability_oracle(g: EfficiencyDigraph) -> bool:
    """Strong connectivity by brute force: BFS from every node.

    Independent of the out-degree scan and of its chain premise; kept
    deliberately simple so the two can check each other.
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
    nonempty node set with no outgoing arcs, the first of ``sccs`` and the
    seed of an explicit improvement.
    """

    efficient: bool
    digraph: EfficiencyDigraph
    sccs: tuple[tuple[int, ...], ...]
    sink: tuple[int, ...] | None


def is_efficient(m: Pcm, w, tie_tol: float = DEFAULT_TIE_TOL) -> EfficiencyVerdict:
    """Decide efficiency of w for m and attach the certificate."""
    g = build_digraph(m, w, tie_tol)
    comps = strongly_connected_components(g)
    ok = len(comps) == 1
    return EfficiencyVerdict(
        efficient=ok,
        digraph=g,
        sccs=tuple(tuple(c) for c in comps),
        sink=None if ok else tuple(comps[0]),
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
            f"sink {verdict.sink} has slack {t_max - 1.0:.3g}, too little for scaling it "
            f"by {t} to dominate w in float arithmetic")
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
