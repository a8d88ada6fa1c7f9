import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import (
    EfficiencyDigraph,
    Pcm,
    build_digraph,
    dominates,
    find_sink_improvement,
    is_efficient,
    parametric_inefficient,
    power_iteration,
    reachability_oracle,
    strongly_connected_components,
    to_dot,
)
from pcmeff.efficiency import DEFAULT_TIE_TOL
from pcmeff.pcm import RECIPROCITY_TOL

from conftest import (
    EXAMPLE1_ARCS_1BASED,
    EXAMPLE1_IMPROVED_W2,
    consistent_pcm,
    digraph_from_arcs,
)


@pytest.fixture
def example1_pair(example1):
    return example1, power_iteration(example1).w


# ----------------------------------------------------------------- digraph

def test_example1_digraph_arcs(example1_pair):
    m, w = example1_pair
    g = build_digraph(m, w)
    arcs_1based = {(i + 1, j + 1) for i, j in g.arcs}
    assert arcs_1based == EXAMPLE1_ARCS_1BASED
    assert not any(i == 2 for i, _ in arcs_1based)   # nothing leaves node 2


def test_consistent_digraph_is_complete_bidirected():
    m = consistent_pcm([2.0, 6.0, 0.5])
    w = power_iteration(m).w
    g = build_digraph(m, w)
    assert len(g.arcs) == 4 * 3


def test_two_node_matrix_has_an_arc():
    m = Pcm([[1.0, 5.0], [0.2, 1.0]])
    g = build_digraph(m, np.array([0.7, 0.3]))
    assert len(g.arcs) >= 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_weights_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="positive finite"):
        build_digraph(consistent_pcm([2.0, 3.0]), [1.0, bad, 1.0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000), st.sampled_from([DEFAULT_TIE_TOL, 0.0]),
       st.sampled_from([1.0, 1.0 - 0.9 * RECIPROCITY_TOL, 1.0 + 0.9 * RECIPROCITY_TOL]),
       st.booleans())
def test_pair_completeness(n, seed, tie_tol, lower_scale, tied):
    # every pair gets an arc, also where the lower entries are reciprocal only
    # within tolerance and w is nearer a tie than that: then neither
    # w_i/w_j >= a_ij nor w_j/w_i >= a_ji need hold
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1))
    a = np.array(consistent_pcm(xs).entries)
    i, j = sorted(rng.choice(n, size=2, replace=False))
    a[i, j] *= 3.0
    a[j, i] = 1.0 / a[i, j]
    a[np.tril_indices(n, -1)] *= lower_scale
    m = Pcm(a)
    if tied:
        w = (1.0 + 0.3 * RECIPROCITY_TOL * np.arange(n)) / np.concatenate(([1.0], xs))
    else:
        w = rng.dirichlet(np.ones(n))
    g = build_digraph(m, w, tie_tol)
    for i in range(n):
        for j in range(i + 1, n):
            assert g.adjacency[i, j] or g.adjacency[j, i]


def test_a_pair_with_no_arc_gets_both():
    g = digraph_from_arcs(3, [(0, 1), (2, 1)])
    assert g.arcs.tolist() == [[0, 1], [0, 2], [2, 0], [2, 1]]


@pytest.mark.parametrize("tie_tol", [-1e-9, np.nan, 1.0, 5.0, -1.0])
def test_tie_tolerance_must_be_non_negative(tie_tol):
    # from 1 up, 1 - tie_tol <= 0 gives every pair both arcs: every verdict would be efficient
    message = f"^tie_tol must be non-negative and below 1, got {tie_tol}$"
    with pytest.raises(ValueError, match=message):
        build_digraph(consistent_pcm([2.0]), [2.0, 1.0], tie_tol)
    with pytest.raises(ValueError, match=message):    # checked before w
        build_digraph(consistent_pcm([2.0]), [np.nan, 1.0], tie_tol)


def test_digraph_needs_a_node():
    message = r"^adjacency must be a square matrix on at least one node, got shape \(0, 0\)$"
    with pytest.raises(ValueError, match=message):
        EfficiencyDigraph(np.zeros((0, 0), dtype=bool))


def test_one_node_digraph_is_one_component():
    g = EfficiencyDigraph(np.ones((1, 1), dtype=bool))
    assert strongly_connected_components(g) == [[0]]
    assert g.arcs.shape == (0, 2) and reachability_oracle(g)
    assert to_dot(g) == "digraph efficiency {\n    1;\n}\n"


# ------------------------------------------------------------ strong connectivity

def test_example1_not_strongly_connected(example1_pair):
    m, w = example1_pair
    comps = strongly_connected_components(build_digraph(m, w))
    assert len(comps) > 1
    assert [1] in [list(c) for c in comps]      # node 2 (0-based 1) is its own component


def test_complete_bidirected_is_strongly_connected():
    n = 5
    arcs = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
    comps = strongly_connected_components(digraph_from_arcs(n, arcs))
    assert len(comps) == 1


def test_directed_cycle_is_strongly_connected():
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    extra = [(0, 2), (1, 3)]     # one arc per leftover pair
    g = digraph_from_arcs(4, cycle + extra)
    assert len(strongly_connected_components(g)) == 1 and reachability_oracle(g)


def random_pair_complete_digraph(rng, n):
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.integers(0, 3)
            if c != 1:
                arcs.add((i, j))
            if c != 0:
                arcs.add((j, i))
    return digraph_from_arcs(n, arcs)


def tarjan_components(n: int, arcs) -> list[list[int]]:
    """Components by recursive Tarjan over the sorted arcs, sinks first: the reference."""
    succ = [[] for _ in range(n)]
    for i, j in sorted(arcs):
        succ[i].append(j)
    index, low, stack, on_stack, comps = {}, {}, [], set(), []

    def strongconnect(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for u in succ[v]:
            if u not in index:
                strongconnect(u)
                low[v] = min(low[v], low[u])
            elif u in on_stack:
                low[v] = min(low[v], index[u])
        if low[v] == index[v]:
            comp = []
            while not comp or comp[-1] != v:
                comp.append(stack.pop())
                on_stack.discard(comp[-1])
            comps.append(sorted(comp))

    for v in range(n):
        if v not in index:
            strongconnect(v)
    return comps


def random_ranked_digraph(rng, n: int, upward: float = 0.5,
                          empty: float = 0.0) -> EfficiencyDigraph:
    """A digraph whose arcs mostly point down a hidden ranking.

    Each pair points down only, up only, both ways or, with probability
    ``empty``, neither way, which the digraph's tie rule turns into both;
    up only and both have probabilities of at most ``upward``.  Rare upward
    arcs leave many components.
    """
    rank = rng.permutation(n)
    down = rank[:, None] > rank[None, :]
    up_only, both = rng.uniform(0.0, 1.0, 2) ** 3 * upward
    r = np.triu(rng.random((n, n)), 1)
    r = r + r.T    # one draw per pair
    some = r < 1.0 - empty
    return EfficiencyDigraph(some & ((down & (r >= up_only)) | (~down & (r < up_only + both))))


def test_out_degree_scan_equals_tarjan():
    rng = np.random.default_rng(1968)
    several = 0
    for _ in range(2000):
        g = random_ranked_digraph(rng, int(rng.integers(2, 41)))
        comps = strongly_connected_components(g)
        assert comps == tarjan_components(g.n, g.arcs.tolist())
        several += len(comps) >= 3
    assert several >= 400    # 444 with this seed
    several = 0
    for n in (64, 128, 256) * 3:    # about two upward arcs per node
        g = random_ranked_digraph(rng, n, upward=2 / n)
        comps = strongly_connected_components(g)
        assert comps == tarjan_components(n, g.arcs.tolist())
        several += len(comps) >= 3
    assert several >= 3    # 4 with this seed
    several = 0
    for _ in range(500):    # pairs with no arc, which get both from the tie rule
        n = int(rng.integers(2, 41))
        g = random_ranked_digraph(rng, n, upward=float(rng.choice([2 / n, 0.5])),
                                  empty=float(rng.uniform(0.0, 0.2) ** 2))
        comps = strongly_connected_components(g)
        assert comps == tarjan_components(n, g.arcs.tolist())
        several += len(comps) >= 3
    assert several >= 100    # 136 with this seed


def test_tarjan_agrees_with_bfs_oracle():
    rng = np.random.default_rng(77)
    for _ in range(300):
        g = random_pair_complete_digraph(rng, int(rng.integers(2, 13)))
        comps = strongly_connected_components(g)
        assert (len(comps) == 1) == reachability_oracle(g)
        assert sorted(v for comp in comps for v in comp) == list(range(g.n))


def frozenset_verdict(m: Pcm, w, tie_tol: float):
    """Arcs, components, sink and DOT text of the digraph kept as a frozenset of arcs.

    The construction the boolean adjacency replaced: a Python loop over all
    n^2 cells, a recursive Tarjan over the sorted arcs, and a sink found by
    scanning every arc.
    """
    n = m.n
    hit = w[:, None] / w[None, :] >= m.entries * (1.0 - tie_tol)
    arcs = frozenset((i, j) for i in range(n) for j in range(n) if i != j and hit[i, j])
    comps = [tuple(comp) for comp in tarjan_components(n, arcs)]
    sinks = [c for c in comps if not any(j not in c for i, j in arcs if i in c)]
    dot = ("digraph efficiency {\n" + "".join(f"    {i + 1};\n" for i in range(n))
           + "".join(f"    {i + 1} -> {j + 1};\n" for i, j in sorted(arcs)) + "}\n")
    return arcs, tuple(comps), None if len(comps) == 1 else min(sinks), dot


def random_pcm_with_ties(rng, n: int) -> Pcm:
    """A noisy, a consistent or a small-integer-ratio matrix; the last two give exact ties."""
    style = rng.integers(3)
    if style == 1:
        return consistent_pcm(rng.choice([1.0, 2.0, 3.0, 0.5], size=n - 1))
    upper = np.triu_indices(n, 1)
    if style == 0:
        values = rng.choice([1.0, 1.0, 2.0, 3.0, 0.5, 1 / 3], size=len(upper[0]))
    else:
        x = np.exp(rng.normal(0.0, 1.0, n))
        values = x[upper[1]] / x[upper[0]] * np.exp(rng.normal(0.0, 0.3, len(upper[0])))
    a = np.ones((n, n))
    a[upper] = values
    a.T[upper] = 1.0 / values
    return Pcm(a)


def assert_frozenset_verdict(m: Pcm, w, tie_tol: float):
    """Check is_efficient against :func:`frozenset_verdict`; return its verdict and arcs."""
    arcs, sccs, sink, dot = frozenset_verdict(m, w, tie_tol)
    v = is_efficient(m, w, tie_tol)
    g = v.digraph
    assert list(map(tuple, g.arcs.tolist())) == sorted(arcs)
    assert all(type(i) is int and type(j) is int for i, j in g.arcs.tolist())
    assert len(g.arcs) == len(arcs)
    assert (v.sccs, v.sink) == (sccs, sink)
    assert to_dot(g) == dot
    for array in (g.adjacency, g.arcs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    return v, arcs


def test_adjacency_digraph_equals_the_frozenset_digraph():
    rng = np.random.default_rng(2024)
    inefficient = ties = several = 0
    for k in range(200):
        m = random_pcm_with_ties(rng, int(rng.integers(2, 17)))
        w = power_iteration(m).w
        if k % 2:    # off the eigenvector, sinks and several components are common
            w = w * np.exp(rng.normal(0.0, 0.3, m.n))
        tie_tol = float(rng.choice([DEFAULT_TIE_TOL, 0.0]))
        v, arcs = assert_frozenset_verdict(m, w, tie_tol)
        inefficient += not v.efficient
        ties += any((j, i) in arcs for i, j in arcs)
        several += len(v.sccs) > 2
    assert inefficient > 50 and ties > 25 and several > 25
    inefficient = several = 0
    for n in (32, 64, 128):
        # a noisy w, and a consistent matrix whose tied blocks of w are scaled apart
        m = random_pcm_with_ties(rng, n)
        w = power_iteration(m).w * np.exp(rng.normal(0.0, 0.3, n))
        c = consistent_pcm(np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1)))
        for m, w in ((m, w), (c, power_iteration(c).w * 1.5 ** rng.integers(0, 4, n))):
            v, _ = assert_frozenset_verdict(m, w, float(rng.choice([DEFAULT_TIE_TOL, 0.0])))
            inefficient += not v.efficient
            several += len(v.sccs) > 2
    assert inefficient >= 4 and several >= 3    # 5 and 4 with this seed


def test_arc_array_is_the_argwhere_of_the_adjacency():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 7, 31, 64, 129, 200):
        for upward in (0.0, 2 / n, 0.5, 1.0):    # 0 gives a transitive tournament
            g = random_ranked_digraph(rng, n, upward)
            expected = np.argwhere(g.adjacency)
            assert g.arcs.dtype == expected.dtype and g.arcs.shape == expected.shape
            assert np.array_equal(g.arcs, expected)


# ----------------------------------------------------------------- verdicts

def test_example1_verdict(example1_pair):
    m, w = example1_pair
    v = is_efficient(m, w)
    assert not v.efficient
    assert v.sink == (1,)                      # node 2, 1-based
    assert len(v.sccs) == 2


def test_consistent_eigenvector_is_efficient():
    rng = np.random.default_rng(3)
    for n in range(3, 10):
        for _ in range(30):
            m = consistent_pcm(np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1)))
            v = is_efficient(m, power_iteration(m).w)
            assert v.efficient
            # every pair ties within tolerance, so all arcs are bidirected
            assert len(v.digraph.arcs) == n * (n - 1)


def test_parametric_family_is_inefficient():
    m = parametric_inefficient(4, 2.0, 3.0)
    v = is_efficient(m, power_iteration(m).w)
    assert not v.efficient


# ----------------------------------------------------------------- dominance

def test_known_improvement_dominates(example1_pair):
    m, w = example1_pair
    w_prime = w.copy()
    w_prime[1] = EXAMPLE1_IMPROVED_W2
    assert dominates(m, w, w_prime)
    old = np.abs(m.entries - np.outer(w, 1 / w))
    new = np.abs(m.entries - np.outer(w_prime, 1 / w_prime))
    strict = {(i + 1, j + 1) for i in range(4) for j in range(4) if new[i, j] < old[i, j]}
    assert strict == {(1, 2), (2, 1), (2, 3), (2, 4), (3, 2), (4, 2)}


def test_vector_does_not_dominate_itself(example1_pair):
    m, w = example1_pair
    assert not dominates(m, w, w)
    assert not dominates(m, w, 2.0 * w)        # scaling changes nothing


def test_consistent_eigenvector_cannot_be_dominated():
    m = consistent_pcm([2.0, 6.0])
    w = power_iteration(m).w
    rng = np.random.default_rng(8)
    for _ in range(25):
        w_prime = w * np.exp(rng.normal(0, 0.1, 3))
        if np.allclose(w_prime / w_prime.sum(), w):
            continue
        assert not dominates(m, w, w_prime)


# --------------------------------------------------------------- improvement

def test_sink_improvement_stays_in_slack_range(example1_pair):
    m, w = example1_pair
    v = is_efficient(m, w)
    w_prime = find_sink_improvement(m, w, v)
    assert dominates(m, w, w_prime)
    # only the sink coordinate moved, into the non-overshooting interval
    upper = min(m.entries[1, j] * w[j] for j in (0, 2, 3))
    assert w[1] < w_prime[1] <= upper
    assert np.array_equal(w_prime[[0, 2, 3]], w[[0, 2, 3]])


def test_no_improvement_for_efficient_vectors():
    m = consistent_pcm([2.0, 6.0])
    w = power_iteration(m).w
    assert find_sink_improvement(m, w, is_efficient(m, w)) is None


def test_improvement_for_parametric_family():
    m = parametric_inefficient(4, 2.0, 3.0)
    w = power_iteration(m).w
    v = is_efficient(m, w)
    w_prime = find_sink_improvement(m, w, v)
    assert w_prime is not None and dominates(m, w, w_prime)


def test_improvement_on_random_inefficient_instances():
    rng = np.random.default_rng(55)
    found = 0
    for _ in range(60):
        n = int(rng.integers(4, 9))
        p = float(np.exp(rng.uniform(np.log(1 / 3), np.log(3))))
        q = float(rng.choice([0.5, 2.0, 5.0]))
        m = parametric_inefficient(n, p, q)
        w = power_iteration(m).w
        v = is_efficient(m, w)
        if not v.efficient:
            found += 1
            w_prime = find_sink_improvement(m, w, v)
            assert dominates(m, w, w_prime)
    assert found == 60


# ----------------------------------------------------------------- rendering

def test_dot_output_is_deterministic(example1_pair):
    m, w = example1_pair
    g = build_digraph(m, w)
    expected = (
        "digraph efficiency {\n"
        "    1;\n    2;\n    3;\n    4;\n"
        "    1 -> 2;\n    1 -> 4;\n    3 -> 1;\n    3 -> 2;\n    4 -> 2;\n    4 -> 3;\n"
        "}\n"
    )
    assert to_dot(g) == expected
    assert to_dot(g) == to_dot(build_digraph(m, w))
