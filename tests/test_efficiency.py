import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import (
    EfficiencyDigraph,
    Pcm,
    build_digraph,
    consistent_pcm,
    dominates,
    find_sink_improvement,
    is_efficient,
    parametric_inefficient,
    power_iteration,
    reachability_oracle,
    strongly_connected,
    to_dot,
)

from conftest import EXAMPLE1_ARCS_1BASED, EXAMPLE1_IMPROVED_W2


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


@settings(max_examples=40)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_pair_completeness(n, seed):
    # reciprocity forces w_i/w_j >= a_ij or w_j/w_i >= a_ji for every pair
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1))
    a = np.array(consistent_pcm(xs).entries)
    i, j = sorted(rng.choice(n, size=2, replace=False))
    a[i, j] *= 3.0
    a[j, i] = 1.0 / a[i, j]
    m = Pcm(a)
    w = rng.dirichlet(np.ones(n))
    g = build_digraph(m, w)
    for i in range(n):
        for j in range(i + 1, n):
            assert g.has_arc(i, j) or g.has_arc(j, i)


# ------------------------------------------------------------ strong connectivity

def test_example1_not_strongly_connected(example1_pair):
    m, w = example1_pair
    ok, comps = strongly_connected(build_digraph(m, w))
    assert not ok
    assert [1] in [list(c) for c in comps]      # node 2 (0-based 1) is its own component


def test_complete_bidirected_is_strongly_connected():
    n = 5
    arcs = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
    ok, comps = strongly_connected(EfficiencyDigraph(n=n, arcs=arcs, tie_tol=0.0))
    assert ok and len(comps) == 1


def test_directed_cycle_is_strongly_connected():
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    extra = [(0, 2), (1, 3)]     # one arc per leftover pair
    g = EfficiencyDigraph(n=4, arcs=frozenset(cycle + extra), tie_tol=0.0)
    ok, _ = strongly_connected(g)
    assert ok and reachability_oracle(g)


def random_pair_complete_digraph(rng, n):
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.integers(0, 3)
            if c != 1:
                arcs.add((i, j))
            if c != 0:
                arcs.add((j, i))
    return EfficiencyDigraph(n=n, arcs=frozenset(arcs), tie_tol=0.0)


def test_tarjan_agrees_with_bfs_oracle():
    rng = np.random.default_rng(77)
    for _ in range(300):
        g = random_pair_complete_digraph(rng, int(rng.integers(2, 13)))
        ok, comps = strongly_connected(g)
        assert ok == reachability_oracle(g)
        assert sorted(v for comp in comps for v in comp) == list(range(g.n))


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
    upper = min(m[1, j] * w[j] for j in (0, 2, 3))
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
