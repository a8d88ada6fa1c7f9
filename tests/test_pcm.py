import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import (
    CharPolyParams,
    GeneratorSpec,
    IncompatibleOrderError,
    InvalidCaseError,
    NonPositiveEntryError,
    NotSquareError,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    ReciprocityViolationError,
    apply_perturbation,
    classify_perturbation,
    consistent_pcm,
    generate,
    is_consistent,
    pcm,
    reconstruct,
)

ratio = st.floats(min_value=1 / 9, max_value=9.0)


def log_uniform(rng, lo=1 / 9, hi=9.0, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


# ---------------------------------------------------------------- validation

def test_all_ones_matrix_is_valid():
    m = Pcm(np.ones((3, 3)))
    assert m.n == 3
    assert is_consistent(m)


def test_example1_is_valid(example1):
    assert example1.n == 4
    assert example1[1, 3] == 7.0


def test_reciprocity_violation_reports_position():
    with pytest.raises(ReciprocityViolationError) as exc:
        Pcm([[1.0, 3.0], [0.5, 1.0]])
    assert (exc.value.i, exc.value.j) == (0, 1)


@pytest.mark.parametrize("bad", [0.0, -2.0, np.nan, np.inf])
def test_non_positive_entries_rejected(bad):
    with pytest.raises(NonPositiveEntryError):
        Pcm([[1.0, bad], [1.0, 1.0]])


def test_non_square_rejected():
    with pytest.raises(NotSquareError):
        Pcm([[1.0, 2.0, 0.5], [0.5, 1.0, 1.0]])
    with pytest.raises(NotSquareError):
        Pcm([[1.0]])


def test_entries_are_read_only():
    m = Pcm(np.ones((3, 3)))
    with pytest.raises(ValueError):
        m.entries[0, 1] = 2.0


# ------------------------------------------------------------ canonical forms

def test_unit_base_gives_all_ones():
    assert np.array_equal(consistent_pcm([1, 1, 1]).entries, np.ones((4, 4)))


def test_consistent_pcm_matches_ratio_layout():
    m = consistent_pcm([2.0, 6.0])
    expected = np.array([[1, 2, 6], [0.5, 1, 3], [1 / 6, 1 / 3, 1]])
    assert np.allclose(m.entries, expected, rtol=0, atol=0)


def test_equal_base_ratios_give_unit_entry():
    m = consistent_pcm([5.0, 5.0])
    assert m[1, 2] == 1.0


@settings(max_examples=50)
@given(st.lists(ratio, min_size=1, max_size=8))
def test_consistent_construction_always_consistent(xs):
    assert is_consistent(consistent_pcm(xs))


def test_shared_row_perturbation_layout():
    st_ = PerturbationStructure(kind=PerturbationKind.CASE1, n=4, base=(1, 1, 1),
                                delta=2.0, gamma=3.0)
    m = apply_perturbation(st_)
    assert list(m.entries[0]) == [1.0, 2.0, 3.0, 1.0]
    assert m[1, 0] == 0.5 and m[2, 0] == pytest.approx(1 / 3)
    assert not is_consistent(m)


def test_disjoint_row_perturbation_layout():
    st_ = PerturbationStructure(kind=PerturbationKind.CASE2A, n=4, base=(1, 1, 1),
                                delta=2.0, gamma=5.0)
    m = apply_perturbation(st_)
    assert m[0, 1] == 2.0 and m[2, 3] == 5.0 and m[3, 2] == 0.2
    untouched = [(i, j) for i in range(4) for j in range(4)
                 if (i, j) not in {(0, 1), (1, 0), (2, 3), (3, 2)}]
    assert all(m[i, j] == 1.0 for i, j in untouched)


def test_identity_perturbation_is_exactly_consistent():
    st_ = PerturbationStructure(kind=PerturbationKind.CASE2B, n=5, base=(2, 3, 4, 5),
                                delta=1.0, gamma=1.0)
    assert np.array_equal(apply_perturbation(st_).entries,
                          consistent_pcm((2, 3, 4, 5)).entries)


@pytest.mark.parametrize("kind,n", [
    (PerturbationKind.CASE2A, 5),
    (PerturbationKind.CASE2B, 4),
    (PerturbationKind.CASE1, 3),
])
def test_incompatible_orders_rejected(kind, n):
    st_ = PerturbationStructure(kind=kind, n=n, base=(2.0,) * (n - 1), delta=2.0, gamma=3.0)
    with pytest.raises(InvalidCaseError):
        apply_perturbation(st_)


# the orders each canonical form exists at, as the paper states them
PAPER_ORDERS = {
    PerturbationKind.SIMPLE: lambda n: n >= 3,
    PerturbationKind.CASE1: lambda n: n >= 4,
    PerturbationKind.CASE2A: lambda n: n == 4,
    PerturbationKind.CASE2B: lambda n: n >= 5,
}


def _accepts(build, error) -> bool:
    try:
        build()
    except error:
        return False
    return True


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", list(PAPER_ORDERS))
def test_every_layer_accepts_exactly_the_table_orders(kind, n):
    allowed = PAPER_ORDERS[kind](n)
    st_ = PerturbationStructure(kind=kind, n=n, base=(2.0,) * (n - 1), delta=2.0, gamma=3.0)
    assert _accepts(lambda: apply_perturbation(st_), InvalidCaseError) == allowed
    spec = GeneratorSpec(family=kind.value, n=n, seed=1)
    assert _accepts(lambda: generate(spec), IncompatibleOrderError) == allowed
    closed_form = _accepts(lambda: CharPolyParams(kind, n, 2.0, 3.0), InvalidCaseError)
    assert closed_form == (allowed and kind != PerturbationKind.SIMPLE)
    if allowed:
        # so the disjoint-row form classifies as case2a at n = 4 only
        assert classify_perturbation(apply_perturbation(st_)).kind == kind


# --------------------------------------------------------------- consistency

def test_perturbed_matrix_is_inconsistent():
    st_ = PerturbationStructure(kind=PerturbationKind.CASE1, n=4, base=(1, 1, 1),
                                delta=2.0, gamma=3.0)
    assert not is_consistent(apply_perturbation(st_))


def test_example1_is_inconsistent(example1):
    assert not is_consistent(example1)


# ------------------------------------------------------------- classification

def test_classify_consistent_recovers_base():
    c = classify_perturbation(consistent_pcm([2.0, 6.0]))
    assert c.kind == PerturbationKind.CONSISTENT
    assert c.base == pytest.approx((2.0, 6.0))
    assert c.positions == ()


def test_classify_example1_finds_no_small_repair(example1):
    # none of the 22 sets of at most 2 upper cells admits a repair
    c = classify_perturbation(example1)
    assert c.kind == PerturbationKind.OTHER


def test_degenerate_shared_row_4x4_is_simple():
    # with equal factors on both cells of row 1 the 4x4 matrix can be fixed
    # by editing the single remaining cell (1,4) instead
    st_ = PerturbationStructure(kind=PerturbationKind.CASE1, n=4, base=(2, 3, 4),
                                delta=5.0, gamma=5.0)
    c = classify_perturbation(apply_perturbation(st_))
    assert c.kind == PerturbationKind.SIMPLE
    assert c.positions == ((0, 3),)
    assert c.delta == pytest.approx(1 / 5)


def test_degenerate_disjoint_4x4_alternatives():
    base = (1.5, 0.7, 2.2)
    st_ = PerturbationStructure(kind=PerturbationKind.CASE2A, n=4, base=base,
                                delta=2.0, gamma=0.5)      # delta * gamma = 1
    c = classify_perturbation(apply_perturbation(st_))
    assert c.kind == PerturbationKind.CASE2A
    assert c.positions == ((0, 1), (2, 3))
    assert c.alternatives == (((0, 2), (1, 3)),)


@pytest.mark.parametrize("kind,orders", [
    (PerturbationKind.SIMPLE, (3, 5, 7)),
    (PerturbationKind.CASE1, (4, 6, 9)),
    (PerturbationKind.CASE2A, (4,)),
    (PerturbationKind.CASE2B, (5, 7, 9)),
])
def test_classification_round_trip(kind, orders):
    rng = np.random.default_rng(20240601)
    for n in orders:
        for _ in range(25):
            base = tuple(log_uniform(rng, size=n - 1))
            d = float(log_uniform(rng))
            g = float(log_uniform(rng))
            if abs(d - 1) < 1e-3:
                d = 2.0
            if abs(g - 1) < 1e-3:
                g = 0.5
            if kind == PerturbationKind.CASE1 and n == 4 and abs(d / g - 1) < 1e-3:
                g = 2 * d
            st_ = PerturbationStructure(kind=kind, n=n, base=base, delta=d,
                                        gamma=None if kind == PerturbationKind.SIMPLE else g)
            m = apply_perturbation(st_)
            c = classify_perturbation(m)
            assert c.kind == kind
            assert c.delta == pytest.approx(d, rel=1e-6)
            if kind != PerturbationKind.SIMPLE:
                assert c.gamma == pytest.approx(g, rel=1e-6)
            assert c.base == pytest.approx(base, rel=1e-6)


def test_classification_invariant_under_relabeling_and_transpose():
    rng = np.random.default_rng(7)
    kinds = [PerturbationKind.SIMPLE, PerturbationKind.CASE1,
             PerturbationKind.CASE2A, PerturbationKind.CASE2B]
    for trial in range(60):
        kind = kinds[trial % len(kinds)]
        n = 4 if kind == PerturbationKind.CASE2A else int(rng.integers(5, 9))
        base = tuple(log_uniform(rng, size=n - 1))
        st_ = PerturbationStructure(
            kind=kind, n=n, base=base, delta=3.0,
            gamma=None if kind == PerturbationKind.SIMPLE else 0.4)
        a = apply_perturbation(st_).entries
        perm = rng.permutation(n)
        b = a[np.ix_(perm, perm)]
        if trial % 2:
            b = b.T
        c = classify_perturbation(Pcm(b))
        assert c.kind == kind
        # the recovered structure reproduces the relabeled matrix exactly
        rebuilt = reconstruct(c)
        assert np.allclose(rebuilt.entries, b, rtol=1e-9, atol=0)


def test_transposition_maps_factors_to_reciprocals():
    st_ = PerturbationStructure(kind=PerturbationKind.CASE1, n=5, base=(2, 3, 4, 5),
                                delta=3.0, gamma=0.25)
    c = classify_perturbation(Pcm(apply_perturbation(st_).entries.T))
    assert c.kind == PerturbationKind.CASE1
    assert sorted((c.delta, c.gamma)) == pytest.approx(sorted((1 / 3, 4.0)))


def test_classification_respects_order_bounds():
    rng = np.random.default_rng(99)
    for n in (5, 6, 7):
        base = tuple(log_uniform(rng, size=n - 1))
        st_ = PerturbationStructure(kind=PerturbationKind.CASE2B, n=n, base=base,
                                    delta=4.0, gamma=0.3)
        c = classify_perturbation(apply_perturbation(st_))
        assert c.kind != PerturbationKind.CASE2A
    st_ = PerturbationStructure(kind=PerturbationKind.CASE2A, n=4, base=(1.0, 2.0, 3.0),
                                delta=4.0, gamma=0.3)
    assert classify_perturbation(apply_perturbation(st_)).kind != PerturbationKind.CASE2B


def test_order_two_is_vacuously_consistent():
    c = classify_perturbation(Pcm([[1.0, 7.0], [1 / 7, 1.0]]))
    assert c.kind == PerturbationKind.CONSISTENT


# --------------------------------------------------- exhaustive search oracle

def exhaustive_classify(m: Pcm, tol: float) -> PerturbationStructure:
    """The search without pruning: every set of 0, 1 or 2 upper cells, in order."""
    if m.n < 3:
        return classify_perturbation(m, tol)
    pairs = pcm._upper_pairs(m.n)
    for size in (0, 1, 2):
        hits = [(removed, t) for removed in itertools.combinations(pairs, size)
                if (t := pcm._consistent_completion(m.entries, removed, tol)) is not None]
        if hits:
            return pcm._repair_structure(m.entries, hits)
    return PerturbationStructure(kind=PerturbationKind.OTHER, n=m.n)


ORACLE_TOLS = (0.0, 1e-12, 1e-9, 1e-3, 0.5)
# factors a hair off 1, around the default tolerance, and plain ones
near_one = st.sampled_from([1e-12, 5e-10, 1e-9, 2e-9, 5e-9, 1e-6, 1e-3]).flatmap(
    lambda e: st.sampled_from([1.0 + e, 1.0 - e]))
factor = st.one_of(st.floats(min_value=-2.2, max_value=2.2).map(np.exp), near_one)


SHAPES = [(n, kind) for kind in (PerturbationKind.CONSISTENT, *pcm.CANONICAL_FORMS)
          for n in range(3, 10)
          if kind not in pcm.CANONICAL_FORMS or pcm.CANONICAL_FORMS[kind].allows(n)]


@st.composite
def classifiable_matrices(draw, n: int, kind: PerturbationKind) -> Pcm:
    """Relabeled, possibly transposed and noisy matrices built as ``kind``."""
    span = draw(st.sampled_from([2.2, 92.0]))      # ratios within 1/9..9 or 1e-40..1e40
    base = tuple(np.exp(draw(st.lists(st.floats(min_value=-span, max_value=span),
                                      min_size=n - 1, max_size=n - 1))))
    if kind == PerturbationKind.CONSISTENT:
        a = consistent_pcm(base).entries
    else:
        delta = draw(factor)
        gamma = draw(st.one_of(factor, st.just(delta), st.just(1.0 / delta)))
        a = apply_perturbation(PerturbationStructure(kind=kind, n=n, base=base,
                                                     delta=delta, gamma=gamma)).entries
    noise = draw(st.sampled_from([0.0, 0.0, 1e-12, 5e-10, 1e-6, 0.3]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    skew = np.triu(rng.normal(0.0, noise, (n, n)), 1)
    a = a * np.exp(skew - skew.T)
    perm = list(draw(st.permutations(range(n))))
    a = a[np.ix_(perm, perm)]
    return Pcm(a.T if draw(st.booleans()) else a)


@pytest.mark.parametrize("n,kind", SHAPES)
@settings(max_examples=4, derandomize=True, deadline=None)
@given(data=st.data())
def test_pruned_search_equals_exhaustive_search(n, kind, data):
    m = data.draw(classifiable_matrices(n, kind))
    for tol in ORACLE_TOLS:
        assert classify_perturbation(m, tol) == exhaustive_classify(m, tol)


def test_pruning_keeps_a_triad_at_the_largest_accepted_residual():
    # at tol = 0.5 a kept cell may be off by a factor in [1/1.5, 2], so these
    # edits all pass although triad (1, 2, 3) has log residual 1.79 > 3 * 0.5
    a = np.array(consistent_pcm([2.0, 3.0, 5.0]).entries)
    for (i, j), f in {(1, 2): 1.999, (2, 3): 1.999, (1, 3): 1 / 1.4999}.items():
        a[i, j] *= f
        a[j, i] = 1 / a[i, j]
    m = Pcm(a)
    assert classify_perturbation(m, 0.5) == exhaustive_classify(m, 0.5)
    assert classify_perturbation(m, 0.5).kind == PerturbationKind.CONSISTENT


@pytest.mark.parametrize("kind", [PerturbationKind.SIMPLE, PerturbationKind.CASE1,
                                  PerturbationKind.CASE2B])
@pytest.mark.parametrize("n", [32, 64])
def test_large_order_round_trip(kind, n):
    rng = np.random.default_rng(n)
    base = tuple(log_uniform(rng, size=n - 1))
    st_ = PerturbationStructure(kind=kind, n=n, base=base, delta=3.0,
                                gamma=None if kind == PerturbationKind.SIMPLE else 0.4)
    perm = rng.permutation(n)
    b = apply_perturbation(st_).entries[np.ix_(perm, perm)]
    c = classify_perturbation(Pcm(b))
    assert c.kind == kind
    where = np.argsort(perm)        # b[where[i], where[j]] is canonical cell (i, j)
    assert c.positions == tuple(sorted(tuple(sorted((int(where[i]), int(where[j]))))
                                       for i, j in pcm.CANONICAL_FORMS[kind].cells))
    assert c.alternatives == ()
    assert np.allclose(reconstruct(c).entries, b, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n", [32, 64])
def test_large_order_noisy_matrix_is_other(n):
    rng = np.random.default_rng(n)
    skew = np.triu(rng.normal(0.0, 0.3, (n, n)), 1)
    m = Pcm(consistent_pcm(log_uniform(rng, size=n - 1)).entries * np.exp(skew - skew.T))
    assert classify_perturbation(m) == PerturbationStructure(kind=PerturbationKind.OTHER, n=n)
