import collections
import itertools
import json
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import (
    GeneratorSpec,
    IncompatibleOrderError,
    InvalidCaseError,
    NonPositiveEntryError,
    NotSquareError,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    PcmError,
    PotentialRangeError,
    ReciprocityViolationError,
    SuiteGrid,
    apply_perturbation,
    classify_perturbation,
    consistent_pcm,
    generate,
    lambda_max_closed_form,
    pcm,
    reconstruct,
)
from pcmeff.generators import FAMILIES

from conftest import is_consistent

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


def test_overflowing_reciprocal_product_is_a_violation():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReciprocityViolationError) as exc:
            Pcm([[1.0, 1e200], [1e200, 1.0]])
    assert (exc.value.i, exc.value.j, exc.value.product) == (0, 1, np.inf)


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


def loop_validate(entries) -> None:
    """``Pcm``'s checks cell by cell in row-major order, as it made them before masks."""
    a = np.array(entries, dtype=float)
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            v = a[i, j]
            if not np.isfinite(v) or v <= 0.0:
                raise NonPositiveEntryError(i, j, float(v))
    for i in range(n):
        for j in range(i, n):
            prod = a[i, j] * a[j, i]
            if abs(prod - 1.0) > pcm.RECIPROCITY_TOL * max(1.0, abs(prod)):
                raise ReciprocityViolationError(i, j, float(prod))


def _outcome(validate, entries):
    try:
        validate(entries)
    except PcmError as exc:
        return type(exc), str(exc)
    return None


TOL = pcm.RECIPROCITY_TOL
# ways to damage one cell: values that are not positive finite reals, and
# factors that break reciprocity just beyond, or stay just inside, the tolerance
NOT_POSITIVE = [lambda v: np.nan, lambda v: np.inf, lambda v: -np.inf, lambda v: 0.0,
                lambda v: -0.0, lambda v: -v]
RECIPROCITY_BREAKS = [lambda v, f=f: v * f for f in (
    1.0 + 1.01 * TOL, 1.0 + 0.99 * TOL, 1.0 - 1.01 * TOL, 1.0 - 0.99 * TOL, 1.0 + 0.4 * TOL, 3.0)]


@st.composite
def damaged_matrices(draw):
    """Consistent matrices of order 2-9 with one to four cells damaged, diagonal included."""
    n = draw(st.integers(min_value=2, max_value=9))
    x = np.asarray(draw(st.lists(ratio, min_size=n, max_size=n)))
    a = x[None, :] / x[:, None]
    damage = st.sampled_from(RECIPROCITY_BREAKS + draw(st.sampled_from([[], NOT_POSITIVE])))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cell, min_size=1, max_size=4)):
        if draw(st.booleans()):
            i = j
        a[i, j] = draw(damage)(a[i, j])
    return a


@settings(max_examples=400, derandomize=True, deadline=None)
@given(damaged_matrices())
def test_validation_errors_match_the_cell_by_cell_checks(entries):
    expected = _outcome(loop_validate, entries)
    assert _outcome(Pcm, entries) == expected


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


def test_base_beyond_the_float_range_names_its_ratios():
    assert consistent_pcm([1e150, 1e-150])[2, 1] == pytest.approx(1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidCaseError, match=r"base ratios 1e-200 and 1e\+200"):
            consistent_pcm([1e200, 1.0, 1e-200])


@settings(max_examples=50, derandomize=True, deadline=None)
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


@pytest.mark.parametrize("name,value", [("delta", 0.0), ("gamma", -2.0), ("delta", np.inf),
                                        ("gamma", np.nan)])
def test_bad_perturbation_factor_is_named(name, value):
    factors = {"delta": 2.0, "gamma": 3.0, name: value}
    with pytest.raises(InvalidCaseError, match=rf"^{name} must be a positive finite real, "
                                               rf"got {value!r}$"):
        PerturbationStructure(kind=PerturbationKind.CASE1, n=5, base=(1, 1, 1, 1), **factors)


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
    with pytest.raises(InvalidCaseError):
        PerturbationStructure(kind=kind, n=n, base=(2.0,) * (n - 1), delta=2.0, gamma=3.0)


def test_structure_order_must_match_its_base():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidCaseError, match=r"^order n = 7 needs 6 base ratios, got 3$"):
            PerturbationStructure(PerturbationKind.CASE1, n=7, base=(2, 3, 4), delta=2, gamma=3)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_structure_rejects_a_base_ratio_that_is_no_positive_finite_real(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidCaseError, match="^base ratios must be positive finite reals$"):
            PerturbationStructure(PerturbationKind.CASE1, 4, (bad, 2.0, 3.0), 2.0, 3.0)


@pytest.mark.parametrize("kind", list(pcm.CANONICAL_FORMS))
def test_stacked_build_equals_apply_perturbation_member_by_member(kind):
    rng = np.random.default_rng(31)
    cells = len(pcm.CANONICAL_FORMS[kind].cells)
    for n in SuiteGrid.orders(kind):
        bases = log_uniform(rng, size=(5, n - 1))
        factors = [log_uniform(rng, size=5) for _ in range(cells)]
        for stack_factors in (factors, [f[2] for f in factors]):    # one per base, or one
            stack = pcm.canonical_entries(kind, bases, *stack_factors)
            assert stack.shape == (5, n, n)
            for k in range(5):
                member_factors = [float(np.broadcast_to(f, 5)[k]) for f in stack_factors]
                one = apply_perturbation(PerturbationStructure(kind, n, tuple(bases[k].tolist()),
                                                               *member_factors))
                assert stack[k].tobytes() == one.entries.tobytes()


def _damage_one_cell(stack):
    stack[2, 3, 1] *= 1.0 + 1e-9     # breaks the reciprocity of cell (1, 3)
    return stack


@pytest.mark.parametrize("build", [
    # delta overflows cell (0, 1) of member 2 to inf, and its reciprocal to 0
    pytest.param(lambda: pcm.canonical_entries(PerturbationKind.CASE1, np.full((4, 4), 2.0),
                                               np.array([2.0, 3.0, 1e308, 0.5]), 3.0),
                 id="overflowing-delta"),
    pytest.param(lambda: _damage_one_cell(pcm.canonical_entries(
        PerturbationKind.CASE2B, np.full((4, 4), 2.0), 2.0, 0.5)), id="broken-reciprocity"),
])
def test_a_bad_stack_member_fails_as_it_does_alone(build):
    with np.errstate(over="ignore"):
        stack = build()
    with pytest.raises(PcmError) as alone:
        Pcm(stack[2])
    assert type(alone.value) in (NonPositiveEntryError, ReciprocityViolationError)
    with pytest.raises(type(alone.value)) as stacked:
        pcm.validate_entries(stack)
    assert (stacked.value.i, stacked.value.j, str(stacked.value)) == \
        (alone.value.i, alone.value.j, str(alone.value))


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

    def structure(base=(2.0,) * (n - 1)):
        return PerturbationStructure(kind=kind, n=n, base=base, delta=2.0, gamma=3.0)

    assert _accepts(lambda: apply_perturbation(structure()), InvalidCaseError) == allowed
    spec = GeneratorSpec(family=kind.value, n=n, seed=1)
    assert _accepts(lambda: generate(spec), IncompatibleOrderError) == allowed
    closed_form = _accepts(lambda: lambda_max_closed_form(structure(None)), InvalidCaseError)
    assert closed_form == (allowed and kind != PerturbationKind.SIMPLE)
    if allowed:
        # so the disjoint-row form classifies as case2a at n = 4 only
        assert classify_perturbation(apply_perturbation(structure())).kind == kind


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
    assert c == PerturbationStructure(kind=PerturbationKind.CONSISTENT, n=2, base=(7.0,),
                                      permutation=(0, 1))
    assert (c.positions, c.alternatives, c.delta, c.gamma) == ((), (), None, None)
    assert [x.hex() for x in c.base] == [(7.0).hex()]


def test_order_three_inconsistent_matrix_is_simple_at_every_cell():
    # every single cell of a 3x3 matrix is a repair; (0, 1) is the primary one
    c = classify_perturbation(Pcm([[1.0, 2.0, 4.0], [0.5, 1.0, 8.0], [0.25, 0.125, 1.0]]))
    assert c == PerturbationStructure(kind=PerturbationKind.SIMPLE, n=3, base=(0.5, 4.0),
                                      delta=4.0, positions=((0, 1),), permutation=(0, 1, 2),
                                      alternatives=(((0, 2),), ((1, 2),)))
    assert [x.hex() for x in c.base + (c.delta,)] == [x.hex() for x in (0.5, 4.0, 4.0)]


def test_canonical_kind_finds_every_table_row_at_its_orders():
    for kind, form in pcm.CANONICAL_FORMS.items():
        for n in range(2, 12):
            if form.allows(n):
                assert pcm.canonical_kind(form.cells, n) == kind, (kind, n)
    for cells, n in [(((0, 1),), 2), (((0, 1), (0, 2)), 3), (((0, 1), (2, 3)), 3),
                     (((0, 2),), 5), (((0, 1), (1, 2)), 5)]:
        with pytest.raises(InvalidCaseError, match="no canonical form"):
            pcm.canonical_kind(cells, n)


# --------------------------------------------------- exhaustive search oracle

def reference_permutation(n: int, positions: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Relabeling that moves the perturbed cells into their canonical spots, size by size.

    The reference for ``pcm._canonical_permutation``.
    """
    if len(positions) == 0:
        return tuple(range(n))
    if len(positions) == 1:
        i, j = positions[0]
        head = [i, j]
    else:
        (i1, j1), (i2, j2) = positions
        nodes1, nodes2 = {i1, j1}, {i2, j2}
        shared = nodes1 & nodes2
        if shared:
            v = min(shared)
            others = sorted((nodes1 | nodes2) - {v})
            head = [v, others[0], others[1]]
        else:
            head = [i1, j1, i2, j2]
    rest = [k for k in range(n) if k not in head]
    return tuple(head + rest)


def reference_kind(n: int, positions: tuple[tuple[int, int], ...]) -> PerturbationKind:
    """The kind of a repair by its size and shared node, the reference for ``pcm._repair_kind``."""
    if len(positions) == 0:
        return PerturbationKind.CONSISTENT
    if len(positions) == 1:
        return PerturbationKind.SIMPLE
    if set(positions[0]) & set(positions[1]):
        return PerturbationKind.CASE1
    return PerturbationKind.CASE2A if n == 4 else PerturbationKind.CASE2B


def reference_structure(a: np.ndarray, hits) -> PerturbationStructure:
    """The structure of the smallest repairs ``hits``, relabeled by the reference rules."""
    n = a.shape[0]
    hits = sorted(hits, key=lambda h: h[0])
    positions, t = hits[0]
    perm = reference_permutation(n, positions)
    kind = reference_kind(n, positions)
    tp = t[list(perm)]

    def ratio(ci: int, cj: int) -> float:
        oi, oj = perm[ci], perm[cj]
        return float(a[oi, oj] * t[oi] / t[oj])

    factors = [ratio(i, j) for i, j in pcm.CANONICAL_FORMS[kind].cells]
    delta, gamma = (factors + [None, None])[:2]
    return PerturbationStructure(kind=kind, n=n, base=tuple((tp[1:] / tp[0]).tolist()),
                                 delta=delta, gamma=gamma, positions=positions,
                                 permutation=perm, alternatives=tuple(h[0] for h in hits[1:]))


def test_relabeling_and_kind_match_the_reference_rules():
    sets = 0
    for n in range(2, 10):
        for size in range(3):
            for positions in itertools.combinations(pcm._upper_pairs(n), size):
                sets += 1
                perm = pcm._canonical_permutation(n, positions)
                assert perm == reference_permutation(n, positions), (n, positions)
                kind = reference_kind(n, positions)
                if pcm.CANONICAL_FORMS[kind].allows(n):
                    assert pcm._repair_kind(n, positions) == kind, (n, positions)
                else:
                    with pytest.raises(InvalidCaseError):
                        pcm._repair_kind(n, positions)
    assert sets == 1514


def bfs_potentials(a: np.ndarray, removed) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Potentials t_j / t_i = a_ij over a breadth-first spanning forest, and the kept cells.

    The reference for ``pcm._potentials``: adjacency lists of the kept upper
    cells, one search per unvisited root.  A potential that underflows to 0
    stays 0, as visits are marked apart from the potentials.
    """
    n = a.shape[0]
    removed_set = set(removed)
    kept = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in removed_set]
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in kept:
        adj[i].append(j)
        adj[j].append(i)
    t = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        t[root], seen[root] = 1.0, True
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    with np.errstate(over="ignore"):
                        t[v], seen[v] = t[u] * a[u, v], True
                    queue.append(v)
    return t, kept


def bfs_misses(a: np.ndarray, t: np.ndarray, kept) -> list[tuple[float, float]]:
    """(|a_ij - t_j / t_i|, a_ij) of each kept cell, one scalar at a time."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return [(abs(a[i, j] - t[j] / t[i]), a[i, j]) for i, j in kept]


def bfs_accepts(misses, tol: float) -> bool:
    """No kept cell is off by more than tol * a_ij (a NaN miss passes)."""
    return not any(d > tol * x for d, x in misses)


def bfs_completion(a: np.ndarray, removed, tol: float):
    """Consistent completion by graph search, the reference for ``pcm._consistent_completion``."""
    t, kept = bfs_potentials(a, removed)
    return t if bfs_accepts(bfs_misses(a, t, kept), tol) else None


def exhaustive_classify(m: Pcm, tol: float) -> PerturbationStructure:
    """The search without pruning: every set of 0, 1 or 2 upper cells, in order, by BFS."""
    pairs = pcm._upper_pairs(m.n)
    for size in (0, 1, 2):
        hits = [(removed, t) for removed in itertools.combinations(pairs, size)
                if (t := bfs_completion(m.entries, removed, tol)) is not None]
        if hits:
            return reference_structure(m.entries, hits)
    return PerturbationStructure(kind=PerturbationKind.OTHER, n=m.n)


def assert_completion_equals_bfs(a: np.ndarray, tols) -> None:
    """Same decision and potential bits on every removal set the search can reach.

    Where a BFS potential is 0 or inf, the completion must raise
    ``PotentialRangeError`` naming the set instead.
    """
    n = a.shape[0]
    pairs = pcm._upper_pairs(n)
    # at n = 3 the search stops at size 1: removing (1, 2) leaves a tree
    for size in range(3 if n > 3 else 2):
        for removed in itertools.combinations(pairs, size):
            t, kept = bfs_potentials(a, removed)
            if not np.all((t > 0.0) & (t < np.inf)):
                for tol in tols:
                    with pytest.raises(PotentialRangeError, match=re.escape(f"at {removed} ")):
                        pcm._consistent_completion(a, removed, tol)
                continue
            misses = bfs_misses(a, t, kept)
            for tol in tols:
                got = pcm._consistent_completion(a, removed, tol)
                if bfs_accepts(misses, tol):
                    assert got is not None and got.tobytes() == t.tobytes(), (removed, tol)
                else:
                    assert got is None, (removed, tol)


ORACLE_TOLS = (0.0, 1e-12, 1e-9, 1e-3, 0.5)
# factors a hair off 1, around the default tolerance, and plain ones
near_one = st.sampled_from([1e-12, 5e-10, 1e-9, 2e-9, 5e-9, 1e-6, 1e-3]).flatmap(
    lambda e: st.sampled_from([1.0 + e, 1.0 - e]))
factor = st.one_of(st.floats(min_value=-2.2, max_value=2.2).map(np.exp), near_one)


SHAPES = [(n, kind) for kind, form in pcm.CANONICAL_FORMS.items()
          for n in range(3, 10) if form.allows(n)]


def _skewed(a: np.ndarray, rng, noise: float) -> np.ndarray:
    """``a`` with reciprocal log-normal noise of deviation ``noise`` on every off-diagonal pair."""
    skew = np.triu(rng.normal(0.0, noise, a.shape), 1)
    return a * np.exp(skew - skew.T)


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
    a = _skewed(a, rng, noise)
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


@pytest.mark.parametrize("n,kind", SHAPES)
@settings(max_examples=1, derandomize=True, deadline=None)
@given(data=st.data())
def test_completion_equals_the_bfs_on_every_removal_set(n, kind, data):
    # the first derandomized draw is all ones; the search oracle above covers it
    m = data.draw(classifiable_matrices(n, kind).filter(lambda m: np.any(m.entries != 1.0)))
    assert_completion_equals_bfs(m.entries, ORACLE_TOLS)


def reference_bad_triads(a: np.ndarray, tol: float) -> np.ndarray:
    """``pcm._bad_triads`` one triad of ``itertools.combinations`` at a time, scalar tests."""
    n, eps = a.shape[0], np.finfo(float).eps
    number = {cell: c for c, cell in enumerate(itertools.combinations(range(n), 2))}
    logs = np.log(a)
    cell_tol = tol * (1.0 + 2.0 * eps)
    bound = -np.log1p(-cell_tol) if cell_tol < 1.0 else None
    rows = []
    for i, k, j in itertools.combinations(range(n), 3):
        # row 0 sets the potentials t_k = a_0k and t_j = a_0j
        bad = i == 0 and not abs(a[k, j] - a[0, j] / a[0, k]) <= tol * a[k, j]
        if bound is not None:
            lik, lkj, lij = logs[i, k], logs[k, j], logs[i, j]
            slack = 8.0 * eps * (abs(lik) + abs(lkj) + abs(lij) + 3.0 * bound + 1.0)
            bad = bad or abs(lik + lkj - lij) > 3.0 * bound + slack
        if bad:
            rows.append((number[i, k], number[k, j], number[i, j]))
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def test_bad_triads_match_the_combinations_reference_at_every_analyzed_order():
    # orders up to 16, as analyze classifies, with noise from none to far beyond every tol
    rng = np.random.default_rng(16)
    counts = collections.Counter()
    for n in range(2, 17):
        for noise in (0.0, 1e-10, 1e-4, 0.3):
            a = _skewed(consistent_pcm(log_uniform(rng, size=n - 1)).entries, rng, noise)
            for tol in ORACLE_TOLS + (1.5,):
                got, expected = pcm._bad_triads(a, tol), reference_bad_triads(a, tol)
                assert got.dtype == np.intp and got.shape == expected.shape, (n, noise, tol)
                assert np.array_equal(got, expected), (n, noise, tol)
                counts[len(got) > 0] += 1
    assert counts[True] and counts[False]    # tables both empty and not


def test_potentials_beyond_the_float_range_raise_no_warning():
    # removing (0, 2) fits every other cell exactly in log space, but
    # t_2 = 1e-160 * 1e-180 underflows to 0 (overflows in the transpose),
    # so no float base holds that size-1 repair
    a = np.ones((4, 4))
    for (i, j), v in {(0, 1): 1e-160, (0, 2): 1e-300, (0, 3): 1e-160, (1, 2): 1e-180,
                      (2, 3): 1e180}.items():
        a[i, j], a[j, i] = v, 1.0 / v
    for b, log10 in [(a, -340.0), (a.T, 340.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PotentialRangeError, match=re.escape(
                    f"the simple repair at ((0, 2),) needs a potential of 10^{log10} "
                    "relative to node 0")):
                classify_perturbation(Pcm(b))
            assert_completion_equals_bfs(b, ORACLE_TOLS)


# ------------------------------------------------------ pinned classifications

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "classify_golden.json"


def golden_matrices():
    """(label, matrix, tol) of the classifications ``classify_golden.json`` pins.

    Every generator family at every order 4-9 it allows, relabeled and
    every other one transposed; then noisy matrices and bases spanning
    e^-92..e^92, each at one of the oracle tolerances.
    """
    rng = np.random.default_rng(2016)
    cases = []
    for family in FAMILIES:
        for n in range(4, 10):
            try:
                m, _ = generate(GeneratorSpec(family, n=n, seed=n))
            except IncompatibleOrderError:
                continue
            cases.append((f"{family}-n{n}", m.entries, pcm.DEFAULT_CONSISTENCY_TOL))
    for k, (family, n, noise, tol) in enumerate([
            ("case1", 6, 1e-12, 1e-9), ("case2b", 7, 5e-10, 1e-9), ("simple", 5, 1e-6, 1e-3),
            ("consistent", 8, 0.3, 0.5), ("case2a", 4, 2e-9, 0.0)]):
        m, _ = generate(GeneratorSpec(family, n=n, seed=100 + k))
        cases.append((f"{family}-n{n}-noise{noise}", _skewed(m.entries, rng, noise), tol))
    for k, (family, n) in enumerate([("case1", 5), ("case2b", 8), ("simple", 9),
                                     ("consistent", 6)]):
        base = tuple(np.exp(rng.uniform(-92.0, 92.0, n - 1)).tolist())
        m, _ = generate(GeneratorSpec(family, n=n, base=base, seed=200 + k))
        cases.append((f"{family}-n{n}-wide", m.entries, ORACLE_TOLS[k + 1]))
    relabeled = []
    for k, (label, a, tol) in enumerate(cases):
        perm = rng.permutation(a.shape[0])
        b = a[np.ix_(perm, perm)]
        relabeled.append((label, Pcm(b.T if k % 2 else b), tol))
    return relabeled


def golden_record(c: PerturbationStructure) -> dict:
    """A classification with every float as ``float.hex``."""
    def hexed(v):
        return None if v is None else float(v).hex()
    return {
        "kind": c.kind.value,
        "positions": [list(p) for p in c.positions],
        "permutation": None if c.permutation is None else list(c.permutation),
        "alternatives": [[list(p) for p in alt] for alt in c.alternatives],
        "base": None if c.base is None else [hexed(x) for x in c.base],
        "delta": hexed(c.delta),
        "gamma": hexed(c.gamma),
    }


def test_classification_bits_match_the_pinned_records():
    pinned = json.loads(GOLDEN_PATH.read_text())
    cases = golden_matrices()
    assert [r["case"] for r in pinned] == [label for label, _, _ in cases]
    for record, (label, m, tol) in zip(pinned, cases):
        assert record["tol"] == tol.hex(), label
        assert record["result"] == golden_record(classify_perturbation(m, tol)), label


@pytest.mark.parametrize("tol", [-1e-9, np.nan])
def test_consistency_tolerance_must_be_non_negative(tol):
    with pytest.raises(ValueError, match="tol must be non-negative"):
        classify_perturbation(consistent_pcm([2.0, 3.0]), tol)


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
