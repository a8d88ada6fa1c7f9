import dataclasses
import itertools

import numpy as np
import pytest

from pcmeff import (
    DegenerateParametersError,
    InvalidCaseError,
    NoConvergenceError,
    PerturbationKind,
    PerturbationStructure,
    Pcm,
    RootNotBracketedError,
    SuiteGrid,
    apply_perturbation,
    charpoly_oracle,
    closed_form_eigenvector,
    consistent_pcm,
    eval_charpoly,
    lambda_max_closed_form,
    power_iteration,
    power_iteration_batch,
    raw_variant_vector,
    spectral,
    variant_count,
)
from pcmeff.pcm import DOUBLE_KINDS

from conftest import EXAMPLE1_W

ORACLE_LAMBDAS = [-2.0, 1.0, 2.5]   # provably away from every bracket root
# the sweep's ratio grid plus factors near 0, near 1 and very large
ROOT_FACTORS = SuiteGrid.ratio_values + (1e-8, 1e-6, 1 - 1e-6, 1 + 1e-6, 1e6, 1e8)


def random_structure(rng, kind, n):
    base = tuple(np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1)))
    d = float(np.exp(rng.uniform(np.log(1 / 9), np.log(9))))
    g = float(np.exp(rng.uniform(np.log(1 / 9), np.log(9))))
    if abs(d - 1) < 1e-3:
        d = 2.0
    if abs(g - 1) < 1e-3:
        g = 0.5
    return PerturbationStructure(kind=kind, n=n, base=base, delta=d, gamma=g)


ALL_CASES = [(PerturbationKind.CASE1, (4, 5, 7, 9)),
             (PerturbationKind.CASE2A, (4,)),
             (PerturbationKind.CASE2B, (5, 6, 8))]


# ------------------------------------------------------------ power iteration

def test_example1_eigenvector_matches_reference_digits(example1):
    r = power_iteration(example1)
    assert np.abs(r.w - EXAMPLE1_W).max() < 1e-7
    assert r.lambda_max > 4.0
    assert r.residual <= 1e-12


def test_consistent_matrix_has_order_eigenvalue():
    m = consistent_pcm([2.0, 6.0])
    r = power_iteration(m)
    assert r.lambda_max == pytest.approx(3.0, abs=1e-11)
    expected = np.array([1.0, 0.5, 1 / 6])
    assert np.allclose(r.w, expected / expected.sum(), rtol=1e-10)


def test_power_iteration_weights_are_normalized(example1):
    r = power_iteration(example1)
    assert r.w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(r.w > 0)


@pytest.mark.parametrize("tol", [0.0, np.nan])
def test_power_tolerance_must_be_positive(example1, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        power_iteration(example1, tol=tol)


def test_power_iteration_is_deterministic(example1):
    r1, r2 = power_iteration(example1), power_iteration(example1)
    assert np.array_equal(r1.w, r2.w) and r1.iterations == r2.iterations


def reference_power_iteration(m, tol=1e-12, max_iter=200_000):
    """One matrix at a time, as the loop ran before it was stacked."""
    a, n = m.entries, m.n
    w = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        y = a @ w
        lam = y.sum()
        residual = np.max(np.abs(y - lam * w)) / np.max(w)
        if residual <= tol:
            return float(lam), w, float(residual), it
        w = y / lam
    raise NoConvergenceError(max_iter, float(residual))


def stack_of_seven(rng):
    """Consistent, noisy and slowly converging matrices of order 7, interleaved.

    The slow members are case2b with delta = gamma = 1e-4, 3e-4 and 1e-3,
    which take hundreds of steps.
    """
    ms = []
    for factor in (1e-4, 3e-4, 1e-3):
        x = np.exp(rng.uniform(np.log(1 / 9), np.log(9), 7))
        noise = np.exp(np.triu(rng.normal(0.0, 0.3, (7, 7)), 1))
        slow = apply_perturbation(PerturbationStructure(
            kind=PerturbationKind.CASE2B, n=7, base=tuple(x[1:] / x[0]),
            delta=factor, gamma=factor))
        ms += [consistent_pcm(x[1:] / x[0]), Pcm(np.outer(x, 1 / x) * noise / noise.T), slow]
    return ms


def test_stack_members_match_their_batches_of_one_and_the_reference_loop():
    ms = stack_of_seven(np.random.default_rng(8))
    before = [m.entries.copy() for m in ms]
    stacked = power_iteration_batch(ms)
    assert len(set(stacked.iterations.tolist())) > 1    # members freeze at different steps
    for k, m in enumerate(ms):
        one = power_iteration(m)
        assert (stacked.lambda_max[k], stacked.residual[k], stacked.iterations[k]) == \
            (one.lambda_max, one.residual, one.iterations)
        assert np.array_equal(stacked.w[k], one.w)
        lam, w, residual, iterations = reference_power_iteration(m)
        assert (one.lambda_max, one.residual, one.iterations) == (lam, residual, iterations)
        assert np.array_equal(one.w, w)
        assert np.array_equal(m.entries, before[k])


def test_sweep_matrices_match_the_reference_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for kind, orders in ALL_CASES:
        for n in orders:
            ms = [apply_perturbation(random_structure(rng, kind, n)) for _ in range(25)]
            r = power_iteration_batch(ms)
            for k, m in enumerate(ms):
                lam, w, residual, iterations = reference_power_iteration(m)
                assert (r.lambda_max[k], r.residual[k], r.iterations[k]) == \
                    (lam, residual, iterations)
                assert np.array_equal(r.w[k], w)


def test_stack_reports_the_first_member_that_does_not_converge():
    ms = stack_of_seven(np.random.default_rng(8))
    errors = []
    for slow in (ms[2], ms[5]):
        with pytest.raises(NoConvergenceError) as scalar:
            power_iteration(slow, max_iter=40)
        errors.append(scalar.value)
    assert errors[0].residual != errors[1].residual
    for stack, first in [(ms, errors[0]), (ms[3:], errors[1])]:
        with pytest.raises(NoConvergenceError) as stacked:
            power_iteration_batch(stack, max_iter=40)
        assert str(stacked.value) == str(first)
        assert (stacked.value.max_iter, stacked.value.residual) == (40, first.residual)


def test_power_iteration_needs_at_least_one_step(example1):
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        power_iteration(example1, max_iter=0)


def test_stack_must_be_nonempty():
    with pytest.raises(ValueError, match="at least one matrix"):
        power_iteration_batch([])


def test_stack_must_share_one_order(example1):
    with pytest.raises(ValueError, match="share order 4, got order 3"):
        power_iteration_batch([example1, consistent_pcm([2.0, 3.0])])


# ----------------------------------------------------- characteristic polynomial

def test_consistent_parameters_make_order_a_root():
    for kind, n in [(PerturbationKind.CASE1, 4), (PerturbationKind.CASE1, 7),
                    (PerturbationKind.CASE2B, 5), (PerturbationKind.CASE2B, 8)]:
        params = PerturbationStructure(kind, n, delta=1.0, gamma=1.0)
        assert eval_charpoly(params, float(n)) == pytest.approx(0.0, abs=1e-12)


def test_disjoint_4x4_consistent_parameters_polynomial():
    # with delta = gamma = 1 the quartic collapses to l^4 - 4 l^3
    params = PerturbationStructure(PerturbationKind.CASE2A, 4, delta=1.0, gamma=1.0)
    for lam in (0.0, 4.0):
        assert eval_charpoly(params, lam) == 0.0
    assert eval_charpoly(params, 2.0) == pytest.approx(2.0**4 - 4 * 2.0**3)


def test_closed_polynomial_matches_determinant():
    st = PerturbationStructure(kind=PerturbationKind.CASE1, n=5, base=(1, 1, 1, 1),
                               delta=2.0, gamma=3.0)
    m = apply_perturbation(st)
    v1, v2 = eval_charpoly(st, 6.0), charpoly_oracle(m, 6.0)
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_polynomial_oracle_agreement_randomized():
    rng = np.random.default_rng(12)
    for kind, orders in ALL_CASES:
        for _ in range(40):
            n = int(rng.choice(orders))
            st = random_structure(rng, kind, n)
            m = apply_perturbation(st)
            for lam in ORACLE_LAMBDAS + [n - 1.0, n - 0.25]:
                p_closed = eval_charpoly(st, lam)
                p_det = charpoly_oracle(m, lam)
                assert abs(p_closed - p_det) <= 1e-8 * max(abs(p_closed), abs(p_det))


def test_oracle_zero_at_eigenvalue(example1):
    lam = power_iteration(example1).lambda_max
    # scale by the matrix norm to make the absolute tolerance meaningful
    scale = np.linalg.norm(example1.entries) ** example1.n
    assert abs(charpoly_oracle(example1, lam)) <= 1e-9 * scale


def test_oracle_on_rank_one_matrix():
    m = consistent_pcm([1.0, 1.0, 1.0])
    assert charpoly_oracle(m, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert charpoly_oracle(m, 4.0) == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------- dominant root

def test_consistent_parameters_return_exact_order():
    assert lambda_max_closed_form(
        PerturbationStructure(PerturbationKind.CASE1, 6, delta=1.0, gamma=1.0)) == 6.0
    assert lambda_max_closed_form(
        PerturbationStructure(PerturbationKind.CASE2A, 4, delta=1.0, gamma=1.0)) == 4.0


def bisection_root(params):
    """The bracket's sign change above n, bisected with np.polyval to adjacent floats.

    This is the bisection the root finder ran before Newton alone replaced it.
    """
    coeffs = spectral._bracket_coeffs(params)
    lo, hi = float(params.n), 1.0 + max(abs(c) for c in coeffs)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.polyval(coeffs, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("kind", DOUBLE_KINDS)
def test_newton_root_matches_bisection_and_eigenvalues(kind):
    for n in SuiteGrid.orders(kind):
        for d, g in itertools.product(ROOT_FACTORS, repeat=2):
            params = PerturbationStructure(kind, n, (1.0,) * (n - 1), d, g)
            lam = lambda_max_closed_form(params)
            assert lam == pytest.approx(bisection_root(params), rel=1e-13, abs=0)
            m = apply_perturbation(params)
            perron = np.linalg.eigvals(m.entries).real.max()
            assert lam == pytest.approx(perron, rel=1e-10, abs=0), (n, d, g)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0), (-1.0, 1.0)])    # p(n) > 0, p(bound) < 0
def test_unbracketed_root_is_an_error(monkeypatch, coeffs):
    monkeypatch.setattr(spectral, "_bracket_coeffs", lambda params: coeffs)
    with pytest.raises(RootNotBracketedError):
        lambda_max_closed_form(PerturbationStructure(PerturbationKind.CASE1, 5, delta=2.0,
                                                     gamma=3.0))


@pytest.mark.parametrize("d,g", [(np.nan, 2.0), (2.0, np.inf), (0.0, 2.0)])
def test_polynomial_needs_positive_finite_factors(d, g):
    with pytest.raises(InvalidCaseError, match="positive finite"):
        PerturbationStructure(PerturbationKind.CASE1, 5, delta=d, gamma=g)


def test_root_is_polynomial_zero_and_matches_power_iteration():
    rng = np.random.default_rng(23)
    for kind, orders in ALL_CASES:
        for _ in range(20):
            n = int(rng.choice(orders))
            st = random_structure(rng, kind, n)
            lam = lambda_max_closed_form(st)
            # the root reads kind, n, delta and gamma only
            assert lambda_max_closed_form(dataclasses.replace(st, base=None)) == lam
            assert lam > n
            assert abs(eval_charpoly(st, lam)) <= 1e-9 * max(1.0, lam**n)
            pr = power_iteration(apply_perturbation(st))
            assert lam == pytest.approx(pr.lambda_max, rel=1e-9)


def test_root_independent_of_base():
    lams = []
    rng = np.random.default_rng(31)
    for _ in range(10):
        st = PerturbationStructure(
            kind=PerturbationKind.CASE2B, n=6,
            base=tuple(np.exp(rng.uniform(-2, 2, 5))), delta=3.0, gamma=0.4)
        lams.append(power_iteration(apply_perturbation(st)).lambda_max)
    assert max(lams) - min(lams) <= 1e-8


# ------------------------------------------------------ closed-form eigenvectors

def test_leading_component_formula():
    # first form of the shared-row case: unnormalized w1 = d*g*l*(l - n + 1)
    st = PerturbationStructure(kind=PerturbationKind.CASE1, n=4, base=(1, 1, 1),
                               delta=2.0, gamma=3.0)
    lam = lambda_max_closed_form(st)
    raw = raw_variant_vector(st, 0, lam)
    assert raw[0] == pytest.approx(6.0 * lam * (lam - 3.0))


def test_variant_counts():
    assert variant_count(PerturbationKind.CASE1) == 4
    assert variant_count(PerturbationKind.CASE2A) == 4
    assert variant_count(PerturbationKind.CASE2B) == 5
    with pytest.raises(InvalidCaseError):
        variant_count(PerturbationKind.SIMPLE)


def test_degenerate_parameters_rejected():
    st = PerturbationStructure(kind=PerturbationKind.CASE1, n=4, base=(1, 1, 1),
                               delta=1.0, gamma=2.0)
    with pytest.raises(DegenerateParametersError):
        closed_form_eigenvector(st)


def test_variants_parallel_positive_and_eigen():
    rng = np.random.default_rng(5)
    for kind, orders in ALL_CASES:
        for _ in range(15):
            n = int(rng.choice(orders))
            st = random_structure(rng, kind, n)
            a = apply_perturbation(st).entries
            lam = lambda_max_closed_form(st)
            vecs = []
            for variant in range(variant_count(kind)):
                raw = raw_variant_vector(st, variant, lam)
                assert np.all(raw > 0)
                res = closed_form_eigenvector(st, variant)
                resid = np.max(np.abs(a @ res.w - lam * res.w)) / np.max(lam * res.w)
                assert resid <= 1e-8
                vecs.append(res.w)
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    cross = np.abs(np.outer(vecs[i], vecs[j]) - np.outer(vecs[j], vecs[i]))
                    scale = np.max(np.abs(vecs[i])) * np.max(np.abs(vecs[j]))
                    assert np.max(cross) / scale <= 1e-9


def test_closed_form_matches_power_iteration():
    rng = np.random.default_rng(17)
    st = random_structure(rng, PerturbationKind.CASE2B, 5)
    w_iter = power_iteration(apply_perturbation(st)).w
    res = closed_form_eigenvector(st)
    assert np.allclose(res.w, w_iter, rtol=1e-8, atol=0)
    assert 0 <= res.variant < 5


def test_default_variant_has_largest_leading_component():
    st = PerturbationStructure(kind=PerturbationKind.CASE1, n=5, base=(2, 3, 4, 5),
                               delta=4.0, gamma=0.3)
    lam = lambda_max_closed_form(st)
    leading = [abs(raw_variant_vector(st, v, lam)[0]) for v in range(4)]
    assert closed_form_eigenvector(st).variant == int(np.argmax(leading))


def test_stacked_variant_vectors_keep_the_one_base_bits():
    # a stack of bases, a stack of one and a one-dimensional x give each form the same bits
    rng = np.random.default_rng(23)
    for kind, orders in ALL_CASES:
        for n in orders:
            for d, g in [(0.2, 7.0), (3.0, 3.0), (1.1, 0.9), (9.0, 0.5)]:
                cell = PerturbationStructure(kind, n, delta=d, gamma=g)
                lam = lambda_max_closed_form(cell)
                xs = np.exp(rng.uniform(np.log(1 / 9), np.log(9), (n, 6)))
                xs[0] = 1.0
                stacked = spectral.variant_vectors(cell, xs, lam)
                assert stacked.shape == (variant_count(kind), n, 6)
                for k in range(6):
                    one = PerturbationStructure(kind, n, tuple(xs[1:, k]), d, g)
                    for v in range(variant_count(kind)):
                        scalar = spectral._variant_vector(one, xs[:, k].copy(), v, lam)
                        assert stacked[v, :, k].tobytes() == scalar.tobytes()
                        assert raw_variant_vector(one, v, lam).tobytes() == scalar.tobytes()
