import dataclasses
import hashlib
import itertools
import json
import pathlib
import warnings

import numpy as np
import pytest

from pcmeff import (
    InvalidCaseError,
    NoConvergenceError,
    PerturbationKind,
    PotentialRangeError,
    PerturbationStructure,
    Pcm,
    RootNotBracketedError,
    SuiteGrid,
    apply_perturbation,
    closed_form_eigenvector,
    lambda_max_closed_form,
    power_iteration,
    power_iteration_batch,
    raw_variant_vector,
    spectral,
    variant_count,
)
from pcmeff.pcm import CANONICAL_FORMS, DOUBLE_KINDS

from conftest import EXAMPLE1_W, charpoly_oracle, consistent_pcm, eval_charpoly

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
    stacked = power_iteration_batch(np.array([m.entries for m in ms]))
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
            r = power_iteration_batch(np.array([m.entries for m in ms]))
            for k, m in enumerate(ms):
                lam, w, residual, iterations = reference_power_iteration(m)
                assert (r.lambda_max[k], r.residual[k], r.iterations[k]) == \
                    (lam, residual, iterations)
                assert np.array_equal(r.w[k], w)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_stacks_mixing_kinds_at_one_order_match_the_reference_loop(n):
    # the lemma sweep solves the shared-row and the disjoint-row matrices of one order as one stack
    rng = np.random.default_rng(n)
    shared_row, disjoint = (k for k in DOUBLE_KINDS if CANONICAL_FORMS[k].allows(n))
    groups = [[apply_perturbation(random_structure(rng, kind, n)) for _ in range(12)]
              for kind in (shared_row, disjoint)]
    for stack in (groups[0] + groups[1], groups[1] + groups[0]):
        r = power_iteration_batch(np.array([m.entries for m in stack]))
        for k, m in enumerate(stack):
            lam, w, residual, iterations = reference_power_iteration(m)
            assert (r.lambda_max[k], r.residual[k], r.iterations[k]) == \
                (lam, residual, iterations)
            assert r.w[k].tobytes() == w.tobytes()


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
            power_iteration_batch(np.array([m.entries for m in stack]), max_iter=40)
        assert str(stacked.value) == str(first)
        assert (stacked.value.max_iter, stacked.value.residual) == (40, first.residual)


def test_power_iteration_needs_at_least_one_step(example1):
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        power_iteration(example1, max_iter=0)


def test_stack_must_be_nonempty():
    with pytest.raises(ValueError, match="at least one matrix"):
        power_iteration_batch(np.empty((0, 4, 4)))


def members_converging_at_steps_1_to_17():
    """Order-6 matrices whose reference loop converges at step 1, 2, ..., 17, in that order.

    Each is the all-ones matrix under seeded reciprocal noise; the step grows
    with the noise, so a geometric sweep of its scale meets every step.
    """
    rng = np.random.default_rng(3)
    found = {}
    for scale in np.geomspace(1e-15, 2.0, 400):
        noise = np.exp(np.triu(rng.normal(0.0, scale, (6, 6)), 1))
        m = Pcm(noise / noise.T)
        found.setdefault(reference_power_iteration(m)[3], m)
    return [found[step] for step in range(1, 18)]


@pytest.mark.parametrize("max_iter", [1, 7, 9, 40])
def test_members_converging_at_every_step_match_the_reference_loop(max_iter):
    # steps 1 to 17 cross the block boundaries after steps 8 and 16; a run cut at
    # max_iter reports the first member the reference loop cannot finish
    ms = members_converging_at_steps_1_to_17()
    for stack in (ms, ms[::-1], ms[7:10], ms[8:9]):
        expected = []
        for m in stack:
            try:
                expected.append(reference_power_iteration(m, max_iter=max_iter))
            except NoConvergenceError as error:
                expected.append(error)
        failed = [e for e in expected if isinstance(e, NoConvergenceError)]
        if failed:
            with pytest.raises(NoConvergenceError) as stacked:
                power_iteration_batch(np.array([m.entries for m in stack]), max_iter=max_iter)
            assert str(stacked.value) == str(failed[0])
            assert (stacked.value.max_iter, float(stacked.value.residual).hex()) == \
                (max_iter, float(failed[0].residual).hex())
            continue
        r = power_iteration_batch(np.array([m.entries for m in stack]), max_iter=max_iter)
        for k, (lam, w, residual, iterations) in enumerate(expected):
            assert (r.lambda_max[k], r.residual[k], r.iterations[k]) == \
                (lam, residual, iterations)
            assert r.w[k].tobytes() == w.tobytes()


# ----------------------------------------------------- characteristic polynomial

def test_consistent_parameters_make_order_a_root():
    for kind, n in [(PerturbationKind.CASE1, 4), (PerturbationKind.CASE1, 7),
                    (PerturbationKind.CASE2B, 5), (PerturbationKind.CASE2B, 8)]:
        params = PerturbationStructure(kind, n, (1.0,) * (n - 1), 1.0, 1.0)
        assert eval_charpoly(params, float(n)) == pytest.approx(0.0, abs=1e-12)


def test_disjoint_4x4_consistent_parameters_polynomial():
    # with delta = gamma = 1 the quartic collapses to l^4 - 4 l^3
    params = PerturbationStructure(PerturbationKind.CASE2A, 4, (1.0,) * 3, 1.0, 1.0)
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
        PerturbationStructure(PerturbationKind.CASE1, 6, (1.0,) * 5, 1.0, 1.0)) == 6.0
    assert lambda_max_closed_form(
        PerturbationStructure(PerturbationKind.CASE2A, 4, (1.0,) * 3, 1.0, 1.0)) == 4.0


def bisection_root(params):
    """The bracket's sign change above n, bisected with np.polyval to adjacent floats.

    This is the bisection the root finder ran before Newton alone replaced it.
    """
    coeffs = spectral._bracket_coeffs(params.kind, params.n, params.delta, params.gamma)
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
    monkeypatch.setattr(spectral, "_bracket_coeffs", lambda *cell: coeffs)
    with pytest.raises(RootNotBracketedError):
        lambda_max_closed_form(PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4,
                                                     2.0, 3.0))


def reference_horner(coeffs, x):
    """p(x) and p'(x) by Horner's scheme on Python floats, coefficients highest degree first."""
    p = dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def reference_root(kind, n, d, g):
    """Newton from the Cauchy bound on one cell's Python floats, as before roots were stacked."""
    coeffs = spectral._bracket_coeffs(kind, n, d, g)
    n = float(n)
    f_n = reference_horner(coeffs, n)[0]
    if f_n == 0.0:
        return n
    root = 1.0 + max(abs(c) for c in coeffs)
    f_bound = reference_horner(coeffs, root)[0]
    if not f_n < 0.0 < f_bound:
        raise RootNotBracketedError(
            f"bracket failed: p({n}) = {f_n:.3e}, p({root}) = {f_bound:.3e}")
    while True:
        f, df = reference_horner(coeffs, root)
        below = root - f / df
        if not n <= below < root:
            return root
        root = below


def cell_root(kind, n, d, g):
    """The root of one cell by the cell loop, ``lambda_max_closed_form`` on a unit base."""
    return lambda_max_closed_form(PerturbationStructure(kind, n, (1.0,) * (n - 1), d, g))


def assert_roots_match_the_reference(cells):
    # the whole list in one stacked call, and each cell through the cell loop
    expected = [reference_root(*cell).hex() for cell in cells]
    roots = spectral.lambda_max_closed_forms(cells)
    assert roots.shape == (len(cells),)
    assert [r.hex() for r in roots.tolist()] == expected
    assert [cell_root(*cell).hex() for cell in cells] == expected


def random_cells(rng, per_kind):
    """``per_kind`` cells of each kind, factors log-uniform in [e^-18, e^18], orders up to 32."""
    cells = []
    for kind in DOUBLE_KINDS:
        form = CANONICAL_FORMS[kind]
        orders = rng.integers(form.min_order, (form.max_order or 32) + 1, per_kind)
        factors = np.exp(rng.uniform(-18.0, 18.0, (per_kind, 2)))
        cells += [(kind, int(n), d, g) for n, (d, g) in zip(orders, factors.tolist())]
    return cells


def test_stacked_roots_match_the_scalar_loop_on_the_sweep_grid():
    # every sweep-grid cell, the factors of ROOT_FACTORS and unit factors, as one list
    factors = ROOT_FACTORS + (1.0,)
    assert_roots_match_the_reference([(kind, n, d, g) for kind in DOUBLE_KINDS
                                      for n in SuiteGrid.orders(kind)
                                      for d, g in itertools.product(factors, repeat=2)])


def test_stacked_roots_match_the_scalar_loop_on_random_cells():
    # every kind, as one list
    assert_roots_match_the_reference(random_cells(np.random.default_rng(29), 2000))


@pytest.mark.parametrize("count", [1, 2, 95, 96, 97])
def test_lists_of_any_length_match_the_reference(count):
    # every list runs stacked, whatever its length, kinds mixed
    rng = np.random.default_rng(31)
    cells = random_cells(rng, count)
    assert_roots_match_the_reference([cells[k] for k in rng.permutation(len(cells))[:count]])


def test_stacked_root_names_the_first_unbracketed_cell(monkeypatch):
    cells = [(PerturbationKind.CASE1, n, 2.0, 3.0) for n in range(4, 11)]
    coeffs = spectral._bracket_coeffs
    bad = {7: (-1.0, 1.0), 9: (1.0, 0.0)}    # p(bound) < 0 at n = 7, p(n) > 0 at n = 9

    def injected(kind, n, d, g):
        if np.ndim(n) == 0:
            return bad.get(n) or coeffs(kind, n, d, g)
        # the list's one call on arrays: the bad cells zero-padded in front
        rows = [(0.0, 0.0) + bad[m] if m in bad else coeffs(kind, m, dm, gm)
                for m, dm, gm in zip(n.tolist(), d.tolist(), g.tolist())]
        return tuple(np.array(rows).T)

    monkeypatch.setattr(spectral, "_bracket_coeffs", injected)
    with pytest.raises(RootNotBracketedError) as scalar:
        reference_root(*cells[3])
    with pytest.raises(RootNotBracketedError) as cell:
        cell_root(*cells[3])
    with pytest.raises(RootNotBracketedError) as stacked:
        spectral.lambda_max_closed_forms(cells)
    assert str(stacked.value) == str(cell.value) == str(scalar.value) == \
        "bracket failed: p(7.0) = -6.000e+00, p(2.0) = -1.000e+00"
    assert_roots_match_the_reference(cells[:3] + cells[4:5])


@pytest.mark.parametrize("kind, n, d, g, message", [
    # p(b) overflows: the root was the Cauchy bound 3e70, the Perron root is 3.107e23
    (PerturbationKind.CASE2B, 5, 1e70, 0.5, "p(5.0) = -7.800e+71, p(3.0000000000000004e+70) = inf"),
    # p(b) overflows: the eigenvector ended in OverflowError from form_terms
    (PerturbationKind.CASE1, 4, 1e160, 0.5, "p(4.0) = -3.000e+160, p(3e+160) = inf"),
    # (gamma - 1)**2 overflows in the coefficients
    (PerturbationKind.CASE2A, 4, 2.0, 1e155, "p(4.0) = -inf, p(inf) = nan"),
])
def test_root_beyond_the_float_range_is_unbracketed(kind, n, d, g, message):
    st = PerturbationStructure(kind, n, (1.0,) * (n - 1), d, g)
    in_range = (kind, n, 2.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the cell loop, and the cell stacked alone and after an in-range cell
        for solve in (lambda_max_closed_form, closed_form_eigenvector,
                      lambda s: spectral.lambda_max_closed_forms([(kind, n, d, g)]),
                      lambda s: spectral.lambda_max_closed_forms([in_range, (kind, n, d, g)])):
            with pytest.raises(RootNotBracketedError) as exc:
                solve(st)
            assert str(exc.value) == f"bracket failed: {message}"
        assert_roots_match_the_reference([in_range])


def kind_groups(cells):
    """One (kind, n, delta, gamma) group of arrays per kind, and the cells in group order."""
    kinds = dict.fromkeys(cell[0] for cell in cells)
    ordered = [cell for kind in kinds for cell in cells if cell[0] == kind]
    groups = [(kind, *map(np.array, zip(*[cell[1:] for cell in ordered if cell[0] == kind])))
              for kind in kinds]
    return groups, ordered


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("cells", [
    pytest.param([(kind, n, d, g) for kind in DOUBLE_KINDS for n in SuiteGrid.orders(kind)
                  for d, g in itertools.product(SuiteGrid.ratio_values, repeat=2)],
                 id="sweep-grid"),
    pytest.param(random_cells(np.random.default_rng(37), 400), id="random"),
])
def test_array_route_keeps_the_bits_of_the_cell_route(cells):
    # one group of arrays per kind, as the lemma sweep passes its cells: each cell's
    # coefficients, root and form terms have the bits of the Python-float calls on it
    groups, ordered = kind_groups(cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, n, d, g in groups:
            columns = np.array(np.broadcast_arrays(*spectral._bracket_coeffs(kind, n, d, g)))
            assert [hexes(col) for col in columns.T] == \
                [hexes(spectral._bracket_coeffs(kind, *cell)) for cell in
                 zip(n.tolist(), d.tolist(), g.tolist())]
        roots = spectral.lambda_max_closed_forms(groups)
        assert hexes(roots) == [cell_root(*cell).hex() for cell in ordered]
        d, g = (np.array([cell[k] for cell in ordered]) for k in (2, 3))
        terms = np.array(spectral.form_terms(d, g, roots))
        assert terms.shape == (9, len(ordered))
        assert [hexes(col) for col in terms.T] == \
            [hexes(spectral.form_terms(cell[2], cell[3], lam))
             for cell, lam in zip(ordered, roots.tolist())]


@pytest.mark.parametrize("kind, n, d, g, message", [
    (PerturbationKind.CASE2B, 5, 1e70, 0.5, "p(5.0) = -7.800e+71, p(3.0000000000000004e+70) = inf"),
    (PerturbationKind.CASE1, 4, 1e160, 0.5, "p(4.0) = -3.000e+160, p(3e+160) = inf"),
    (PerturbationKind.CASE2A, 4, 2.0, 1e155, "p(4.0) = -inf, p(inf) = nan"),
    # a square past the float range times a zero square, or over an infinite g * d
    (PerturbationKind.CASE2A, 4, 1.0, 1e155, "p(4.0) = -inf, p(inf) = nan"),
    (PerturbationKind.CASE2B, 5, 1e200, 1e200, "p(5.0) = -inf, p(inf) = nan"),
])
def test_array_route_names_the_first_unbracketed_cell(kind, n, d, g, message):
    in_range = [(kind, n, r, 3.0) for r in SuiteGrid.ratio_values] * 12
    groups, _ = kind_groups(in_range + [(kind, n, d, g), (kind, n, 1e300, 1e300)] + in_range)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootNotBracketedError) as exc:
            spectral.lambda_max_closed_forms(groups)
        assert str(exc.value) == f"bracket failed: {message}"
        # the cell alone, stacked and through the cell loop
        for solve in (lambda: spectral.lambda_max_closed_forms([(kind, n, d, g)]),
                      lambda: cell_root(kind, n, d, g)):
            with pytest.raises(RootNotBracketedError) as one:
                solve()
            assert str(one.value) == str(exc.value)
        # a square past the float range is inf, on arrays as on Python floats
        assert spectral._power(np.array([1e155, 2.0, 1e155]), 2).tolist() == \
            [spectral._power(v, 2) for v in (1e155, 2.0, 1e155)] == [np.inf, 4.0, np.inf]


@pytest.mark.parametrize("d,g", [(np.nan, 2.0), (2.0, np.inf), (0.0, 2.0)])
def test_polynomial_needs_positive_finite_factors(d, g):
    with pytest.raises(InvalidCaseError, match="positive finite"):
        PerturbationStructure(PerturbationKind.CASE1, 5, (1.0,) * 4, d, g)


def test_root_is_polynomial_zero_and_matches_power_iteration():
    rng = np.random.default_rng(23)
    for kind, orders in ALL_CASES:
        for _ in range(20):
            n = int(rng.choice(orders))
            st = random_structure(rng, kind, n)
            lam = lambda_max_closed_form(st)
            # the root reads kind, n, delta and gamma only
            assert spectral.lambda_max_closed_forms([(kind, n, st.delta, st.gamma)])[0] == lam
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


def test_closed_forms_are_exact_at_a_factor_of_one():
    # a unit factor leaves the simple-perturbed or the consistent matrix, and the
    # double-perturbed forms still solve it: A w = lambda w entry by entry, lambda = n at (1, 1)
    rng = np.random.default_rng(41)
    for kind in DOUBLE_KINDS:
        for n in filter(CANONICAL_FORMS[kind].allows, range(4, 17)):
            for _ in range(4):
                base = tuple(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n - 1)))
                f = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
                for d, g in [(1.0, f), (f, 1.0), (1.0, 1.0)]:
                    st = PerturbationStructure(kind, n, base, d, g)
                    a = apply_perturbation(st).entries
                    result = closed_form_eigenvector(st)
                    lam, w = result.lambda_max, result.w
                    assert np.all(np.abs(a @ w - lam * w) <= 1e-13 * lam * w), (kind, n, d, g)
                    assert lam == n if d == g == 1.0 else lam > n, (kind, n, d, g)


CASE1_4 = PerturbationStructure(PerturbationKind.CASE1, 4, (1.0, 1.0, 1.0), 2.0, 3.0)


@pytest.mark.parametrize("call, message", [
    (lambda: closed_form_eigenvector(
        PerturbationStructure(PerturbationKind.SIMPLE, 4, (1.0, 1.0, 1.0), 2.0)),
     "no closed-form polynomial for kind 'simple'"),
    (lambda: closed_form_eigenvector(dataclasses.replace(CASE1_4, base=None)),
     "structure must carry a base vector: kind 'case1' needs 3 ratios"),
    (lambda: raw_variant_vector(CASE1_4, 4, 5.0), "variant must be in 0..3, got 4"),
    (lambda: raw_variant_vector(CASE1_4, -1, 5.0), "variant must be in 0..3, got -1"),
])
def test_closed_forms_reject_what_they_do_not_cover(call, message):
    with pytest.raises(InvalidCaseError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (InvalidCaseError, message)


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
                w = raw / raw.sum()
                resid = np.max(np.abs(a @ w - lam * w)) / np.max(lam * w)
                assert resid <= 1e-8
                vecs.append(w)
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


def test_closed_form_without_a_fitting_form_names_the_kind():
    st = PerturbationStructure(kind=PerturbationKind.CASE2A, n=4, base=(1e300, 1e300, 1e-300),
                               delta=1000.0, gamma=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PotentialRangeError,
                           match="^no case2a closed-form eigenvector fits in floats$"):
            closed_form_eigenvector(st)


def test_raw_variant_vector_evaluates_only_its_row_in_range():
    # at this root, variant 3 overflows in floats and variant 0 does not: asking for
    # variant 0 warns about no other row, and variant 3 is an error, not a row of inf
    st = PerturbationStructure(PerturbationKind.CASE1, 4, (1.0, 1.0, 1e306), 50.0, 0.02)
    lam = lambda_max_closed_form(st)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(raw_variant_vector(st, 0, lam)).all()
        with pytest.raises(PotentialRangeError) as exc:
            raw_variant_vector(st, 3, lam)
        assert str(exc.value) == "case1 closed-form eigenvector variant 3 does not fit in floats"


def _drawn_until(rng, holds):
    """The first log-uniform draw from [1/81, 81] for which ``holds`` is true."""
    while True:
        v = float(np.exp(rng.uniform(np.log(1 / 81), np.log(81))))
        if holds(v):
            return v


def test_stacked_variant_vectors_keep_the_one_base_bits():
    # every column of one stacked call has its own base, delta, gamma and lam, and gets
    # the bits of the one-dimensional call on Python floats; in the last two columns
    # each power rounds unlike the product it stands for, so a power taken on an
    # array of rows instead of a float shows
    rng = np.random.default_rng(23)
    square = _drawn_until(rng, lambda v: v**2 != v * v)
    shifted = _drawn_until(rng, lambda v: (v - 1) ** 2 != (v - 1) * (v - 1))
    for kind, orders in ALL_CASES:
        for n in orders:
            cells = np.exp(rng.uniform(np.log(1 / 81), np.log(81), (512, 3))).tolist()
            cells += [[square, square, square], [shifted, shifted, square]]
            xs = np.exp(rng.uniform(np.log(1 / 9), np.log(9), (n, len(cells))))
            xs[0] = 1.0
            terms = [spectral.form_terms(d, g, lam) for d, g, lam in cells]
            stacked = spectral.variant_vectors(kind, xs, np.transpose(terms), n)
            assert stacked.shape == (variant_count(kind), n, len(cells))
            for k, (d, g, lam) in enumerate(cells):
                one = spectral.variant_vectors(kind, xs[:, k].copy(), terms[k], n)
                assert stacked[..., k].tobytes() == one.tobytes()
                if k >= 512:
                    st = PerturbationStructure(kind, n, tuple(xs[1:, k]), d, g)
                    for v in range(variant_count(kind)):
                        assert raw_variant_vector(st, v, lam).tobytes() == one[v].tobytes()


def test_padded_variant_vectors_keep_each_orders_bits():
    # one stacked call over samples of every order of a kind, each column's ratios
    # padded to the top order by repeating its last one and its order passed
    # explicitly, gives each column the bits of its own unpadded call, and
    # repeats its last component in the padded rows
    rng = np.random.default_rng(31)
    for kind, orders in ALL_CASES:
        top = max(orders)
        n = np.repeat(orders, 8)
        cells = np.exp(rng.uniform(np.log(1 / 81), np.log(81), (len(n), 3))).tolist()
        xs = np.exp(rng.uniform(np.log(1 / 9), np.log(9), (top, len(n))))
        xs[0] = 1.0
        xs = xs[np.minimum(np.arange(top)[:, None], n - 1), np.arange(len(n))]
        terms = [spectral.form_terms(d, g, lam) for d, g, lam in cells]
        stacked = spectral.variant_vectors(kind, xs, np.transpose(terms), n)
        for k, order in enumerate(n.tolist()):
            one = spectral.variant_vectors(kind, xs[:order, k].copy(), terms[k], order)
            assert stacked[:, :order, k].tobytes() == one.tobytes()
            assert (stacked[:, order:, k] == one[:, -1:]).all()


VARIANT_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "variant_vectors_golden.json"


def _variant_vector_digests():
    """SHA-256 of the little-endian variant vectors of every (kind, n) up to order 9.

    Each (kind, n) evaluates 16 seeded cells, with delta, gamma and the base
    log-uniform in [e^-18, e^18] and lam their closed-form root, and the two
    power-rounding cells of the stacked-bits test, once as one stacked call
    and once base by base.
    """
    rng = np.random.default_rng(23)
    square = _drawn_until(rng, lambda v: v**2 != v * v)
    shifted = _drawn_until(rng, lambda v: (v - 1) ** 2 != (v - 1) * (v - 1))
    digests = {}
    for kind in DOUBLE_KINDS:
        for n in filter(CANONICAL_FORMS[kind].allows, range(4, 10)):
            factors = np.exp(rng.uniform(-18.0, 18.0, (16, 2))).tolist()
            roots = spectral.lambda_max_closed_forms([(kind, n, d, g) for d, g in factors])
            cells = [(d, g, lam) for (d, g), lam in zip(factors, roots.tolist())]
            cells += [(square, square, square), (shifted, shifted, square)]
            xs = np.exp(rng.uniform(-18.0, 18.0, (n, len(cells))))
            xs[0] = 1.0
            terms = [spectral.form_terms(*cell) for cell in cells]
            stacked = spectral.variant_vectors(kind, xs, np.transpose(terms), n)
            one_base = [spectral.variant_vectors(kind, xs[:, k].copy(), terms[k], n)
                        for k in range(len(cells))]
            digests[f"{kind.value}/{n}"] = {
                name: hashlib.sha256(np.ascontiguousarray(v, dtype="<f8").tobytes()).hexdigest()
                for name, v in (("stacked", stacked), ("one_base", np.array(one_base)))}
    return digests


def test_variant_vectors_keep_their_pinned_bits():
    # the forms, stacked and one base at a time, against digests of their bits
    assert _variant_vector_digests() == json.loads(VARIANT_GOLDEN_PATH.read_text())
