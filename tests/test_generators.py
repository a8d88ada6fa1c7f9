import numpy as np
import pytest

from pcmeff import (
    GeneratorSpec,
    IncompatibleOrderError,
    PerturbationKind,
    Pcm,
    classify_perturbation,
    example1_matrix,
    generate,
    is_consistent,
    parametric_inefficient,
)

from conftest import EXAMPLE1_ENTRIES

# hand-transcribed 6x6 instance of the parametric family with p=2, q=3,
# pinning the corner cells (2,6) = 1/q and (6,2) = q
APQ_6X6_P2_Q3 = np.array([
    [1,   2,   2,   2,   2,   2],
    [1/2, 1,   3,   1,   1,   1/3],
    [1/2, 1/3, 1,   3,   1,   1],
    [1/2, 1,   1/3, 1,   3,   1],
    [1/2, 1,   1,   1/3, 1,   3],
    [1/2, 3,   1,   1,   1/3, 1],
])


def test_example1_matches_hand_transcription():
    assert np.array_equal(example1_matrix().entries, np.array(EXAMPLE1_ENTRIES))


def test_parametric_family_golden_6x6():
    m = parametric_inefficient(6, 2.0, 3.0)
    assert np.allclose(m.entries, APQ_6X6_P2_Q3, rtol=0, atol=1e-15)


def test_parametric_family_spec_cells():
    m = parametric_inefficient(5, 2.0, 3.0)
    assert list(m.entries[0]) == [1, 2, 2, 2, 2]
    assert m[1, 2] == 3.0
    assert m[1, 4] == pytest.approx(1 / 3)
    assert m[4, 3] == pytest.approx(1 / 3)


def test_parametric_family_unit_q_is_consistent():
    assert is_consistent(parametric_inefficient(7, 2.5, 1.0))


def test_parametric_family_classifies_as_unstructured():
    # differs from every consistent matrix in too many cells for a 2-edit
    # repair, at every order including 4 (computed, then frozen here)
    for n in (4, 5, 6, 7):
        c = classify_perturbation(parametric_inefficient(n, 2.0, 3.0))
        assert c.kind == PerturbationKind.OTHER


def test_unit_base_generates_all_ones():
    m, structure = generate(GeneratorSpec(family="consistent", n=4, base=(1.0, 1.0, 1.0)))
    assert np.array_equal(m.entries, np.ones((4, 4)))
    assert structure.kind == PerturbationKind.CONSISTENT


def test_generation_is_deterministic_per_seed():
    a, sa = generate(GeneratorSpec(family="case2b", n=6, seed=7))
    b, sb = generate(GeneratorSpec(family="case2b", n=6, seed=7))
    c, _ = generate(GeneratorSpec(family="case2b", n=6, seed=8))
    assert np.array_equal(a.entries, b.entries) and sa == sb
    assert not np.array_equal(a.entries, c.entries)


@pytest.mark.parametrize("family,n", [
    ("consistent", 3), ("consistent", 8),
    ("simple", 4), ("simple", 7),
    ("case1", 4), ("case1", 9),
    ("case2a", 4),
    ("case2b", 5), ("case2b", 9),
    ("apq", 4), ("apq", 8),
    ("example1", None),
])
def test_generated_matrices_validate(family, n):
    for seed in range(5):
        m, _ = generate(GeneratorSpec(family=family, n=n, seed=seed))
        assert isinstance(m, Pcm)        # construction re-runs full validation


@pytest.mark.parametrize("family", ["simple", "case1", "case2a", "case2b"])
def test_generated_structure_matches_classification(family):
    for seed in range(8):
        n = {"case2a": 4}.get(family, 6)
        m, truth = generate(GeneratorSpec(family=family, n=n, seed=seed))
        c = classify_perturbation(m)
        assert c.kind == truth.kind
        assert c.delta == pytest.approx(truth.delta, rel=1e-9)
        if truth.gamma is not None:
            assert c.gamma == pytest.approx(truth.gamma, rel=1e-9)
        assert c.base == pytest.approx(truth.base, rel=1e-9)


def test_explicit_parameters_are_respected():
    m, truth = generate(GeneratorSpec(family="case1", n=5, delta=3.0, gamma=0.25,
                                      base=(2.0, 1.0, 0.5, 4.0)[:4]))
    assert truth.delta == 3.0 and truth.gamma == 0.25
    assert m[0, 1] == pytest.approx(3.0 * 2.0)
    assert m[0, 2] == pytest.approx(0.25 * 1.0)


@pytest.mark.parametrize("family,n", [
    ("case2a", 5), ("case2a", 6),
    ("case2b", 4),
    ("case1", 3),
    ("apq", 3),
    ("simple", 2),
    ("consistent", None),
])
def test_incompatible_orders_rejected(family, n):
    with pytest.raises(IncompatibleOrderError):
        generate(GeneratorSpec(family=family, n=n))


@pytest.mark.parametrize("family, n, factors", [
    ("simple", 5, {"delta": 1.0}), ("case1", 5, {"delta": 1.0, "gamma": 2.0}),
    ("case1", 6, {"gamma": 1.0}), ("case2a", 4, {"delta": 3.0, "gamma": 1.0}),
    ("case2b", 5, {"delta": 1.0}),
])
def test_unit_factor_of_a_cell_rejected(family, n, factors):
    # a unit factor leaves its cell unperturbed, so the matrix is not of the family's kind
    name = next(name for name, f in factors.items() if f == 1.0)
    with pytest.raises(IncompatibleOrderError, match=f"^{name} must differ from 1 for family"):
        generate(GeneratorSpec(family=family, n=n, **factors))


def test_unit_factor_outside_the_form_is_not_read():
    m, truth = generate(GeneratorSpec(family="simple", n=5, delta=2.0, gamma=1.0, seed=3))
    assert classify_perturbation(m).kind == truth.kind == PerturbationKind.SIMPLE


def test_unknown_family_rejected():
    with pytest.raises(IncompatibleOrderError):
        generate(GeneratorSpec(family="triple", n=5))
