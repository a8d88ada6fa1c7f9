import hashlib
import math
import re

import numpy as np
import pytest

from pcmeff import (
    GeneratorSpec,
    InvalidCaseError,
    PerturbationKind,
    Pcm,
    classify_perturbation,
    example1_matrix,
    generate,
    parametric_inefficient,
)
from pcmeff.generators import FAMILIES

from conftest import EXAMPLE1_ENTRIES, is_consistent

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
    assert m.entries[1, 2] == 3.0
    assert m.entries[1, 4] == pytest.approx(1 / 3)
    assert m.entries[4, 3] == pytest.approx(1 / 3)


def test_parametric_family_unit_q_is_consistent():
    assert is_consistent(parametric_inefficient(7, 2.5, 1.0))


def test_parametric_family_classifies_as_unstructured():
    # differs from every consistent matrix in too many cells for a 2-edit
    # repair, at every order including 4 (computed, then frozen here)
    for n in (4, 5, 6, 7):
        c = classify_perturbation(parametric_inefficient(n, 2.0, 3.0))
        assert c.kind == PerturbationKind.OTHER


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
    m, truth = generate(GeneratorSpec(family="case1", n=5, delta=3.0, gamma=0.25))
    assert truth.delta == 3.0 and truth.gamma == 0.25
    assert m.entries[0, 1] == 3.0 * truth.base[0]
    assert m.entries[0, 2] == 0.25 * truth.base[1]


# SHA-256 of the entry bytes each family generates at seeds 0-3, at two orders where
# it has two (case2a exists only at n = 4; example1 is one matrix, with or without n)
GENERATED_DIGESTS = {
    ("consistent", 3): "8d663364cf9dc5e72360292b4a15679443b1fdf3729b17e7ce09c7f57557ceb7",
    ("consistent", 8): "f5207eab0840ee895821d8ce2819e3ac5dad118566f62fb8910fea0220a55b39",
    ("simple", 3): "6f4baea7f703994cbecbb5541102c8e4204534063aa71a5d645451c2b5b00628",
    ("simple", 7): "51ed8d99f13fe08e913ec20e4ef4d3766dcfc87f80df5b55d714fb796093c3c3",
    ("case1", 4): "7a7b6adbdaab92853382ceb71bb430664f228bea28fc4dcc4d16dfb3381f8f2b",
    ("case1", 9): "488b837c7f44c3447dc35f9577514d887368816b32d18adcc6ee19ab096928b5",
    ("case2a", 4): "606a509c414b673b854db74b1f6614b91c8175d041aad6cd29f6b26b4dfd9e57",
    ("case2b", 5): "b1626c4383691529d2a898f87293fcdee066deb29b324f981c9d46b52ad0fbda",
    ("case2b", 9): "98bcaa6dcde2b013e5faaad35cd4b6a1f297758630dea8c7305e8d0e3ce84dbc",
    ("example1", None): "2f3d9e6ec01b66318ab5783a9c5ac9e53ddb7267082b315a4b68774fecfb4a9f",
    ("example1", 4): "2f3d9e6ec01b66318ab5783a9c5ac9e53ddb7267082b315a4b68774fecfb4a9f",
    ("apq", 4): "e7958a5a833036830cf34a55b2f34d19e11e984ec29fe3a1a29c8717c8c54625",
    ("apq", 8): "942a1f1101f962ae41d18a82ea3136acfdd60da95c4bbde356e8389b720eca01",
}


@pytest.mark.parametrize("family,n", list(GENERATED_DIGESTS))
def test_generated_matrices_keep_their_bits(family, n):
    digest = hashlib.sha256()
    for seed in range(4):
        m, _ = generate(GeneratorSpec(family, n=n, seed=seed))
        digest.update(np.ascontiguousarray(m.entries, dtype="<f8").tobytes())
    assert digest.hexdigest() == GENERATED_DIGESTS[family, n]


ORDER_REJECTIONS = {
    ("case2a", 5): "kind 'case2a' requires n = 4, got 5",
    ("case2a", 6): "kind 'case2a' requires n = 4, got 6",
    ("case2b", 4): "kind 'case2b' requires n >= 5, got 4",
    ("case1", 3): "kind 'case1' requires n >= 4, got 3",
    ("apq", 3): "parametric family requires n >= 4, got 3",
    ("simple", 2): "kind 'simple' requires n >= 3, got 2",
    ("consistent", None): "family 'consistent' requires an order n",
}


@pytest.mark.parametrize("family,n", list(ORDER_REJECTIONS))
def test_incompatible_orders_rejected(family, n):
    with pytest.raises(InvalidCaseError, match=f"^{re.escape(ORDER_REJECTIONS[family, n])}$"):
        generate(GeneratorSpec(family=family, n=n))


@pytest.mark.parametrize("family, n, factors", [
    ("simple", 5, {"delta": 1.0}), ("case1", 5, {"delta": 1.0, "gamma": 2.0}),
    ("case1", 6, {"gamma": 1.0}), ("case2a", 4, {"delta": 3.0, "gamma": 1.0}),
    ("case2b", 5, {"delta": 1.0}), ("apq", 5, {"p": 2.0, "q": 1.0}),
])
def test_unit_factor_of_a_cell_rejected(family, n, factors):
    # a factor within the degeneracy gap of 1 leaves its cell as good as unperturbed,
    # so the matrix is not of the family's kind
    name = next(name for name, f in factors.items() if f == 1.0)
    for unit in (1.0, 1 + 1e-13, 0.9995):
        with pytest.raises(InvalidCaseError, match=f"^{name} must differ from 1 for family"):
            generate(GeneratorSpec(family=family, n=n, **{**factors, name: unit}))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["p", "q"])
def test_parametric_family_rejects_a_non_positive_or_non_finite_factor(name, bad):
    factors = {"p": 2.0, "q": 3.0, name: bad}
    with pytest.raises(InvalidCaseError, match="^p and q must be positive finite reals$"):
        parametric_inefficient(5, **factors)
    with pytest.raises(InvalidCaseError, match="^p and q must be positive finite reals$"):
        generate(GeneratorSpec(family="apq", n=5, **factors))


def test_unit_factor_outside_the_form_is_not_read():
    m, truth = generate(GeneratorSpec(family="simple", n=5, delta=2.0, gamma=1.0, seed=3))
    assert classify_perturbation(m).kind == truth.kind == PerturbationKind.SIMPLE


def test_unknown_family_rejected():
    expected = f"unknown family 'triple'; expected one of {FAMILIES}"
    with pytest.raises(InvalidCaseError, match=f"^{re.escape(expected)}$"):
        generate(GeneratorSpec(family="triple", n=5))
