"""Relations that hold exactly in real arithmetic, checked by calling the library twice.

Each needs no second implementation: the geometric-mean vector is efficient
for every PCM, transposing, relabeling or diagonally rescaling a matrix moves
its classification in a known way, and relabeling any PCM permutes its
eigenvector and its efficiency certificate.
"""

import numpy as np
import pytest

from pcmeff import (
    GeneratorSpec,
    Pcm,
    PerturbationKind,
    build_digraph,
    classify_perturbation,
    generate,
    is_efficient,
    power_iteration,
)
from pcmeff.pcm import CANONICAL_FORMS

from conftest import consistent_pcm

SAATY_VALUES = np.array([*range(1, 10), *(1.0 / k for k in range(2, 10))])
PERTURBED_KINDS = [kind for kind, form in CANONICAL_FORMS.items() if form.cells]


def pcm_from_upper(n: int, values) -> Pcm:
    upper = np.triu_indices(n, 1)
    a = np.ones((n, n))
    a[upper] = values
    a.T[upper] = 1.0 / a[upper]
    return Pcm(a)


def noisy_consistent(rng, n: int) -> Pcm:
    """A consistent PCM on a log-uniform base, each upper cell times e^N(0, sigma).

    log sigma is uniform over log 0.05 to log 2.
    """
    x = np.exp(rng.uniform(np.log(1 / 9), np.log(9), n))
    sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
    i, j = np.triu_indices(n, 1)
    return pcm_from_upper(n, x[j] / x[i] * np.exp(rng.normal(0.0, sigma, len(i))))


def test_geometric_mean_vector_is_efficient():
    # Blanquero, Carrizosa & Conde (2006): the row geometric means are efficient
    # for every PCM, whatever its eigenvector does
    rng = np.random.default_rng(2006)
    for k in range(1200):
        n = int(rng.integers(3, 13))
        style = k % 3
        if style == 0:
            m = noisy_consistent(rng, n)
        elif style == 1:    # Saaty's integer scale and its reciprocals
            m = pcm_from_upper(n, rng.choice(SAATY_VALUES, n * (n - 1) // 2))
        else:    # exactly consistent: every pair is a tie
            m = consistent_pcm(np.exp(rng.uniform(np.log(1 / 9), np.log(9), n - 1)))
        verdict = is_efficient(m, np.exp(np.log(m.entries).mean(axis=1)))
        assert verdict.efficient, (k, m.entries.tolist())
        if style == 2:
            assert len(verdict.digraph.arcs) == n * (n - 1)


def canonical_draws(kind: PerturbationKind, count: int):
    """``count`` generated canonical matrices of ``kind`` at orders up to 10, with their recipes."""
    form = CANONICAL_FORMS[kind]
    orders = range(form.min_order, (form.max_order or 10) + 1)
    rng = np.random.default_rng(PERTURBED_KINDS.index(kind))
    for seed in range(count):
        yield generate(GeneratorSpec(kind.value, n=int(rng.choice(orders)), seed=seed))


@pytest.mark.parametrize("kind", PERTURBED_KINDS, ids=lambda k: k.value)
def test_transpose_keeps_the_kind_and_inverts_the_factors(kind):
    # A^T is the entrywise reciprocal: the same cells, perturbed by 1/delta and 1/gamma
    cells = CANONICAL_FORMS[kind].cells
    for m, truth in canonical_draws(kind, 250):
        c = classify_perturbation(Pcm(m.entries.T))
        assert c.kind == kind, truth
        assert cells in (c.positions, *c.alternatives), truth
        inverted = [1.0 / f for f in (truth.delta, truth.gamma)[:len(cells)]]
        assert [c.delta, c.gamma][:len(cells)] == pytest.approx(inverted, rel=1e-9), truth


@pytest.mark.parametrize("kind", PERTURBED_KINDS, ids=lambda k: k.value)
def test_relabeling_keeps_the_kind_and_moves_the_cells(kind):
    rng = np.random.default_rng(10 + PERTURBED_KINDS.index(kind))
    for m, truth in canonical_draws(kind, 250):
        perm = rng.permutation(m.n)
        c = classify_perturbation(Pcm(m.entries[np.ix_(perm, perm)]))
        where = np.argsort(perm)    # canonical alternative v is now where[v]
        moved = tuple(sorted(tuple(sorted((int(where[i]), int(where[j]))))
                             for i, j in CANONICAL_FORMS[kind].cells))
        assert c.kind == kind, truth
        assert moved in (c.positions, *c.alternatives), (truth, perm)


def test_relabeling_permutes_w_and_the_certificate():
    # P A P^T, b_ij = a_{perm[i], perm[j]}, has the eigenvector w[perm] and A's digraph
    # relabeled: the same verdict, and the same components in the same chain order
    rng = np.random.default_rng(15)
    inefficient = 0
    for k in range(1000):
        if k % 2:
            m, _ = generate(GeneratorSpec("apq", n=int(rng.integers(4, 13)), seed=k))
        else:
            m = noisy_consistent(rng, int(rng.integers(3, 13)))
        perm = rng.permutation(m.n)
        b = Pcm(m.entries[np.ix_(perm, perm)])
        w_a, w_b = power_iteration(m).w, power_iteration(b).w
        assert np.all(np.abs(w_b - w_a[perm]) <= 1e-12 * w_a[perm]), (k, perm)
        va, vb = is_efficient(m, w_a), is_efficient(b, w_b)

        def relabeled(nodes):
            return tuple(sorted(int(perm[v]) for v in nodes))

        assert vb.efficient == va.efficient, (k, perm)
        assert tuple(map(relabeled, vb.sccs)) == va.sccs, (k, perm)
        assert (vb.sink and relabeled(vb.sink)) == va.sink, (k, perm)
        inefficient += not va.efficient
    assert inefficient >= 300    # so the sink and the chain order are exercised


def test_diagonal_similarity_scales_the_classification_and_keeps_the_digraph():
    # b_ij = a_ij d_j / d_i has potentials t_v d_v / d_0: the same cells and factors,
    # base ratios scaled by d, and for the weights w / d the same arc on every pair
    rng = np.random.default_rng(1513)
    families = [kind.value for kind in CANONICAL_FORMS]
    perturbed = 0
    for k in range(1000):
        if k % 4 == 3:
            m = noisy_consistent(rng, int(rng.integers(3, 13)))
        else:
            family = families[k % len(families)]
            form = CANONICAL_FORMS[PerturbationKind(family)]
            n = int(rng.integers(max(3, form.min_order), (form.max_order or 12) + 1))
            m, _ = generate(GeneratorSpec(family, n=n, seed=k))
        d = 10.0 ** rng.uniform(-150.0, 150.0, m.n)
        b = Pcm(m.entries * d[None, :] / d[:, None])
        ca, cb = classify_perturbation(m), classify_perturbation(b)
        assert (cb.kind, cb.positions, cb.alternatives, cb.permutation) == \
            (ca.kind, ca.positions, ca.alternatives, ca.permutation), k
        for fa, fb in [(ca.delta, cb.delta), (ca.gamma, cb.gamma)]:
            assert (fa is None) == (fb is None), k
            assert fa is None or abs(fb - fa) <= 1e-12 * fa, (k, fa, fb)
        if ca.base is not None:
            perm = list(ca.permutation or range(m.n))
            scaled = np.array(ca.base) * d[perm[1:]] / d[perm[0]]
            assert np.all(np.abs(np.array(cb.base) - scaled) <= 1e-12 * scaled), k
        perturbed += ca.delta is not None
        w = power_iteration(m).w
        assert np.array_equal(build_digraph(b, w / d).adjacency,
                              build_digraph(m, w).adjacency), k
    assert perturbed >= 500
