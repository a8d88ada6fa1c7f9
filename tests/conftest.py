import numpy as np
import pytest

from pcmeff import EfficiencyDigraph, HypothesisViolatedError, Pcm, PerturbationKind, spectral
from pcmeff.pcm import DEFAULT_CONSISTENCY_TOL
from pcmeff.verification import _CYCLES

pytest_plugins = ["pytester"]

# 4x4 matrix whose principal eigenvector is inefficient; its reference
# eigenvector (8 digits, truncated) and the dominating second coordinate
EXAMPLE1_ENTRIES = [
    [1.0, 0.5, 4.0, 2.0],
    [2.0, 1.0, 5.0, 7.0],
    [0.25, 0.2, 1.0, 2.0],
    [0.5, 1.0 / 7.0, 0.5, 1.0],
]
EXAMPLE1_W = np.array([0.27471631, 0.53204485, 0.10869376, 0.08454506])
EXAMPLE1_IMPROVED_W2 = 0.54346883

# matching ratio table w_i / w_j, truncated at 4 decimals
EXAMPLE1_RATIOS = np.array([
    [1.0, 0.5163, 2.5274, 3.2493],
    [1.9367, 1.0, 4.8948, 6.2930],
    [0.3956, 0.2042, 1.0, 1.2856],
    [0.3077, 0.1589, 0.7778, 1.0],
])

# arcs of the corresponding dominance digraph (1-based, as drawn)
EXAMPLE1_ARCS_1BASED = {(1, 2), (1, 4), (4, 2), (3, 1), (3, 2), (4, 3)}


@pytest.fixture
def example1() -> Pcm:
    return Pcm(EXAMPLE1_ENTRIES)


def digraph_from_arcs(n: int, arcs) -> EfficiencyDigraph:
    """The digraph on nodes 0..n-1 with the given (i, j) arcs, tie_tol 0."""
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in arcs:
        adjacency[i, j] = True
    return EfficiencyDigraph(adjacency, tie_tol=0.0)


# ----------------------------------------------------- oracles shared by tests

def is_consistent(m: Pcm, tol: float = DEFAULT_CONSISTENCY_TOL) -> bool:
    """Check cardinal transitivity a_ik * a_kj = a_ij for all triples."""
    a = m.entries
    prod = a[:, :, None] * a[None, :, :]    # prod[i, k, j] = a_ik * a_kj
    return bool(np.all(np.abs(prod - a[:, None, :]) <= tol * a[:, None, :]))


def eval_charpoly(structure, lam: float) -> float:
    """The closed-form characteristic polynomial of a double-perturbed structure at ``lam``.

    Matches det(A - lam I) of the corresponding canonical matrix for every
    base vector (the similarity scaling by the base drops out), so the
    structure's base is not read.
    """
    coeffs = spectral._bracket_coeffs(structure.kind, structure.n, structure.delta,
                                      structure.gamma)
    sign = -1.0 if structure.n % 2 else 1.0
    return sign * lam ** (structure.n - len(coeffs) + 1) * float(np.polyval(coeffs, lam))


def charpoly_oracle(m: Pcm, lam: float) -> float:
    """det(A - lam I), computed directly by LU factorization.

    Deliberately ignorant of the closed forms; serves as the independent
    reference they are checked against.
    """
    return float(np.linalg.det(m.entries - lam * np.eye(m.n)))


def region_cycle(kind: PerturbationKind, delta: float, gamma: float) -> tuple:
    """The certifying cycle for the sample's sign region (1-based nodes)."""
    for predicate, cycle in _CYCLES[kind]:
        if predicate(delta, gamma):
            return cycle
    raise HypothesisViolatedError(
        f"no sign region matches delta={delta}, gamma={gamma} for {kind.value}")
