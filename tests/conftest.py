import numpy as np
import pytest
from hypothesis import strategies as st

from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    generate_random_tree,
)


@pytest.fixture
def path3() -> SignedGraph:
    """Three spins in a row, both couplings 0.4."""
    return SignedGraph(p=3, edges=((0, 1), (1, 2)), couplings={(0, 1): 0.4, (1, 2): 0.4})


@pytest.fixture
def single_edge() -> SignedGraph:
    return SignedGraph(p=2, edges=((0, 1),), couplings={(0, 1): 0.4})


@pytest.fixture
def regular_tree() -> SignedGraph:
    """Degree-3 regular tree, mixed +/-0.4 couplings."""
    return assign_couplings(generate_bethe_tree(22, 3), CouplingScheme.mixed(0.4), seed=3)


def random_paramagnetic_tree(rng: np.random.Generator, p_max: int = 12) -> SignedGraph:
    """Random tree with couplings drawn from [-0.6, 0.6] away from zero."""
    p = int(rng.integers(6, p_max + 1))
    tree = generate_random_tree(p, d_max=4, seed=int(rng.integers(2**31)))
    couplings = {}
    for e in tree.edges:
        mag = rng.uniform(0.05, 0.6)
        couplings[e] = float(mag if rng.random() < 0.5 else -mag)
    return SignedGraph(p=tree.p, edges=tree.edges, couplings=couplings)


def random_forest(rng: np.random.Generator, p_min: int = 1, p_max: int = 40) -> SignedGraph:
    """Random labelled forest: 1-6 random trees over shuffled labels, about
    one vertex in seven left isolated, and couplings of magnitude in
    [0.05, 1) with random signs."""
    p = int(rng.integers(p_min, p_max + 1))
    groups = rng.integers(int(rng.integers(1, 7)), size=p)
    groups[rng.random(p) < 0.15] = -1
    labels = rng.permutation(p)
    couplings = {}
    for c in range(groups.max(initial=-1) + 1):
        members = labels[groups == c]
        for i in range(1, members.size):
            u, v = sorted((int(members[rng.integers(i)]), int(members[i])))
            mag = rng.uniform(0.05, 1.0)
            couplings[(u, v)] = float(mag if rng.random() < 0.5 else -mag)
    return SignedGraph(p=p, edges=tuple(sorted(couplings)), couplings=couplings)


def value_kinds(valid, below):
    """The kinds of value an outside caller may hand a constructor: a valid
    one, a bool, a numeric string, a fraction, an integer below range, None
    and a nested list."""
    return st.sampled_from([valid, True, False, "2", 2.5, below, None, [[valid]]])
