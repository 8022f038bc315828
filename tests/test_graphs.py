import json
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglasso.graphs import (
    CouplingScheme,
    SignedGraph,
    assign_couplings,
    generate_bethe_tree,
    generate_graph,
    generate_grid_periodic,
    generate_random_regular,
    generate_random_tree,
    generate_star,
    signed_neighborhood_sets,
    support_vertices,
)
from conftest import value_kinds
from oracles import random_regular_reference


def recount_degrees(graph: SignedGraph) -> np.ndarray:
    deg = np.zeros(graph.p, dtype=int)
    for r, t in graph.edges:
        deg[r] += 1
        deg[t] += 1
    return deg


def has_cycle(graph: SignedGraph) -> bool:
    parent = list(range(graph.p))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for r, t in graph.edges:
        ra, rb = find(r), find(t)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


def _hashable(value):
    return tuple(_hashable(v) for v in value) if isinstance(value, list) else value


def _outcome(make):
    """The graph make() builds, or ValueError if it raises one; any other
    exception fails the test."""
    try:
        return make()
    except ValueError:
        return ValueError


class TestRandomRegular:
    def test_small_instance_is_regular(self):
        g = generate_random_regular(6, 3, seed=1)
        assert (recount_degrees(g) == 3).all()

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate_random_regular(5, 3, seed=0)

    def test_edge_count(self):
        g = generate_random_regular(64, 3, seed=7)
        assert len(g.edges) == 96

    def test_regularity_audit_many_seeds(self):
        for seed in range(10):
            g = generate_random_regular(20, 3, seed=seed)
            assert (recount_degrees(g) == 3).all()
            assert len({e for e in g.edges}) == len(g.edges)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            generate_random_regular(10, 2, seed=0)
        with pytest.raises(ValueError):
            generate_random_regular(4, 4, seed=0)
        # refused before the first draw, not after REGULAR_RETRY_CAP of them;
        # the reach is that of the degree drawn, min(d, p-1-d), and shrinks
        # with p: (16, 8) draws a 7-regular pairing, which seed 1 could not
        # make simple within the cap
        for p, d in [(32, 12), (30, 20), (16, 8)]:
            with pytest.raises(ValueError, match="pairing model's reach"):
                generate_random_regular(p, d, seed=0)
        assert (recount_degrees(generate_random_regular(128, 7, seed=0)) == 7).all()

    @pytest.mark.parametrize("p", [32, 64, 128])
    def test_every_degree_to_six_admitted(self, p):
        for d in range(3, 7):
            if p * d % 2 == 0:
                assert (recount_degrees(generate_random_regular(p, d, seed=0)) == d).all()

    def test_complete_graph(self):
        """K6 is the one 5-regular graph on 6 vertices: the complement of
        the empty 0-regular pairing, drawn once."""
        g = generate_random_regular(6, 5, seed=0)
        assert len(g.edges) == 15 and (recount_degrees(g) == 5).all()

    @pytest.mark.parametrize("p, d", [(8, 7), (10, 7), (8, 6), (9, 6), (12, 9), (12, 8)])
    def test_dense_degrees_by_complement(self, p, d):
        """d > (p-1)/2 draws a (p-1-d)-regular graph and complements it, so
        K8 and (10, 7), which exhausted the 10^6 pairings drawn directly,
        build."""
        for seed in range(3):
            g = generate_random_regular(p, d, seed=seed)
            assert len(g.edges) == p * d // 2 and (recount_degrees(g) == d).all()

    def test_uniform_over_labelled_cubic_graphs_on_six_vertices(self):
        """There are 70 labelled cubic graphs on 6 vertices: the 10 labellings
        of K_{3,3} and the 60 of the triangular prism. 7,000 draws with
        seeds 0..6999 must hit all 70 with counts a chi-square test accepts.
        (6, 3) takes the complement path: the pairing is 2-regular."""
        counts = Counter(generate_random_regular(6, 3, seed=seed).edges for seed in range(7000))
        assert len(counts) == 70
        assert all((recount_degrees(SignedGraph(p=6, edges=e)) == 3).all() for e in counts)
        assert scipy.stats.chisquare(list(counts.values())).pvalue > 0.01

    def test_degree_six_at_p128(self):
        for seed in range(20):
            g = generate_random_regular(128, 6, seed=seed)
            assert (recount_degrees(g) == 6).all() and len(g.edges) == 384

    @pytest.mark.parametrize("p, d", [
        (6, 3), (6, 5), (8, 7), (9, 6), (10, 7), (12, 8), (12, 9), (16, 4), (20, 3),
        (20, 15), (32, 3), (32, 5), (32, 6), (32, 26), (64, 4),
    ])
    def test_same_edges_as_pair_by_pair_loop(self, p, d):
        """The whole-pairing test accepts the same shuffles as the loop that
        checks one pair at a time, so every seed gives the same edges, dense
        complements included."""
        for seed in range(3):
            assert generate_random_regular(p, d, seed).edges == random_regular_reference(p, d, seed)

    def test_deterministic(self):
        a = generate_random_regular(16, 3, seed=5)
        b = generate_random_regular(16, 3, seed=5)
        assert a.to_json() == b.to_json()


class TestGridPeriodic:
    def test_4x4(self):
        g = generate_grid_periodic(4, 4)
        assert g.p == 16
        assert len(g.edges) == 32
        assert (recount_degrees(g) == 4).all()

    def test_3x3(self):
        g = generate_grid_periodic(3, 3)
        assert g.p == 9
        assert len(g.edges) == 18

    def test_short_dimension_rejected(self):
        with pytest.raises(ValueError):
            generate_grid_periodic(2, 4)

    @pytest.mark.parametrize("rows, cols, name, value", [
        (3.0, 3, "rows", 3.0), (True, 3, "rows", True), (3, "4", "cols", "4"),
        (3, np.int64(2), "cols", np.int64(2)),
    ])
    def test_dimensions_follow_the_integer_rule(self, rows, cols, name, value):
        """A float, a bool or a string is refused by the integer rule, not
        by range() or as a short side, and a short side by the same rule."""
        message = f"{name} must be an integer >= 3, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_grid_periodic(rows, cols)

    def test_rectangular(self):
        g = generate_grid_periodic(3, 5)
        assert len(g.edges) == 2 * 15
        assert (recount_degrees(g) == 4).all()


class TestStar:
    def test_single_edge_hub(self):
        g = generate_star(10, 1)
        assert g.edges == ((0, 1),)

    def test_log_degree_hub(self):
        d = math.ceil(math.log(16))
        g = generate_star(16, d)
        assert recount_degrees(g)[0] == 3

    def test_oversized_degree_rejected(self):
        with pytest.raises(ValueError):
            generate_star(4, 5)

    def test_isolated_vertices_kept(self):
        g = generate_star(10, 3)
        deg = recount_degrees(g)
        assert g.p == 10
        assert (deg[4:] == 0).all()
        assert (deg[1:4] == 1).all()


class TestRandomTree:
    def test_tree_shape(self):
        g = generate_random_tree(8, 3, seed=2)
        assert len(g.edges) == 7
        assert not has_cycle(g)
        assert recount_degrees(g).max() <= 3

    def test_two_vertices(self):
        g = generate_random_tree(2, 2, seed=0)
        assert g.edges == ((0, 1),)

    def test_deterministic(self):
        a = generate_random_tree(8, 3, seed=2)
        b = generate_random_tree(8, 3, seed=2)
        assert a.to_json() == b.to_json()

    def test_degree_cap_respected(self):
        for seed in range(8):
            g = generate_random_tree(30, 3, seed=seed)
            assert recount_degrees(g).max() <= 3
            assert len(g.edges) == 29
            assert not has_cycle(g)


class TestBetheTree:
    def test_interior_degree(self):
        g = generate_bethe_tree(22, 3)
        deg = recount_degrees(g)
        interior = deg[deg > 1]
        # all internal vertices saturate at degree 3 except possibly the
        # last vertex the builder was filling
        assert (interior == 3).sum() >= interior.size - 1
        assert not has_cycle(g)
        assert len(g.edges) == 21


class TestHandshake:
    @pytest.mark.parametrize(
        "graph",
        [
            generate_random_regular(12, 3, seed=3),
            generate_grid_periodic(4, 5),
            generate_star(9, 4),
            generate_random_tree(11, 3, seed=1),
            generate_bethe_tree(15, 3),
        ],
    )
    def test_degree_sum_is_twice_edges(self, graph):
        assert recount_degrees(graph).sum() == 2 * len(graph.edges)
        assert graph.degrees.tolist() == recount_degrees(graph).tolist()


class TestFamilies:
    def test_grid_needs_square_p(self):
        assert generate_graph("grid", 9, 3, 0) == generate_grid_periodic(3, 3)
        with pytest.raises(ValueError, match="square p, got 10"):
            generate_graph("grid", 10, 3, 0)

    def test_dispatch(self):
        assert generate_graph("rr", 12, 3, 4) == generate_random_regular(12, 3, 4)
        assert generate_graph("tree", 9, 3, 2) == generate_random_tree(9, 3, 2)
        assert generate_graph("star", 6, 2, 0) == generate_star(6, 2)
        assert generate_graph("bethe_tree", 10, 3, 0) == generate_bethe_tree(10, 3)
        with pytest.raises(ValueError, match="unknown graph family"):
            generate_graph("hexagon", 9, 3, 0)


_GENERATORS = {
    "rr": (10, lambda p, d: generate_random_regular(p, d, 0)),
    "tree": (10, lambda p, d: generate_random_tree(p, d, 0)),
    "star": (6, generate_star),
    "bethe_tree": (10, generate_bethe_tree),
}


class TestDegreeIsAnInteger:
    """Each generator applies the integer rule to its degree where it is
    entered, so a direct call and generate_graph refuse the same values
    with a ValueError: no tree quietly capped at int(2.5) + 1, no
    TypeError from range(2.5)."""

    @pytest.mark.parametrize("family", sorted(_GENERATORS))
    @pytest.mark.parametrize("d", [2.5, 3.0, True, "3", None])
    def test_non_integer_degree_rejected(self, family, d):
        p, generate = _GENERATORS[family]
        with pytest.raises(ValueError, match="must be an integer"):
            generate(p, d)
        with pytest.raises(ValueError, match="must be an integer"):
            generate_graph(family, p, d, 0)

    @pytest.mark.parametrize("family", sorted(_GENERATORS))
    def test_numpy_integer_degree_accepted(self, family):
        p, generate = _GENERATORS[family]
        assert generate(p, np.int64(3)) == generate(p, 3)


class TestTreeSizeIsAnInteger:
    """The tree generators apply the integer rule to p before building
    anything, so a fractional p is a ValueError, not a TypeError from
    [0] * p or np.zeros(p)."""

    _TREES = {"tree": lambda p: generate_random_tree(p, 3, 0),
              "bethe_tree": lambda p: generate_bethe_tree(p, 3)}

    @pytest.mark.parametrize("family", sorted(_TREES))
    @pytest.mark.parametrize("p", [10.5, 10.0, True, "10", 1])
    def test_non_integer_p_rejected(self, family, p):
        with pytest.raises(ValueError, match="p must be an integer >= 2"):
            self._TREES[family](p)

    @pytest.mark.parametrize("family", sorted(_TREES))
    def test_numpy_integer_p_accepted(self, family):
        generate = self._TREES[family]
        assert generate(np.int64(10)) == generate(10)


class TestNodeLabels:
    """A vertex label follows the integer rule before its range: a fraction
    or a bool is a ValueError, not a label truncated by int() or an
    IndexError deep in numpy."""

    @pytest.mark.parametrize("label", [1.5, True, "1", None])
    def test_non_integer_support_label_rejected(self, label):
        with pytest.raises(ValueError, match="support vertex must be an integer"):
            support_vertices([label], 5, 0)

    @pytest.mark.parametrize("r", [1.5, True, "1"])
    def test_non_integer_node_rejected(self, r):
        with pytest.raises(ValueError, match="node must be an integer"):
            support_vertices([2], 5, r)

    def test_integer_labels_sorted(self):
        assert support_vertices((np.int64(3), 1), 5, 0).tolist() == [1, 3]


class TestCouplings:
    def test_uniform(self):
        g = assign_couplings(generate_random_regular(8, 3, seed=0), CouplingScheme.uniform(0.2), seed=1)
        assert all(j == 0.2 for j in g.couplings.values())

    def test_degree_scaled_star(self):
        g = assign_couplings(generate_star(12, 9), CouplingScheme.degree_scaled(1.2), seed=0)
        assert all(abs(j - 0.4) < 1e-15 for j in g.couplings.values())

    def test_mixed_magnitude(self):
        g = assign_couplings(generate_random_regular(16, 3, seed=2), CouplingScheme.mixed(0.4), seed=5)
        assert all(abs(abs(j) - 0.4) < 1e-15 for j in g.couplings.values())
        signs = {int(np.sign(j)) for j in g.couplings.values()}
        assert signs == {-1, 1}

    def test_mixed_deterministic(self):
        base = generate_random_regular(16, 3, seed=2)
        a = assign_couplings(base, CouplingScheme.mixed(0.4), seed=5)
        b = assign_couplings(base, CouplingScheme.mixed(0.4), seed=5)
        assert a.to_json() == b.to_json()

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            assign_couplings(SignedGraph(p=3, edges=()), CouplingScheme.uniform(0.4), seed=0)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            CouplingScheme.uniform(0.0)
        with pytest.raises(ValueError):
            CouplingScheme("bogus", 0.4)

    @pytest.mark.parametrize("value", [True, "0.4", None, math.nan, [0.4]])
    def test_scheme_value_is_a_number(self, value):
        message = f"coupling value must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CouplingScheme("mixed", value)


class TestSignedEdgeSet:
    def test_neighborhood_sets(self):
        g = SignedGraph(p=4, edges=((0, 1), (1, 2)), couplings={(0, 1): 0.4, (1, 2): -0.4})
        hoods = signed_neighborhood_sets(g)
        assert hoods == {0: {1: 1}, 1: {0: 1, 2: -1}, 2: {1: -1}, 3: {}}


class TestGraphType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="self-loop"):
            SignedGraph(p=3, edges=((1, 1),))
        with pytest.raises(ValueError, match="canonical"):
            SignedGraph(p=3, edges=((2, 1),))
        with pytest.raises(ValueError, match="zero coupling"):
            SignedGraph(p=3, edges=((0, 1),), couplings={(0, 1): 0.0})
        with pytest.raises(ValueError, match="cover"):
            SignedGraph(p=3, edges=((0, 1), (1, 2)), couplings={(0, 1): 0.4})

    @pytest.mark.parametrize("p, edges, couplings, message", [
        (2.7, (), {}, "vertex count p must be an integer >= 1, got 2.7"),
        (True, (), {}, "vertex count p must be an integer >= 1, got True"),
        (3, ((0, 1.0),), {}, "edge label must be an integer >= 0, got 1.0"),
        (3, ((0, 1),), {(0, 1): "0.4"}, "edge coupling must be a finite number, got '0.4'"),
        (3, ((0, 1),), {(0, 1): True}, "edge coupling must be a finite number, got True"),
    ])
    def test_python_path_checks_kinds(self, p, edges, couplings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SignedGraph(p=p, edges=edges, couplings=couplings)

    def test_json_round_trip(self):
        g = assign_couplings(generate_random_regular(10, 3, seed=4), CouplingScheme.mixed(0.3), seed=2)
        again = SignedGraph.from_json(g.to_json())
        assert again.to_json() == g.to_json()
        assert again.couplings == g.couplings

    @pytest.mark.parametrize("obj", [
        [],
        {"p": 3},
        {"edges": []},
        {"p": 3, "edges": 5},
        {"p": 2.7, "edges": []},
        {"p": True, "edges": []},
        {"p": 3, "edges": [[0, 1]]},
        {"p": 3, "edges": [[0, 1, 0.4, 1]]},
        {"p": 3, "edges": [5]},
        {"p": 3, "edges": [[0, 1.5, 0.4]]},
        {"p": 3, "edges": [["0", 1, 0.4]]},
        {"p": 3, "edges": [[0, 1, "0.4"]]},
        {"p": 3, "edges": [[0, 1, True]]},
    ])
    def test_json_malformed_rejected(self, obj):
        with pytest.raises(ValueError):
            SignedGraph.from_json(json.dumps(obj))

    @settings(max_examples=300, deadline=None)
    @given(p=value_kinds(4, 0),
           rows=st.lists(st.tuples(value_kinds(0, -1), value_kinds(2, -1), value_kinds(0.4, 0)),
                         min_size=1, max_size=2))
    def test_json_and_python_paths_agree(self, p, rows):
        """from_json only parses, so p, the labels and the couplings are
        accepted or refused the same way whichever way they come in. A JSON
        null coupling is the format's "no coupling", and a JSON array
        label is a tuple in Python, where a label must be hashable."""
        text = json.dumps({"p": p, "edges": [list(row) for row in rows]})
        edges = tuple((_hashable(r), _hashable(t)) for r, t, _ in rows)
        couplings = {e: j for e, (_, _, j) in zip(edges, rows) if j is not None}
        from_json = _outcome(lambda: SignedGraph.from_json(text))
        from_python = _outcome(lambda: SignedGraph(p=p, edges=edges, couplings=couplings))
        assert from_json == from_python

    def test_json_unweighted(self):
        g = generate_star(5, 2)
        obj = json.loads(g.to_json())
        assert obj["edges"][0][2] is None
        assert SignedGraph.from_json(g.to_json()).to_json() == g.to_json()

    def test_acyclic_check(self):
        assert generate_random_tree(9, 3, seed=0).is_acyclic()
        assert not generate_grid_periodic(3, 3).is_acyclic()
