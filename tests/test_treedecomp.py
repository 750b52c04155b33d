"""Tree decomposition validation, the exact treewidth oracle, the linear
clique-minor bound, and the exponential minor grader it is checked against."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cwkit import (CheckResult, Graph, InputError, SizeCapError, TreeDecomposition,
                   brute_treewidth, complete_graph, generate_corpus, gen_subdivided_clique,
                   is_tree, quotient, subdivide, td_to_dot, td_to_json_dict, validate_td,
                   width)
from cwkit.decomposition import _decompose
from cwkit.graphs import _connected_within
from cwkit.treedecomp import _clique_minor_bound, _holding, _td_witnesses

from helpers import (clique_data, cycle_data, grid_data, has_minor, naive_validate_td,
                     path_data, perm_treewidth, star_data)


SUBTREE_SEED = 2718


def G(data):
    return Graph(*data)


def small_graph_data(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    vs = [f"v{i}" for i in range(n)]
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
          if rng.random() < 0.45]
    return vs, es


def p3_decomposition():
    tree = Graph([0, 1], [(0, 1)])
    return TreeDecomposition(tree, {0: {"p0", "p1"}, 1: {"p1", "p2"}})


class TestShapes:
    def test_is_tree(self):
        assert is_tree(Graph(["x"], []))
        assert is_tree(G(path_data(5)))
        assert not is_tree(G(cycle_data(4)))
        assert not is_tree(Graph(["a", "b", "c"], [("a", "b")]))  # disconnected
        assert not is_tree(Graph([], []))

    def test_width_is_max_bag_minus_one(self):
        assert width(p3_decomposition()) == 1
        td = TreeDecomposition(Graph([0], []), {0: {"a", "b", "c"}})
        assert width(td) == 2

    def test_width_of_empty_decomposition_rejected(self):
        td = TreeDecomposition(Graph([], []), {})
        with pytest.raises(InputError):
            width(td)

    def test_bags_must_match_nodes(self):
        with pytest.raises(InputError, match="keyed by"):
            TreeDecomposition(Graph([0, 1], [(0, 1)]), {0: {"a"}})

    def test_equality_and_hash(self):
        a, b = p3_decomposition(), p3_decomposition()
        assert a == b
        assert hash(a) == hash(b)
        c = TreeDecomposition(Graph([0, 1], [(0, 1)]),
                              {0: {"p0", "p1"}, 1: {"p1"}})
        assert a != c
        assert a != "not a decomposition"


class TestValidate:
    def test_good_path_decomposition(self):
        report = validate_td(G(path_data(3)), p3_decomposition())
        assert report.ok
        assert report.checks == (CheckResult("bag_subtrees", True),
                                 CheckResult("edges_covered", True))

    def test_uncovered_edge_reported(self):
        td = TreeDecomposition(Graph([0, 1], [(0, 1)]),
                               {0: {"p0"}, 1: {"p1", "p2"}})
        report = validate_td(G(path_data(3)), td)
        assert not report.ok
        assert report.failed() == (
            CheckResult("edges_covered", False, "edge ('p0', 'p1') in no bag"),)
        # p0 still appears in a bag, so the subtree side is fine
        assert report.check("bag_subtrees").ok

    def test_disconnected_occurrence_reported(self):
        tree = Graph([0, 1, 2], [(0, 1), (1, 2)])
        td = TreeDecomposition(tree, {0: {"p0", "p1"}, 1: {"p1", "p2"},
                                      2: {"p0", "p2"}})
        report = validate_td(G(path_data(3)), td)
        assert report.check("bag_subtrees") == CheckResult(
            "bag_subtrees", False, "bags holding vertex 'p0' are disconnected")

    def test_missing_vertex_reported(self):
        td = TreeDecomposition(Graph([0], []), {0: {"p0", "p1"}})
        report = validate_td(G(path_data(3)), td)
        assert report.check("bag_subtrees") == CheckResult(
            "bag_subtrees", False, "vertex 'p2' appears in no bag")

    def test_non_tree_rejected(self):
        tree = Graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        td = TreeDecomposition(tree, {0: {"a"}, 1: {"a"}, 2: {"a"}})
        with pytest.raises(InputError, match="not a tree"):
            validate_td(Graph(["a"], []), td)

    def test_report_json_shape(self):
        td = TreeDecomposition(Graph([0, 1], [(0, 1)]),
                               {0: {"p0"}, 1: {"p1", "p2"}})
        obj = validate_td(G(path_data(3)), td).to_json_dict()
        assert obj == {"ok": False, "checks": [
            {"name": "bag_subtrees", "ok": True, "witness": None},
            {"name": "edges_covered", "ok": False, "witness": "edge ('p0', 'p1') in no bag"}]}
        json.dumps(obj)  # stays serializable

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_agrees_with_naive_checker_on_mutations(self, seed):
        rng = random.Random(seed)
        vs, es = small_graph_data(seed)
        # one bag holding everything is always valid; then maybe break it
        nodes = [0, 1]
        tree = Graph(nodes, [(0, 1)])
        bags = {0: set(vs), 1: set(rng.sample(vs, rng.randint(0, len(vs))))}
        if rng.random() < 0.5 and bags[0]:
            bags[0].discard(rng.choice(sorted(bags[0])))
        td = TreeDecomposition(tree, bags)
        got = validate_td(Graph(vs, es), td).to_json_dict()
        want = naive_validate_td(vs, es, list(tree.edges), td.bags)
        assert json.dumps(got) == json.dumps(want)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["path", "star"]), st.integers(1, 5),
           st.lists(st.sampled_from(["drop", "far", "unshare"]), max_size=3))
    def test_report_matches_naive_checker_on_tree_mutants(self, seed, shape, size, mutants):
        rng = random.Random(seed)
        vs, es = small_graph_data(seed)
        tree, bags = valid_decomposition(rng, vs, es, shape, size)
        assert naive_validate_td(vs, es, list(tree.edges), bags)["ok"]
        for mutant in mutants:  # several, so that several vertices and edges can fail
            if mutant == "drop":  # one vertex leaves one of its bags
                t = rng.choice(sorted(bags))
                if bags[t]:
                    bags[t].discard(rng.choice(sorted(bags[t])))
            elif mutant == "far":  # a vertex joins a bag not adjacent to its own
                v = rng.choice(vs)
                near = {x for t in bags if v in bags[t] for x in [t, *tree.neighbors(t)]}
                far = sorted(set(bags) - near)
                if far:
                    bags[rng.choice(far)].add(v)
            elif es:  # an edge loses every bag it shared
                u, w = rng.choice(es)
                for t in bags:
                    if u in bags[t] and w in bags[t]:
                        bags[t].discard(rng.choice([u, w]))
        got = validate_td(Graph(vs, es), TreeDecomposition(tree, bags)).to_json_dict()
        want = naive_validate_td(vs, es, list(tree.edges), bags)
        assert json.dumps(got) == json.dumps(want)


class TestSubtreeCount:
    """_td_witnesses counts the tree edges each vertex's nodes span; a walk per vertex
    (_connected_within) is the reference it is graded against."""

    @staticmethod
    def walked(g, td, holding):
        return next((v for v in g.vertices if not _connected_within(td.tree, holding[v])), None)

    def test_first_split_matches_a_walk_per_vertex(self):
        rng = random.Random(SUBTREE_SEED)
        split = {"bags": 0, "unions": 0}
        for e in generate_corpus(SUBTREE_SEED, 60, 5, 30):
            result, cg = _decompose(e)
            q, _ = quotient(cg.graph, result.partition)
            tree, bags = result.tree.tree, {t: set(b) for t, b in result.tree.bags.items()}
            for _ in range(rng.randint(0, 3)):
                pid = rng.choice(q.vertices)
                held = [t for t in bags if pid in bags[t]]
                mutant = rng.choice(("middle", "nowhere", "far"))
                if mutant == "middle":  # leaves a node whose neighbours still hold it
                    middle = [t for t in held
                              if sum(pid in bags[n] for n in tree.neighbors(t)) >= 2]
                    if middle:
                        bags[rng.choice(middle)].discard(pid)
                elif mutant == "nowhere":
                    for t in held:
                        bags[t].discard(pid)
                else:
                    bags[rng.choice(tree.vertices)].add(pid)
            td = TreeDecomposition(tree, bags)
            holding = _holding(td, q.vertices)
            want = self.walked(q, td, holding)
            assert _td_witnesses(q, td, holding)[0] == want
            split["bags"] += want is not None
            # Unions of the parts' holdings, as color_subtrees passes: not the bags' inverse.
            groups = Graph(range(4))
            unions = {c: set().union(*(holding[pid] for pid in q.vertices if rng.random() < 0.3))
                      for c in groups.vertices}
            want = self.walked(groups, td, unions)
            assert _td_witnesses(groups, td, unions)[0] == want
            split["unions"] += want is not None
        assert min(split.values()) >= 10, split


def valid_decomposition(rng, vs, es, shape, size):
    """A path or star tree of size nodes with valid bags for the graph (vs, es).

    Each vertex gets a random subtree; each edge whose ends share no bag
    extends one end's subtree along the tree path to the other's.
    """
    if shape == "path":
        tree = Graph(range(size), [(t, t + 1) for t in range(size - 1)])
        def between(a, b):
            return set(range(min(a, b), max(a, b) + 1))
    else:
        tree = Graph(range(size), [(0, t) for t in range(1, size)])
        def between(a, b):
            return {a, b, 0}
    held = {}
    for v in vs:
        a, b = rng.randrange(size), rng.randrange(size)
        held[v] = between(a, b) if shape == "path" or rng.random() < 0.5 else {a}
    for u, w in es:
        if held[u].isdisjoint(held[w]):
            held[u] |= between(rng.choice(sorted(held[u])), rng.choice(sorted(held[w])))
    bags = {t: {v for v in vs if t in held[v]} for t in range(size)}
    return tree, bags


class TestBruteTreewidth:
    # expected numbers below were computed beforehand with an
    # order-enumerating checker kept in tests/helpers.py
    def test_known_values(self):
        assert brute_treewidth(G(path_data(2))) == 1
        assert brute_treewidth(G(path_data(4))) == 1
        assert brute_treewidth(G(path_data(5))) == 1
        assert brute_treewidth(G(cycle_data(4))) == 2
        assert brute_treewidth(G(cycle_data(6))) == 2
        assert brute_treewidth(G(clique_data(4))) == 3
        assert brute_treewidth(G(clique_data(5))) == 4
        assert brute_treewidth(G(star_data(3))) == 1
        assert brute_treewidth(G(grid_data(3, 3))) == 3

    def test_degenerate_graphs(self):
        assert brute_treewidth(Graph(["x"], [])) == 0
        assert brute_treewidth(Graph(["x", "y"], [])) == 0
        with pytest.raises(InputError):
            brute_treewidth(Graph([], []))

    def test_size_cap(self):
        vs, es = path_data(13)
        with pytest.raises(SizeCapError, match="13 vertices"):
            brute_treewidth(Graph(vs, es))
        # an explicit cap beats the default
        assert brute_treewidth(Graph(vs, es), cap=13) == 1
        with pytest.raises(SizeCapError):
            brute_treewidth(G(path_data(5)), cap=4)

    def test_a_negative_cap_is_refused(self):
        with pytest.raises(InputError) as info:
            brute_treewidth(G(path_data(2)), cap=-1)
        assert str(info.value) == "treewidth cap must be >= 0, got -1"
        with pytest.raises(SizeCapError):  # a cap of 0 holds no graph, but is a cap
            brute_treewidth(G(path_data(2)), cap=0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_elimination_order_oracle(self, seed):
        vs, es = small_graph_data(seed)
        assert brute_treewidth(Graph(vs, es)) == perm_treewidth(vs, es)


class TestHasMinor:
    def test_clique_minors_of_cycles(self):
        assert has_minor(G(cycle_data(3)), G(clique_data(3)))
        assert has_minor(G(cycle_data(6)), G(clique_data(3)))
        assert not has_minor(G(cycle_data(6)), G(clique_data(4)))

    def test_trees_have_no_cycle_minor(self):
        assert not has_minor(G(path_data(6)), G(clique_data(3)))
        assert not has_minor(G(star_data(4)), G(clique_data(3)))

    def test_once_subdivided_clique(self):
        # K4 with every edge subdivided once: 4 branch vertices, 6 middles
        vs = ["1", "2", "3", "4"]
        mids, es = [], []
        for i, a in enumerate(vs):
            for b in vs[i + 1:]:
                m = f"{a}-{b}"
                mids.append(m)
                es += [(a, m), (m, b)]
        sub = Graph(vs + mids, es)
        assert has_minor(sub, G(clique_data(4)))
        assert not has_minor(sub, G(clique_data(5)))
        # the oracles agree with each other on this instance
        assert brute_treewidth(sub) == perm_treewidth(vs + mids, es)

    def test_edge_count_shortcut(self):
        assert not has_minor(G(path_data(3)), G(clique_data(3)))

    def test_empty_and_oversized_patterns(self):
        g = G(path_data(3))
        assert has_minor(g, Graph([], []))
        assert not has_minor(g, G(path_data(4)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_every_graph_is_its_own_minor(self, seed):
        vs, es = small_graph_data(seed)
        g = Graph(vs, es)
        assert has_minor(g, g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_clique_minors_track_treewidth(self, seed):
        # treewidth below two means no K3 minor, below three means no K4
        # minor, and conversely; this ties the two oracles together
        vs, es = small_graph_data(seed)
        g = Graph(vs, es)
        tw = brute_treewidth(g)
        assert has_minor(g, G(clique_data(3))) == (tw >= 2)
        assert has_minor(g, G(clique_data(4))) == (tw >= 3)


class TestCliqueMinorBound:
    @pytest.mark.parametrize("data, bound", [
        (([], []), 0), ((["x", "y"], []), 0), (path_data(6), 1), (star_data(5), 1),
        (cycle_data(3), 2), (cycle_data(9), 2), (grid_data(2, 6), 2), (clique_data(4), 3),
        (grid_data(3, 3), 3), (clique_data(7), 3)])
    def test_known_graphs(self, data, bound):
        assert _clique_minor_bound(G(data)) == bound

    def test_forest_beside_a_cycle(self):
        vs, es = path_data(5)
        cvs, ces = cycle_data(4)
        assert _clique_minor_bound(Graph(vs + cvs, es + ces)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_is_treewidth_capped_at_three(self, seed):
        vs, es = small_graph_data(seed)
        assert _clique_minor_bound(Graph(vs, es)) == min(3, perm_treewidth(vs, es))

    def test_matches_the_minor_grader_on_quotients(self):
        # the largest m <= 4 with a K_m minor, on every corpus quotient of at most 50
        # vertices and on the quotients of the smallest subdivided cliques
        exprs = [*generate_corpus(1, 300, 6, 40),
                 *(gen_subdivided_clique(n, t) for n in (4, 5) for t in (0, 1, 2))]
        sizes = []
        for e in exprs:
            result, cg = _decompose(e)
            q, _ = quotient(cg.graph, result.partition)
            if len(q) > 50:
                continue
            sizes.append(len(q))
            want = next((m - 1 for m in (4, 3, 2) if has_minor(q, complete_graph(m))), 0)
            assert _clique_minor_bound(q) == want
        assert len(sizes) > 300 and max(sizes) > 30

    def test_subdivided_cliques_keep_their_k4_minor(self):
        for n, t in ((4, 48), (12, 48)):
            assert _clique_minor_bound(subdivide(complete_graph(n), t)) == 3


class TestInterop:
    def test_json_round_trip(self):
        td = p3_decomposition()
        obj = td_to_json_dict(td)
        assert obj["bags"]["0"] == ["p0", "p1"]
        obj = json.loads(json.dumps(obj))  # the package reads no tree file: read it here
        again = TreeDecomposition(Graph(obj["nodes"], map(tuple, obj["edges"])),
                                  {int(t): bag for t, bag in obj["bags"].items()})
        assert again == td

    def test_dot_output_mentions_bags(self):
        dot = td_to_dot(p3_decomposition())
        assert dot.startswith("graph decomposition {")
        assert "{p0, p1}" in dot
        assert dot.rstrip().endswith("}")
