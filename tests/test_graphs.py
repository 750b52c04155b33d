"""Graphs, distances, partitions, quotients."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cwkit import (INFINITE, ColoredGraph, Graph, InputError, Partition,
                   bfs_distances, closed_r_neighborhood, connected_components,
                   graph_from_json_dict, graph_to_dot,
                   graph_to_json_dict, is_connected, is_dominated, quotient,
                   set_distance, weak_diameter)
from cwkit import (complete_graph, decompose, decomposition, evaluate, gen_path, gen_spider,
                   gen_subdivided_clique, generate_corpus, graphs, subdivide)
from cwkit.graphs import _closest_sets, _components_within, _connected_within

from helpers import (bfs_table, cycle_data, floyd_warshall, naive_closest_sets,
                     naive_connected, naive_dominated, naive_set_distance,
                     naive_weak_diameter, path_data, star_data)
from test_acceptance import COUNT, MAX_K, MAX_LEAVES, SEED


def G(data):
    return Graph(*data)


def random_graph_data(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    vs = [f"v{i}" for i in range(n)]
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
          if rng.random() < 0.4]
    return vs, es


def sweep_graph_data(seed):
    """A seeded graph of 3 to 16 vertices: a tree, a cycle with chords, or random."""
    rng = random.Random(seed)
    n = rng.randint(3, 16)
    vs = [f"v{i}" for i in range(n)]
    shape = rng.choice(("tree", "cycle", 0.15, 0.3))
    if shape == "tree":
        es = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]
    elif shape == "cycle":
        es = [(vs[i], vs[i - 1]) for i in range(n)] + [tuple(rng.sample(vs, 2)) for _ in range(2)]
    else:
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < shape]
    return vs, es


class TestGraphBasics:
    def test_canonical_storage(self):
        g = Graph(["b", "a", "c"], [("c", "a"), ("b", "c")])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == (("a", "c"), ("b", "c"))
        assert g.neighbors("c") == ("a", "b")
        assert g.degree("c") == 2 and g.degree("a") == 1
        assert g.has_edge("a", "c") and g.has_edge("c", "a")
        assert not g.has_edge("a", "b")
        assert "a" in g and len(g) == 3 and g.num_edges() == 2

    def test_equality_ignores_input_order(self):
        a = Graph(["x", "y"], [("x", "y")])
        b = Graph(["y", "x"], [("y", "x")])
        assert a == b and hash(a) == hash(b)

    def test_rejects_loops_and_unknown_endpoints(self):
        with pytest.raises(InputError):
            Graph(["a"], [("a", "a")])
        with pytest.raises(InputError):
            Graph(["a"], [("a", "b")])

    def test_duplicate_edges_collapse(self):
        g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.num_edges() == 1


class TestBuiltGraphs:
    """The folds take the graphs they build as built, with no check or sort."""

    @staticmethod
    def expressions():
        yield from generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)
        for length in (1, 2, 3, 17, 150):
            yield gen_path("x", "y", length, 4, 3, 2, 1)
        for legs in ([1, 1, 1], [5, 9, 2, 7], [40, 50, 60]):
            yield gen_spider(len(legs), legs)
        for n, times in ((4, 1), (5, 7), (7, 3)):
            yield gen_subdivided_clique(n, times)

    def test_fold_built_graphs_equal_their_rebuilds(self):
        # the evaluated graph, both decomposition routes' graphs and the quotient tree,
        # against the same vertices and edges built by Graph(...) with every check
        for e in self.expressions():
            result, cg = decomposition._decompose(e)
            built = [evaluate(e).graph, cg.graph, decomposition._decompose(e, False)[1].graph,
                     result.tree.tree]
            for g in built:
                h = Graph(g.vertices, g.edges)
                assert g == h and g.edges == h.edges
                assert list(g._adj.items()) == list(h._adj.items())
                assert g._int_adjacency() == h._int_adjacency()
            g, h = built[0], Graph(built[0].vertices, built[0].edges)
            assert weak_diameter(g, g.vertices) == weak_diameter(h, h.vertices)


class TestDistances:
    def test_cycle_six_facts(self):
        # frozen from the independent all-orders oracle run
        g = G(cycle_data(6))
        assert bfs_distances(g, ["c0"])["c3"] == 3
        assert weak_diameter(g, ["c0", "c2", "c3"]) == 3
        assert weak_diameter(g, ["c0"]) == 0

    def test_disconnected_distance_infinite(self):
        g = Graph(["a", "b"], [])
        assert "b" not in bfs_distances(g, ["a"])
        assert weak_diameter(g, ["a", "b"]) == INFINITE
        assert set_distance(g, ["a"], ["b"]) == INFINITE

    def test_set_distance(self):
        g = G(path_data(5))
        assert set_distance(g, ["p0"], ["p4"]) == 4
        assert set_distance(g, ["p0", "p3"], ["p4"]) == 1
        assert set_distance(g, ["p2"], ["p2", "p4"]) == 0
        with pytest.raises(InputError):
            set_distance(g, [], ["p0"])

    def test_unknown_members_rejected(self):
        g = G(path_data(5))
        for s in (["p0", "zz"], ["zz", "p1", "p2", "p3", "p4", "zy"]):
            with pytest.raises(InputError, match="unknown vertex 'zy'|unknown vertex 'zz'"):
                weak_diameter(g, s)
        with pytest.raises(InputError, match="unknown vertex 'zz'"):
            set_distance(g, ["zz"], ["zz"])
        for t in (["zz"], ["zz", "p2"]):  # either set's unknown vertex is named
            with pytest.raises(InputError, match="unknown vertex 'zz'"):
                set_distance(g, ["p0"], t)

    def test_members_left_after_the_double_sweep_are_measured(self):
        # two adjacent hubs joined to three independent vertices: both sweeps
        # see eccentricity 1, and only a member BFS finds the pair at 2
        vs = ["v0", "v1", "v2", "v3", "v4"]
        es = [("v0", "v1")] + [(hub, v) for hub in ("v0", "v1") for v in vs[2:]]
        assert weak_diameter(Graph(vs, es), vs) == naive_weak_diameter(vs, es, vs) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 16),
           st.sampled_from(("tree", "path", 0.08, 0.2, 0.5)))
    def test_weak_diameter_and_set_distance_match_floyd_warshall(self, seed, n, shape):
        # trees and paths are where the early stops and the double sweep do
        # their work; sparse random graphs give sets spread over components
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        rng.shuffle(vs)
        if shape == "tree":
            es = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]
        elif shape == "path":
            es = list(zip(vs, vs[1:]))
        else:
            es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < shape]
        g = Graph(vs, es)
        s = rng.sample(vs, min(n, rng.choice((1, 2, rng.randint(1, n)))))
        t = rng.sample(vs, rng.randint(1, n))
        if rng.random() < 0.3:
            t.append(s[-1])  # the sets overlap
        for got, want in ((weak_diameter(g, s), naive_weak_diameter(vs, es, s)),
                          (set_distance(g, s, t), naive_set_distance(vs, es, s, t))):
            assert (got, type(got)) == (want, type(want))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 40), st.sampled_from(("tree", 0.02, 0.1, 0.4)))
    def test_whole_vertex_set_matches_floyd_warshall(self, seed, n, shape):
        # sparse shapes leave several components, where the answer is INFINITE
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        if shape == "tree":
            es = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]
        else:
            es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < shape]
        want = naive_weak_diameter(vs, es, vs)
        g = Graph(vs, es)
        got = weak_diameter(g, reversed(vs))
        assert (got, type(got)) == (want, type(want))
        assert weak_diameter(g, vs) == want  # in another member order

    def test_seeded_sweep_matches_a_bfs_table(self):
        # a fixed sweep, so that every run reaches the graphs where iFUB's
        # rule does not end the search and the bounds must drop members exactly
        for seed in range(600):
            vs, es = sweep_graph_data(seed)
            rng, table = random.Random(seed), bfs_table(vs, es)
            for s in (vs, rng.sample(vs, rng.randint(2, len(vs)))):
                want = max(table[a].get(b, INFINITE) for a in s for b in s)
                assert weak_diameter(Graph(vs, es), s) == want, (seed, s)

    @pytest.mark.parametrize("n, times", [(3, 0), (4, 1), (4, 6), (5, 3), (6, 2), (6, 5)])
    def test_subdivided_cliques_match_floyd_warshall(self, n, times):
        # every path middle is as eccentric as the diameter: the bounds do the work here
        g = subdivide(complete_graph(n), times)
        vs, es = g.vertices, g.edges
        assert weak_diameter(g, vs) == naive_weak_diameter(vs, es, vs)
        rng = random.Random(n * 100 + times)
        for size in (2, 3, len(vs) // 2, len(vs) - 1):
            s = rng.sample(vs, size)
            assert weak_diameter(g, s) == naive_weak_diameter(vs, es, s)

    def test_disconnected_whole_graph_is_infinite(self):
        vs, es = path_data(6)
        g = Graph(vs + ["x", "y"], es + [("x", "y")])
        assert weak_diameter(g, g.vertices) == INFINITE
        assert weak_diameter(g, ["x", "y"]) == 1 and weak_diameter(g, vs) == 5

    def test_one_member_needs_no_search(self, monkeypatch):
        g = G(path_data(5))
        monkeypatch.setattr(graphs, "_walk", None)  # any search would fail
        assert weak_diameter(g, ["p3"]) == 0 and weak_diameter(g, ["p3", "p3"]) == 0
        with pytest.raises(InputError, match="unknown vertex 'zz'"):
            weak_diameter(g, ["zz"])
        with pytest.raises(InputError, match="^weak_diameter of an empty set$"):
            weak_diameter(g, [])

    def count_searches(self, monkeypatch):
        runs, real = [], graphs._walk
        monkeypatch.setattr(graphs, "_walk", lambda *a: runs.append(1) or real(*a))
        return runs

    def test_whole_subdivided_clique_takes_few_searches(self, monkeypatch):
        # the iFUB loop alone took 2,663 BFS runs here, about one per vertex
        g = evaluate(gen_subdivided_clique(12, 48)).graph
        runs = self.count_searches(monkeypatch)
        assert weak_diameter(g, g.vertices) == 97
        assert len(runs) <= 100, len(runs)
        measured = len(runs)  # no value is kept: a second call runs the same searches
        assert weak_diameter(g, reversed(g.vertices)) == 97 and len(runs) == 2 * measured

    def test_corpus_parts_take_no_more_searches(self, monkeypatch):
        # 6,299 BFS runs before the bounds: one for each of the 3,476 one-vertex
        # parts, 2,823 for the rest; the rest may not cost more
        cases = [(evaluate(e).graph, decompose(e).partition)
                 for e in generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)]
        runs = self.count_searches(monkeypatch)
        for g, p in cases:
            for _, part in p:
                weak_diameter(g, part)
        assert sum(len(part) == 1 for _, p in cases for _, part in p) == 3476
        assert len(runs) <= 6299 - 3476, len(runs)

    def test_multi_source_bfs(self):
        g = G(path_data(6))
        d = bfs_distances(g, ["p0", "p5"])
        assert d == {"p0": 0, "p5": 0, "p1": 1, "p4": 1, "p2": 2, "p3": 2}

    def test_neighborhoods(self):
        g = G(path_data(5))
        assert closed_r_neighborhood(g, ["p2"], 0) == frozenset({"p2"})
        assert closed_r_neighborhood(g, ["p2"], 1) == frozenset({"p1", "p2", "p3"})
        assert closed_r_neighborhood(g, ["p0"], 10) == frozenset(g.vertices)
        with pytest.raises(InputError):
            closed_r_neighborhood(g, ["p0"], -1)

    def test_neighborhood_search_stops_at_the_radius(self, monkeypatch):
        g = G(path_data(2000))
        labelled = []
        original = graphs._walk

        def walk(adj, layer, dist):
            labelled.append(dist)
            return original(adj, layer, dist)

        monkeypatch.setattr(graphs, "_walk", walk)
        ball = closed_r_neighborhood(g, ["p1000"], 2)
        assert ball == frozenset(f"p{i}" for i in range(998, 1003))
        assert sum(map(len, labelled)) <= len(ball) + 2  # the ball plus one more layer
        with pytest.raises(InputError, match="unknown vertex 'q'"):
            closed_r_neighborhood(g, ["p0", "q"], 2)

    def test_components_and_connectivity(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]
        assert not is_connected(g)
        assert is_connected(G(path_data(4)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 12),
           st.sampled_from((0.0, 0.1, 0.25, 0.6)))
    def test_component_searches_match_floyd_warshall(self, seed, n, density):
        # n = 0 is the empty graph; density 0 leaves every vertex isolated
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < density]
        g = Graph(vs, es)

        def components(order, edges):  # by reachability, in the order of first members
            dist, comps = floyd_warshall(order, edges), []
            for v in order:
                if not any(v in c for c in comps):
                    comps.append(set(dist[v]))
            return comps

        want = components(sorted(vs), es)
        assert connected_components(g) == tuple(map(frozenset, want))
        assert is_connected(g) == (n == 0 or naive_connected(es, vs))
        nodes = rng.sample(vs, rng.randint(0, n))  # an induced subgraph, in random order
        inside = [(a, b) for a, b in es if a in nodes and b in nodes]
        got = _components_within(g, nodes)
        assert got == components(nodes, inside)
        assert all(naive_connected(inside, c) for c in got)
        assert _connected_within(g, nodes) == (len(got) == 1)

    def test_components_within_an_induced_subgraph(self):
        g = G(path_data(5))  # p0 - p1 - p2 - p3 - p4
        within = _components_within(g, ["p0", "p1", "p3", "p4"])
        assert sorted(sorted(c) for c in within) == [["p0", "p1"], ["p3", "p4"]]
        assert _components_within(g, []) == []
        assert _connected_within(g, ["p1", "p2", "p3"])
        assert not _connected_within(g, ["p1", "p3"])
        assert not _connected_within(g, [])

    def test_package_exports_no_submodules(self):
        import types
        import cwkit
        assert "Graph" in cwkit.__all__ and "parse" in cwkit.__all__
        assert not [n for n in cwkit.__all__ if isinstance(getattr(cwkit, n), types.ModuleType)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_bfs_matches_floyd_warshall(self, seed):
        vs, es = random_graph_data(seed)
        g = Graph(vs, es)
        want = floyd_warshall(vs, es)
        for v in vs:
            assert bfs_distances(g, [v]) == want[v]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 4))
    def test_neighborhood_monotone_in_radius(self, seed, r):
        vs, es = random_graph_data(seed)
        g = Graph(vs, es)
        src = [vs[0]]
        assert closed_r_neighborhood(g, src, r) <= closed_r_neighborhood(g, src, r + 1)


class TestSeparationSearch:
    """_closest_sets against a scan of every pair."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 16), st.sampled_from((0.05, 0.15, 0.3, 0.6)),
           st.integers(0, 5), st.sampled_from((0, 1, 2, 2.5, 3, 4, 7, INFINITE)))
    def test_matches_the_pair_scan(self, seed, n, density, count, reach):
        # sparse graphs give disconnected pairs; sets may overlap or be one vertex
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < density]
        sets = [frozenset(rng.sample(vs, min(n, rng.choice((1, 1, 2, rng.randint(1, n))))))
                for _ in range(count)]
        g = Graph(vs, es)
        least = naive_closest_sets(vs, es, sets)
        got = _closest_sets(g, sets, reach)
        assert (got, type(got)) == ((least, type(least)) if least <= reach else (INFINITE, float))

    def test_seeded_sweep_matches_the_pair_scan(self):
        # a fixed sweep of small sets and reaches, so that every run meets
        # the pairs whose distance sits right at the search's stopping layer
        for seed in range(600):
            vs, es = sweep_graph_data(seed)
            rng = random.Random(seed)
            sets = [frozenset(rng.sample(vs, rng.randint(1, 2))) for _ in range(rng.randint(2, 4))]
            reach = rng.randint(0, 7)
            least = naive_closest_sets(vs, es, sets)
            got = _closest_sets(Graph(vs, es), sets, reach)
            assert got == (least if least <= reach else INFINITE), (seed, sets, reach)

    def test_meeting_sets_give_zero(self):
        g = G(path_data(6))
        assert _closest_sets(g, [{"p0"}, {"p4", "p5"}, {"p5"}], 1) == 0

    def test_far_sets_stop_at_half_the_reach(self, monkeypatch):
        g = G(path_data(2001))
        labelled, real = [], graphs._walk

        def walk(adj, layer, dist):
            labelled.append(dist)
            return real(adj, layer, dist)

        monkeypatch.setattr(graphs, "_walk", walk)
        assert _closest_sets(g, [{"p0"}, {"p2000"}], 10) == INFINITE
        assert sum(map(len, labelled)) <= 2 * 7  # two searches of radius 6
        assert _closest_sets(g, [{"p0"}, {"p2000"}], INFINITE) == 2000
        with pytest.raises(InputError, match="unknown vertex 'zz'"):
            _closest_sets(g, [{"p0"}, {"zz"}], 3)


class TestDomination:
    def test_path_endpoints_not_dominated(self):
        g = G(path_data(4))
        ok, witness = is_dominated(g, ["p0", "p3"])
        assert not ok and witness is None

    def test_star_center_dominates_everything(self):
        g = G(star_data(3))
        ok, witness = is_dominated(g, g.vertices)
        assert ok and witness == "s"

    def test_witness_is_smallest(self):
        g = G(path_data(3))
        ok, witness = is_dominated(g, ["p1"])
        assert ok and witness == "p0"  # p0, p1, p2 all work; smallest id wins

    def test_dominated_implies_weak_diameter_two(self):
        for seed in range(40):
            vs, es = random_graph_data(seed)
            g = Graph(vs, es)
            rng = random.Random(seed)
            members = rng.sample(vs, rng.randint(1, len(vs)))
            ok, _ = is_dominated(g, members)
            if ok:
                assert weak_diameter(g, members) <= 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14), st.floats(0.05, 0.95))
    def test_matches_naive_oracle(self, seed, n, density):
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < density]
        members = rng.sample(vs, rng.randint(1, min(n, 4)))
        assert is_dominated(Graph(vs, es), members) == naive_dominated(vs, es, members)

    def test_rejects_empty_and_unknown_sets(self):
        g = G(path_data(3))
        with pytest.raises(InputError, match="empty"):
            is_dominated(g, [])
        with pytest.raises(InputError, match="unknown vertex 'zz'"):
            is_dominated(g, ["p0", "zz"])


class TestColoredGraph:
    def test_validates_total_coloring(self):
        g = Graph(["a", "b"], [("a", "b")])
        cg = ColoredGraph(g, 2, {"a": 1, "b": 2})
        assert cg.color_of("a") == 1
        assert cg.used_colors() == frozenset({1, 2})
        assert cg.color_class(2) == ("b",)
        with pytest.raises(InputError):
            ColoredGraph(g, 2, {"a": 1})
        with pytest.raises(InputError):
            ColoredGraph(g, 2, {"a": 1, "b": 3})
        with pytest.raises(InputError):
            ColoredGraph(g, 0, {})
        with pytest.raises(InputError, match="^unknown vertex 'zz'$"):
            cg.color_of("zz")


class TestPartition:
    def test_basic(self):
        p = Partition({"x": ["a", "b"], "y": ["c"]})
        assert p.ids == ("x", "y")
        assert p.part("x") == frozenset({"a", "b"})
        assert p.part_of("c") == "y"
        assert len(p) == 2
        assert p.vertices == {"a", "b", "c"}
        with pytest.raises(InputError, match="^unknown part id 'z'$"):
            p.part("z")
        with pytest.raises(InputError, match="^vertex 'z' is in no part$"):
            p.part_of("z")

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(InputError):
            Partition({"x": ["a"], "y": ["a"]})
        with pytest.raises(InputError):
            Partition({"x": []})
        with pytest.raises(InputError, match="^partition must have at least one part$"):
            Partition({})

    def test_takes_a_mapping_only(self):
        # a list of pairs could repeat a part id; a mapping cannot
        with pytest.raises(InputError, match="^a partition maps part ids to members, not a list$"):
            Partition([("a", {"x"})])


class TestQuotient:
    def test_path_contracts_to_shorter_path(self):
        g = G(path_data(4))
        p = Partition({"A": ["p0", "p1"], "B": ["p2"], "C": ["p3"]})
        q, proj = quotient(g, p)
        assert q.vertices == ("A", "B", "C")
        assert q.edges == (("A", "B"), ("B", "C"))
        assert proj == {"p0": "A", "p1": "A", "p2": "B", "p3": "C"}

    def test_requires_full_cover(self):
        g = G(path_data(3))
        with pytest.raises(InputError):
            quotient(g, Partition({"A": ["p0"]}))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_quotient_edges_come_from_edges(self, seed):
        vs, es = random_graph_data(seed)
        g = Graph(vs, es)
        rng = random.Random(seed + 1)
        pids = {}
        for v in vs:
            pids.setdefault(f"P{rng.randint(0, 3)}", []).append(v)
        p = Partition(pids)
        q, proj = quotient(g, p)
        for a, b in q.edges:
            assert any(proj[u] != proj[w] and {proj[u], proj[w]} == {a, b}
                       for u, w in es)
        for u, w in es:
            if proj[u] != proj[w]:
                assert q.has_edge(proj[u], proj[w])


class TestInterop:
    def test_json_round_trip(self):
        g = Graph(["b", "a"], [("a", "b")])
        colors = {"a": 1, "b": 2}
        obj = graph_to_json_dict(g, colors)
        assert obj == {"vertices": ["a", "b"], "edges": [["a", "b"]],
                       "colors": {"a": 1, "b": 2}}
        g2, colors2 = graph_from_json_dict(json.loads(json.dumps(obj)))
        assert g2 == g and colors2 == colors

    def test_json_without_colors(self):
        g = Graph(["a"], [])
        obj = graph_to_json_dict(g)
        assert "colors" not in obj
        g2, colors2 = graph_from_json_dict(obj)
        assert g2 == g and colors2 is None

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError):
            graph_from_json_dict({"vertices": ["a"]})

    def test_integer_ids_round_trip_with_colours(self):
        g = Graph([1, 2, 10], [(1, 2)])
        colors = {1: 1, 2: 2, 10: 1}
        g2, colors2 = graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g, colors))))
        assert g2 == g and colors2 == colors

    def test_dot_output_mentions_everything(self):
        g = Graph(["a", "b"], [("a", "b")])
        text = graph_to_dot(g, {"a": 1, "b": 2})
        assert '"a"' in text and '"b"' in text and "--" in text
        assert text.startswith("graph ") and text.rstrip().endswith("}")
