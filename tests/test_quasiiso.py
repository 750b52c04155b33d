"""Quasi-isometry checks, projection maps, tight partition bounds."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import cwkit.graphs as graphs
import cwkit.quasiiso as quasiiso
from cwkit import (INFINITE, Graph, InputError, Partition, QiMap, check_partqi_tight,
                   check_qi, decompose, evaluate, gen_path, generate_corpus, projection_map,
                   qimap_from_json_dict, quotient,
                   random_strict_expr, set_distance)

from helpers import (cycle_data, floyd_warshall, naive_check_partqi_tight, naive_check_qi,
                     naive_fibre_width, path_data, random_graph_data, random_groups)
from test_acceptance import (COUNT, MAX_K, MAX_LEAVES, SEED, clique_cases,
                             path_cases, spider_cases)


def G(data):
    return Graph(*data)


def identity_map(g, c=1.0):
    return QiMap(g, g, {v: v for v in g.vertices}, c)


class TestQiMapValidation:
    def test_parameter_must_be_positive(self):
        g = G(path_data(2))
        for bad in (0, -1, -0.5):
            with pytest.raises(InputError, match="must be positive"):
                QiMap(g, g, {"p0": "p0", "p1": "p1"}, bad)

    def test_parameter_must_be_finite(self):
        g = G(path_data(2))
        m = identity_map(g)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="finite"):
                QiMap(g, g, {"p0": "p0", "p1": "p1"}, bad)
            with pytest.raises(InputError, match="finite"):
                m.with_c(bad)

    def test_nan_no_longer_passes_a_collapse(self):
        # an 8-vertex path sent to one vertex is no 1-quasi-isometry; at
        # c = nan every comparison was false, so the check used to pass
        g = G(path_data(8))
        point = Graph(["z"], [])
        collapse = {v: "z" for v in g.vertices}
        assert not check_qi(QiMap(g, point, collapse, 1)).ok
        with pytest.raises(InputError, match="finite"):
            QiMap(g, point, collapse, float("nan"))

    def test_map_file_with_non_finite_c_rejected(self):
        g = G(path_data(2))
        with pytest.raises(InputError, match="finite"):
            qimap_from_json_dict({"f": {"p0": "p0", "p1": "p1"}, "c": float("nan")}, g, g)

    def test_domain_must_equal_source_vertices(self):
        g = G(path_data(3))
        with pytest.raises(InputError, match="exactly the source"):
            QiMap(g, g, {"p0": "p0"}, 1)
        with pytest.raises(InputError, match="exactly the source"):
            QiMap(g, g, {f"p{i}": "p0" for i in range(4)}, 1)

    def test_values_must_be_target_vertices(self):
        g = G(path_data(2))
        with pytest.raises(InputError, match="unknown target"):
            QiMap(g, g, {"p0": "p0", "p1": "nope"}, 1)

    def test_call_and_reparametrize(self):
        g = G(path_data(2))
        m = identity_map(g)
        assert m("p1") == "p1"
        weaker = m.with_c(4)
        assert weaker.c == 4.0
        assert weaker.mapping == m.mapping


class TestCheckQi:
    def test_identity_is_a_one_qi(self):
        report = check_qi(identity_map(G(cycle_data(6))))
        assert report.ok
        assert report.worst_lower_margin == -1.0
        assert report.worst_upper_margin == -1.0
        assert report.density_worst == 0

    def test_collapsing_a_path_needs_c_two(self):
        p3 = G(path_data(3))
        point = Graph(["x"], [])
        collapse = {v: "x" for v in p3.vertices}
        tight = check_qi(QiMap(p3, point, collapse, 1))
        assert not tight.bounds_ok
        assert tight.bounds_witness == ("p0", "p2", "dist 2 maps to 0")
        assert tight.density_ok
        loose = check_qi(QiMap(p3, point, collapse, 2))
        assert loose.ok

    def test_sparse_image_fails_density(self):
        p5 = G(path_data(5))
        one = Graph(["a"], [])
        report = check_qi(QiMap(one, p5, {"a": "p0"}, 1))
        assert report.bounds_ok  # no pairs to compare
        assert not report.density_ok
        assert report.density_witness == "p2"
        assert report.density_worst == 4

    def test_disconnection_must_agree(self):
        two = Graph(["a", "b"], [])
        p2 = G(path_data(2))
        report = check_qi(QiMap(two, p2, {"a": "p0", "b": "p1"}, 1))
        assert not report.bounds_ok
        assert report.bounds_witness == ("a", "b",
                                         "one side disconnected, the other not")
        backwards = check_qi(QiMap(p2, Graph(["a", "b"], []),
                                   {"p0": "a", "p1": "b"}, 1))
        assert not backwards.bounds_ok

    def test_matching_disconnection_is_fine(self):
        two = Graph(["a", "b"], [])
        other = Graph(["x", "y"], [])
        report = check_qi(QiMap(two, other, {"a": "x", "b": "y"}, 1))
        assert report.ok

    def test_json_shape(self):
        obj = check_qi(identity_map(G(path_data(4)))).to_json_dict()
        assert obj["ok"] is True
        assert obj["distance_bounds"]["worst_upper_margin"] == -1.0
        assert obj["density"]["worst"] == 0
        json.dumps(obj)


class TestProjectionMap:
    def test_default_parameter_tracks_part_size(self):
        g = G(path_data(4))
        p = Partition({"left": ["p0", "p1"], "right": ["p2", "p3"]})
        m = projection_map(g, p)
        assert m.c == 2  # largest part weak diameter is 1
        assert m("p1") == "left"
        assert check_qi(m).ok

    def test_explicit_parameter_can_be_too_small(self):
        g = G(path_data(4))
        p = Partition({"left": ["p0", "p1"], "right": ["p2", "p3"]})
        report = check_qi(projection_map(g, p, c=1))
        assert not report.bounds_ok

    def test_default_parameter_refuses_a_part_spanning_components(self):
        g = Graph(["a", "b", "c"], [("b", "c")])
        p = Partition({"ab": ["a", "b"], "c": ["c"]})
        with pytest.raises(InputError, match=r"^a part has infinite weak diameter "
                                             r"\(spans components\)$"):
            projection_map(g, p)
        assert projection_map(g, p, c=2).c == 2  # an explicit parameter is taken as given

    def test_singleton_projection_is_isometric(self):
        g = G(cycle_data(5))
        m = projection_map(g, Partition({v: {v} for v in g.vertices}))
        assert m.c == 1
        assert check_qi(m).ok


class TestPartqiTight:
    def test_path_split_in_half(self):
        g = G(path_data(4))
        p = Partition({"left": ["p0", "p1"], "right": ["p2", "p3"]})
        report = check_partqi_tight(g, p)
        assert report.ok
        assert report.c == 1
        assert report.worst_lower_margin == -0.5
        assert report.worst_upper_margin == 0

    def test_singletons_are_exact(self):
        g = G(cycle_data(6))
        report = check_partqi_tight(g, Partition({v: {v} for v in g.vertices}))
        assert report.ok
        assert report.c == 0
        assert report.worst_upper_margin == 0

    def test_part_spanning_components_rejected(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(InputError, match="infinite weak diameter"):
            check_partqi_tight(g, Partition({"all": ["a", "b"]}))

    @pytest.mark.parametrize("parts, message", [
        ({"ab": ["a", "b"], "cz": ["c", "z"]}, "unknown vertex 'z'"),
        ({"abc": ["a", "b", "c"]}, "a part has infinite weak diameter (spans components)"),
        ({"ab": ["a", "b"], "c": ["c"]}, "partition does not cover exactly the graph's vertices"),
    ], ids=["foreign vertex", "missed vertex and a split part", "missed vertex"])
    def test_errors_name_the_parts_before_the_cover(self, parts, message):
        # D is measured on the parts, in projection_map's order, before the
        # quotient checks that they cover g: a foreign vertex or a part that
        # spans components is named first, in both modes
        g = Graph(["a", "b", "c", "d"], [("a", "b")])
        for check in (check_partqi_tight, quasiiso._verify_projection, projection_map):
            with pytest.raises(InputError) as exc:
                check(g, Partition(parts))
            assert str(exc.value) == message, check

    def test_json_shape(self):
        g = G(path_data(4))
        p = Partition({"left": ["p0", "p1"], "right": ["p2", "p3"]})
        obj = check_partqi_tight(g, p).to_json_dict()
        assert obj["ok"] is True
        assert obj["lower"]["worst_margin"] == -0.5
        json.dumps(obj)


class TestDecompositionProjections:
    def test_decomposed_partitions_are_three_qis(self):
        rng = random.Random(41)
        for _ in range(12):
            e = random_strict_expr(rng, palette=4, max_leaves=12)
            g = evaluate(e)
            result = decompose(e)
            m = projection_map(g.graph, result.partition)
            # dominated parts have weak diameter at most two
            assert m.c <= 3
            assert check_qi(m.with_c(3)).ok
            assert check_partqi_tight(g.graph, result.partition).ok


class TestInterop:
    def test_round_trip(self):
        g = G(path_data(3))
        m = projection_map(g, Partition({"left": ["p0", "p1"],
                                         "right": ["p2"]}))
        obj = json.loads(json.dumps({"f": {"p0": "left", "p1": "left", "p2": "right"},
                                     "c": m.c}))
        again = qimap_from_json_dict(obj, m.source, m.target)
        assert again == m

    def test_integer_vertex_ids_survive(self):
        g = Graph([0, 1], [(0, 1)])
        m = identity_map(g, c=2)
        obj = json.loads(json.dumps({"f": {"0": 0, "1": 1}, "c": 2}))
        again = qimap_from_json_dict(obj, g, g)
        assert again == m
        assert set(again.mapping) == {0, 1}

    def test_malformed_rejected(self):
        g = G(path_data(2))
        with pytest.raises(InputError, match="malformed"):
            qimap_from_json_dict({"c": 1}, g, g)
        with pytest.raises(InputError, match="not a source vertex"):
            qimap_from_json_dict({"f": {"zz": "p0"}, "c": 1}, g, g)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_parameter_rejected(self, flag):
        # float() reads true as 1.0 and false as 0.0; JSON booleans are no numbers
        g = G(path_data(2))
        with pytest.raises(InputError, match="^malformed quasi-isometry map object: "
                                             "c must be a number"):
            qimap_from_json_dict({"f": {"p0": "p0", "p1": "p1"}, "c": flag}, g, g)
        with pytest.raises(InputError, match="^malformed quasi-isometry map object: "
                                             "c must be a number, not '2'$"):
            qimap_from_json_dict({"f": {"p0": "p0", "p1": "p1"}, "c": "2"}, g, g)


def as_json(obj) -> str:
    """JSON text, so an int and the equal float still differ."""
    return json.dumps(obj, sort_keys=True)


def graph_data(g):
    return list(g.vertices), list(g.edges)


class TestAgainstNaiveOracles:
    """Both checks, byte for byte against the Floyd-Warshall oracles in helpers.py."""

    C_VALUES = (None, 0.5, 1, 2, 3)

    def assert_qi_agrees(self, m):
        for c in self.C_VALUES:
            mc = m if c is None else m.with_c(c)
            want = naive_check_qi(graph_data(mc.source), graph_data(mc.target),
                                  mc.mapping, mc.c)
            assert as_json(check_qi(mc).to_json_dict()) == as_json(want)

    def assert_tight_agrees(self, g, p):
        want = naive_check_partqi_tight(g.vertices, g.edges, p.as_dict())
        if want is None:
            with pytest.raises(InputError, match="infinite weak diameter"):
                check_partqi_tight(g, p)
        else:
            assert as_json(check_partqi_tight(g, p).to_json_dict()) == as_json(want)

    def test_corpus_and_generator_projections(self):
        sweeps = list(path_cases()) + list(spider_cases()) + list(clique_cases())
        exprs = (generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)[::10]
                 + [case[1] for case in sweeps][::2])
        for e in exprs:
            g, result = evaluate(e).graph, decompose(e)
            self.assert_qi_agrees(projection_map(g, result.partition))
            self.assert_tight_agrees(g, result.partition)

    def test_random_maps(self):
        rng = random.Random(77)
        verdicts = set()
        for _ in range(300):
            src = Graph(*random_graph_data(rng, "s"))
            tgt = src if rng.random() < 0.3 else Graph(*random_graph_data(rng, "t"))
            f = {v: rng.choice(tgt.vertices) for v in src.vertices}
            m = QiMap(src, tgt, f, rng.choice((1, 2.0, 4)))
            self.assert_qi_agrees(m)
            verdicts.add(check_qi(m).bounds_ok)
        assert verdicts == {True, False}

    def test_random_partitions(self):
        rng = random.Random(78)
        for e in generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)[::13]:
            g = evaluate(e).graph
            for _ in range(3):
                p = Partition(random_groups(rng, g.vertices))
                self.assert_tight_agrees(g, p)
                self.assert_qi_agrees(projection_map(g, p, 1))

    def test_one_sided_disconnection_in_either_direction(self):
        joined, apart = Graph(["a", "b"], [("a", "b")]), Graph(["a", "b"], [])
        for src, tgt in ((joined, apart), (apart, joined)):
            m = QiMap(src, tgt, {"a": "a", "b": "b"}, 2)
            want = naive_check_qi(graph_data(src), graph_data(tgt), m.mapping, 2)
            assert as_json(check_qi(m).to_json_dict()) == as_json(want)
            assert check_qi(m).bounds_witness == ("a", "b", "one side disconnected, the other not")

    def test_one_sided_disconnection_breaks_the_bound_the_infinity_breaks(self):
        # check_partqi_tight cannot meet this case, so _window is asked directly
        joined, apart = Graph(["a", "b"], [("a", "b")]), Graph(["a", "b"], [])
        bad = ("a", "b", "one side disconnected, the other not")
        lo, = quasiiso._window(QiMap(apart, joined, {"a": "a", "b": "b"}, 2), (3, 1, 1, 0))
        up, = quasiiso._window(QiMap(joined, apart, {"a": "a", "b": "b"}, 2), (3, 1, 1, 0))
        inf = float("inf")
        assert lo == (-inf, -inf, bad, None, bad)
        assert up == (-inf, -inf, None, bad, bad)


def disjoint_union(*datas):
    vertices, edges = [], []
    for vs, es in datas:
        vertices += vs
        edges += es
    return vertices, edges


def fibre_width(m):
    """The largest weak diameter of a fibre, from Floyd-Warshall (INFINITE if unbounded)."""
    dist = floyd_warshall(sorted(m.source.vertices), m.source.edges)
    return max(dist[a].get(b, INFINITE) for a in m.source.vertices
               for b in m.source.vertices if m(a) == m(b))


class TestWindowAgainstNaiveOracles:
    """The row fold at the edges of the float range, on disconnected graphs."""

    C_VALUES = (1e-308, 5e-324, 0.5, 1e308)

    def cases(self):
        rng = random.Random(707)
        two = disjoint_union(path_data(4, "a"), cycle_data(5, "b"))
        g = Graph(*two)
        yield "identity on two components", QiMap(g, g, {v: v for v in g.vertices}, 1)
        one = Graph(*path_data(9, "q"))
        yield "two components onto one", QiMap(g, one, dict(zip(g.vertices, one.vertices)), 1)
        q, proj = quotient(g, Partition({"a": {"a0", "a1"}, "a'": {"a2", "a3"},
                                         "b": {"b0", "b1", "b2"}, "b'": {"b3", "b4"}}))
        yield "projection of two components", QiMap(g, q, proj, 1)
        gz = Graph(*disjoint_union(path_data(3, "a"), (["z"], [])))
        yield "isolated vertex", QiMap(gz, gz, {v: v for v in gz.vertices}, 1)
        # Only the last pair, (y, z), is at distance 3 in the source and 1 in the target.
        src = Graph(["a", "b", "y", "z"], [("a", "y"), ("a", "b"), ("b", "z")])
        tgt = Graph(["a", "b", "y", "z"], [("a", "y"), ("a", "b"), ("b", "z"), ("y", "z")])
        yield "violation in the last row", QiMap(src, tgt, {v: v for v in "abyz"}, 1)
        for k in range(40):
            src = Graph(*disjoint_union(random_graph_data(rng, "s"), random_graph_data(rng, "u")))
            tgt = src if k % 3 == 0 else Graph(*random_graph_data(rng, "t"))
            f = {v: rng.choice(tgt.vertices) for v in src.vertices}
            yield f"random {k}", QiMap(src, tgt, f, 1)

    def test_check_qi_matches_floyd_warshall(self):
        seen = set()
        for name, m in self.cases():
            width = fibre_width(m)
            for c in self.C_VALUES + tuple(d for d in (width, width + 1) if 0 < d < INFINITE):
                mc = m.with_c(c)
                got = check_qi(mc).to_json_dict()
                want = naive_check_qi(graph_data(m.source), graph_data(m.target), m.mapping, mc.c)
                assert as_json(got) == as_json(want), (name, c)
                bounds = want["distance_bounds"]
                seen.add(bounds["worst_lower_margin"] is None and bounds["ok"] is False)
                if name == "violation in the last row" and c == 1:
                    assert bounds["witness"][:2] == ["y", "z"]
        assert seen == {True, False}

    def test_a_one_sided_disconnection_is_caught_when_c_times_r_overflows(self):
        # r' - c*r - c is inf - inf, NaN, for (p0, p2) at c = 1e308
        src, tgt = Graph(*path_data(3)), Graph(["p0", "p1", "p2"], [("p0", "p1")])
        m = QiMap(src, tgt, {v: v for v in src.vertices}, 1e308)
        want = naive_check_qi(graph_data(src), graph_data(tgt), m.mapping, m.c)
        assert as_json(check_qi(m).to_json_dict()) == as_json(want)
        assert check_qi(m).bounds_witness == ("p0", "p2", "one side disconnected, the other not")

    def test_check_partqi_tight_matches_floyd_warshall_on_two_components(self):
        rng = random.Random(708)
        for _ in range(60):
            a, b = random_graph_data(rng, "a"), random_graph_data(rng, "b")
            g = Graph(*disjoint_union(a, b))
            parts = {("a", k): ms for k, ms in random_groups(rng, a[0]).items()}
            parts |= {("b", k): ms for k, ms in random_groups(rng, b[0]).items()}
            want = naive_check_partqi_tight(g.vertices, g.edges, parts)
            if want is None:
                with pytest.raises(InputError, match="infinite weak diameter"):
                    check_partqi_tight(g, Partition(parts))
            else:
                got = check_partqi_tight(g, Partition(parts)).to_json_dict()
                assert as_json(got) == as_json(want)


class TestBfsCount:
    def test_one_row_per_source_vertex_and_image_vertex_plus_one(self, monkeypatch):
        calls = []
        real = quasiiso._distance_row

        def counting(g, sources):
            calls.append(g)
            return real(g, sources)

        monkeypatch.setattr(quasiiso, "_distance_row", counting)
        src, tgt = G(path_data(8)), G(path_data(12, "q"))
        m = QiMap(src, tgt, {v: f"q{i // 3}" for i, v in enumerate(src.vertices)}, 3)
        check_qi(m)
        image = set(m.mapping.values())
        assert sum(g is src for g in calls) == len(src)
        assert sum(g is tgt for g in calls) == len(image) + 1  # one row each, one density BFS


def test_projection_map_explores_linearly_on_paths(monkeypatch):
    """Per-part weak diameters stay local: BFS work, full label lists included."""
    cost = []
    real = graphs._walk

    def walk(adj, layer, dist):
        if isinstance(dist, list):
            cost.append(len(dist))
        for d, reached in real(adj, layer, dist):
            cost.append(len(reached))
            yield d, reached

    counts = []
    for length in (1000, 2000):
        e = gen_path("x", "y", length, 3, 1, 2, 1)
        cases = [(evaluate(e).graph, decompose(e).partition)]  # singleton parts
        vs, es = path_data(length)
        cases.append((Graph(vs, es), Partition({i: vs[i:i + 3] for i in range(0, length, 3)})))
        monkeypatch.setattr(graphs, "_walk", walk)
        for g, p in cases:
            projection_map(g, p)
        monkeypatch.setattr(graphs, "_walk", real)
        counts.append(sum(cost))
        cost.clear()
    assert counts[1] < 2.5 * counts[0], counts  # an n-long list per part grows 4x


def projection_mutants(rng, g, p):
    """(name, breaks a premise, map) for the projection of g onto p and its mutants.

    The mutants: a vertex sent to another part, a dropped quotient edge, an
    extra target edge, an unhit target vertex with an edge and without one,
    two parts 3 apart merged, and a part split across two components (g next
    to a primed copy of itself).
    A moved vertex may or may not break a premise; a merge breaks none.
    """
    q, proj = quotient(g, p)
    out = [("projection", False, (g, q, proj))]
    if len(q) > 1:
        moved = dict(proj)
        v = rng.choice(g.vertices)
        moved[v] = rng.choice([w for w in q.vertices if w != proj[v]])
        out.append(("moved vertex", None, (g, q, moved)))
    if q.edges:
        dropped = rng.choice(q.edges)
        out.append(("dropped edge", True,
                    (g, Graph(q.vertices, [e for e in q.edges if e != dropped]), proj)))
    missing = [(a, b) for i, a in enumerate(q.vertices) for b in q.vertices[i + 1:]
               if not q.has_edge(a, b)]
    if missing:
        out.append(("extra edge", True,
                    (g, Graph(q.vertices, q.edges + (rng.choice(missing),)), proj)))
    hub = rng.choice(q.vertices)
    out.append(("unhit vertex", True,
                (g, Graph(q.vertices + ("~unhit",), q.edges + ((hub, "~unhit"),)), proj)))
    out.append(("isolated unhit vertex", True, (g, Graph(q.vertices + ("~unhit",), q.edges), proj)))
    far = [(a, b) for i, (a, pa) in enumerate(p) for b, pb in p.items()[i + 1:]
           if set_distance(g, pa, pb) == 3]
    if far:
        a, b = rng.choice(far)
        merged = {pid: members for pid, members in p if pid != b}
        merged[a] = p.part(a) | p.part(b)
        out.append(("merged 3 apart", False, projection_map(g, Partition(merged), 1)))
    if len(g) <= 16:
        primed = Graph(g.vertices + tuple(f"{v}'" for v in g.vertices),
                       g.edges + tuple((f"{u}'", f"{v}'") for u, v in g.edges))
        parts = dict(p.items()) | {f"{pid}'": {f"{v}'" for v in members} for pid, members in p}
        first = p.ids[0]
        parts[first] = parts[first] | parts.pop(f"{first}'")
        out.append(("split part", True, projection_map(primed, Partition(parts), 1)))
    return [(name, breaks, m if isinstance(m, QiMap) else QiMap(*m, 1)) for name, breaks, m in out]


class TestProjectionCertificate:
    """_lemma and _bounds_witness against the Floyd-Warshall oracles in helpers.py."""

    def certify(self, monkeypatch, m):
        """_bounds_witness(m) and how many window scans it ran."""
        scans = []
        real = quasiiso._window
        monkeypatch.setattr(quasiiso, "_window", lambda *a: scans.append(a) or real(*a))
        witness = quasiiso._bounds_witness(m)
        monkeypatch.setattr(quasiiso, "_window", real)
        return witness, len(scans)

    def test_certificate_builds_its_map_once(self, monkeypatch):
        # at its final c: a map built at c = 1 and then copied was validated twice
        e = gen_path("x", "y", 30, 3, 1, 2, 1)
        g, p = evaluate(e).graph, decompose(e).partition
        built, real = [], QiMap.__init__
        monkeypatch.setattr(QiMap, "__init__", lambda m, source, target, mapping, c:
                            built.append(c) or real(m, source, target, mapping, c))
        tight, _, certificate = quasiiso._verify_projection(g, p)
        assert certificate["applied"] and built == [tight.c + 1]
        built.clear()
        quasiiso._verify_projection(g, p, 2.5)
        assert built == [2.5]

    def test_agrees_with_the_pair_scan_on_projections_and_mutants(self, monkeypatch):
        rng = random.Random(606)
        sweeps = list(path_cases()) + list(spider_cases()) + list(clique_cases())
        exprs = (generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)[::20]
                 + [case[1] for case in sweeps][::6])
        seen, certified = set(), 0
        for e in exprs:
            g, result = evaluate(e).graph, decompose(e)
            for name, breaks, m in projection_mutants(rng, g, result.partition):
                source, target = graph_data(m.source), graph_data(m.target)
                width = naive_fibre_width(source, target, m.mapping)
                if breaks is not None:
                    assert (width is None) == breaks, name
                lemma = quasiiso._lemma(m.source, m.target, m.mapping, m.c)
                got = lemma["D"] if lemma["onto"] and lemma["crossing_edges_exact"] else INFINITE
                assert got == (INFINITE if width is None else width), name
                seen.add((name, width is None))
                if width is not None and name != "merged 3 apart":
                    assert width <= 2
                if width is not None:  # the lemma's tight bounds hold at c = D
                    fibres = {w: {v for v in m.source.vertices if m(v) == w}
                              for w in m.target.vertices}
                    tight = naive_check_partqi_tight(*source, fibres)
                    assert tight["ok"] and tight["c"] == width, name
                d = 0 if width is None else width
                for c in sorted({0.5, 1, d, d + 1, d + 2} - {0}):
                    mc = m.with_c(c)
                    want = naive_check_qi(source, target, mc.mapping, c)
                    witness, scans = self.certify(monkeypatch, mc)
                    assert (list(witness) if witness else None) == \
                        want["distance_bounds"]["witness"], (name, c)
                    if width is not None and c >= width + 1:
                        assert scans == 0 and want["ok"], (name, c)
                        certified += 1
                    else:
                        assert scans == 1, (name, c)  # the fallback is the exact scan
        assert certified > 50
        assert {("projection", False), ("dropped edge", True), ("extra edge", True),
                ("unhit vertex", True), ("isolated unhit vertex", True),
                ("merged 3 apart", False), ("split part", True),
                ("moved vertex", True), ("moved vertex", False)} <= seen

    def test_identity_maps_are_certified_at_every_c_from_one(self, monkeypatch):
        g = Graph(*cycle_data(7))
        for c in (1, 1.5, 3):
            assert self.certify(monkeypatch, identity_map(g, c)) == (None, 0)
        want = naive_check_qi(graph_data(g), graph_data(g), identity_map(g).mapping, 0.5)
        witness, scans = self.certify(monkeypatch, identity_map(g, 0.5))
        assert (list(witness), scans) == (want["distance_bounds"]["witness"], 1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from((0.5, 1, 1.5, 2, 3)),
           st.sampled_from((0.25, 1, 2.5)))
    def test_passing_at_c_passes_at_every_larger_c(self, seed, c, more):
        rng = random.Random(seed)
        src = Graph(*random_graph_data(rng, "s"))
        if rng.random() < 0.5:
            q, f = quotient(src, Partition(random_groups(rng, src.vertices)))
            tgt = q
        else:
            tgt = Graph(*random_graph_data(rng, "t"))
            f = {v: rng.choice(tgt.vertices) for v in src.vertices}
        low = naive_check_qi(graph_data(src), graph_data(tgt), f, c)
        high = naive_check_qi(graph_data(src), graph_data(tgt), f, c + more)
        assert check_qi(QiMap(src, tgt, f, c)).ok == low["ok"]
        assert check_qi(QiMap(src, tgt, f, c + more)).ok == high["ok"]
        assert not low["ok"] or high["ok"]

    def test_certified_reports_match_the_scan_on_random_partitions(self, monkeypatch):
        """_verify_projection's certified reports against its scan, one-part partitions too."""
        rng = random.Random(707)
        cases = set()
        for _ in range(300):
            g = Graph(*random_graph_data(rng, "s"))
            groups = random_groups(rng, g.vertices) if rng.random() < 0.7 else {0: g.vertices}
            qi_c = rng.choice((None, 0.5, 1, 2, 3.0, 1e308))
            try:
                want_tight, want_qi, _ = quasiiso._verify_projection(g, Partition(groups), qi_c,
                                                                     exhaustive=True)
            except InputError as exc:
                with pytest.raises(InputError) as got:
                    quasiiso._verify_projection(g, Partition(groups), qi_c)
                assert str(got.value) == str(exc)
                continue
            scans = []
            real = quasiiso._window
            monkeypatch.setattr(quasiiso, "_window", lambda *a: scans.append(a) or real(*a))
            tight, qi, certificate = quasiiso._verify_projection(g, Partition(groups), qi_c)
            monkeypatch.setattr(quasiiso, "_window", real)
            d = want_tight.c
            assert certificate == {"D": d, "onto": True, "crossing_edges_exact": True,
                                   "c_at_least_D_plus_1": qi.c >= d + 1,
                                   "applied": qi.c >= d + 1}
            if not certificate["applied"]:
                assert (tight, qi, len(scans)) == (want_tight, want_qi, 1)
                continue
            assert scans == []
            got, want = qi.to_json_dict(), want_qi.to_json_dict()
            bound = got["distance_bounds"].pop("lower_margin_bound")
            worst = want["distance_bounds"].pop("worst_lower_margin")
            assert got == want and (worst is None or worst <= bound)
            got, want = tight.to_json_dict(), want_tight.to_json_dict()
            assert got["lower"].pop("margin_bound") == -1 / (d + 1)
            want["lower"].pop("worst_margin")
            assert got == want
            q = quotient(g, Partition(groups))[0]
            cases.add("target edge" if q.edges else "part edge" if g.edges else "no edge")
        assert cases == {"target edge", "part edge", "no edge"}
