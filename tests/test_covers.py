"""Scaled cover validation and the pullback along an embedding."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cwkit import (INFINITE, CoverFamily, Graph, InputError, QiMap, cover_by_components,
                   cover_from_json_dict, cover_to_json_dict, graphs, pullback_cover,
                   validate_cover)

from helpers import floyd_warshall, naive_weak_diameter, pair_scan_cover_separation, path_data


def G(data):
    return Graph(*data)


def identity_qi(g, c=1.0):
    return QiMap(g, g, {v: v for v in g.vertices}, c)


def three_points():
    return Graph(["a", "b", "c"], [])


class TestCoverFamily:
    def test_canonicalization(self):
        cf = CoverFamily(([["b", "a"], ["c"]],), 1, 4)
        assert cf.collections == (((frozenset({"a", "b"}), frozenset({"c"}))),)
        assert cf.n == 0
        assert sorted(sorted(s) for s in cf.all_sets()) == [["a", "b"], ["c"]]

    def test_counts_extra_collections(self):
        cf = CoverFamily(([["a"]], [["b"]], [["c"]]), 2, 0)
        assert cf.n == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError, match="nonempty"):
            CoverFamily(([[]],), 1, 0)
        with pytest.raises(InputError, match="scale"):
            CoverFamily(([["a"]],), -1, 0)

    def test_rejects_a_negative_bound(self):
        # no set meets a negative bound, and pullback_cover would silently raise it
        # to its least slope times c*r + c
        with pytest.raises(InputError) as info:
            CoverFamily(([["a", "b"]],), 1, -5)
        assert str(info.value) == "cover diameter bound must be >= 0, got -5"
        with pytest.raises(InputError, match="diameter bound must be >= 0"):
            cover_from_json_dict({"collections": [[["a"]]], "r": 1, "bound": -0.5})

    def test_rejects_nan_scale_and_bound(self):
        nan = float("nan")
        with pytest.raises(InputError, match="scale must be a number"):
            CoverFamily(([["a"], ["b"]],), nan, 0)
        with pytest.raises(InputError, match="diameter bound must be a number"):
            CoverFamily(([["a"]],), 1, nan)
        with pytest.raises(InputError, match="NaN"):
            cover_from_json_dict(json.loads('{"collections": [[["a"]]], "r": NaN, "bound": 0}'))

    def test_infinite_scale_and_bound_still_allowed(self):
        cf = cover_from_json_dict({"collections": [[["a"]]], "r": "infinite",
                                   "bound": "infinite"})
        assert cf.r == INFINITE and cf.diameter_bound == INFINITE


class TestValidateCover:
    def test_separated_singletons_pass(self):
        g = G(path_data(2))
        cf = CoverFamily((({"p0"}, {"p1"}),), 0.5, 0)
        report = validate_cover(g, cf)
        assert report.ok

    def test_adjacent_sets_fail_at_scale_one(self):
        g = G(path_data(2))
        cf = CoverFamily((({"p0"}, {"p1"}),), 1, 0)
        report = validate_cover(g, cf)
        bad = report.check("separation")
        assert not bad.ok
        assert "distance 1 <= scale 1" in bad.witness
        assert report.check("coverage").ok

    def test_uncovered_vertex_reported(self):
        g = G(path_data(2))
        report = validate_cover(g, CoverFamily((({"p0"},),), 0.5, 0))
        bad = report.check("coverage")
        assert not bad.ok
        assert "p1" in bad.witness

    def test_overlap_reported(self):
        g = G(path_data(3))
        cf = CoverFamily((({"p0", "p1"}, {"p1", "p2"}),), 0, 2)
        bad = validate_cover(g, cf).check("separation")
        assert not bad.ok
        assert "overlapping" in bad.witness

    def test_weak_diameter_bound(self):
        g = G(path_data(3))
        cf = CoverFamily((({"p0", "p2"},), ({"p1"},)), 1, 1)
        bad = validate_cover(g, cf).check("diameter")
        assert not bad.ok
        assert "weak diameter 2 > bound 1" in bad.witness

    @pytest.mark.parametrize("members, bound, searches", [
        (("p0", "p1", "p2", "p3", "p4"), 8, 1),  # every vertex: 2e = 8 from p0
        (("p0", "p2", "p4"), 8, 1),
        (("p0", "p1", "p2", "p3", "p4"), 5, None),  # 2e = 8 > 5 >= the diameter 4
        (("p0", "p2", "p4"), 4, None),
        (("p2",), 0, 1)])
    def test_twice_the_least_members_eccentricity_passes_a_set(self, monkeypatch, members,
                                                               bound, searches):
        # a set passes by one search from its least member when twice that member's
        # eccentricity in the set is within the bound; otherwise it is measured exactly
        runs, real = [], graphs._walk
        monkeypatch.setattr(graphs, "_walk", lambda *a: runs.append(a) or real(*a))
        g = G(path_data(5))
        assert validate_cover(g, CoverFamily(((set(members),),), 1, bound)).check("diameter").ok
        assert len(runs) == searches if searches is not None else len(runs) > 1

    @pytest.mark.parametrize("members, bound, d", [
        (("p0", "p1", "p2", "p3", "p4"), 3, 4),
        (("p0", "p1", "p2", "p3", "p4"), 0, 4),
        (("p1", "p3"), 1, 2),
        (("p3", "p4"), 0, 1)])
    def test_a_set_over_the_bound_names_its_exact_weak_diameter(self, members, bound, d):
        g = G(path_data(5))
        bad = validate_cover(g, CoverFamily(((set(members),),), 1, bound)).check("diameter")
        assert bad.witness == (f"collection 0: set of size {len(members)} has weak "
                               f"diameter {d} > bound {bound}")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 12), st.sampled_from((0.1, 0.25, 0.5)),
           st.sampled_from((0, 0.5, 1, 2, 2.5, 3, 4, 6, INFINITE)))
    def test_diameter_matches_floyd_warshall(self, seed, n, density, bound):
        # the first set, in the family's order, whose weak diameter exceeds the bound
        # is named with that diameter, disconnected and whole-graph sets included
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < density]
        sets = [rng.sample(vs, rng.randint(1, n)) for _ in range(rng.randint(1, 4))] + [vs]
        cf = CoverFamily([sets[i::2] for i in range(2)], 0, bound)
        got = validate_cover(Graph(vs, es), cf).check("diameter")
        want = next((f"collection {idx}: set of size {len(s)} has weak diameter {d} > "
                     f"bound {bound}" for idx, coll in enumerate(cf.collections) for s in coll
                     if (d := naive_weak_diameter(vs, es, s)) > bound), None)
        assert (got.ok, got.witness) == (want is None, want)

    def test_collections_do_not_constrain_each_other(self):
        g = G(path_data(2))
        cf = CoverFamily((({"p0"},), ({"p1"},)), 5, 0)
        assert validate_cover(g, cf).ok

    @pytest.mark.parametrize("coll, witness", [
        ([{"p0"}, {"p2"}, {"p3"}], "collection 0: sets at distance 1 <= scale 2"),
        ([{"p0"}, {"p2"}, {"p2", "p3"}], "collection 0 has overlapping sets"),
    ], ids=["nearer-pair", "overlap"])
    def test_separation_names_the_least_distance(self, coll, witness):
        # the first pair in order, p0 and p2, is at distance 2; the closest are nearer
        got = validate_cover(G(path_data(6)), CoverFamily((coll,), 2, INFINITE))
        assert got.check("separation").witness == witness

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InputError, match="unknown vertex"):
            validate_cover(G(path_data(2)), CoverFamily((({"zz"},),), 1, 0))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14), st.sampled_from((0.05, 0.2, 0.5)),
           st.sampled_from((0, 0.5, 1, 2, 2.5, 4, INFINITE)))
    def test_separation_matches_the_pair_scan(self, seed, n, density, r):
        # overlapping, one-vertex and disconnected sets; an infinite scale takes
        # every pair, disconnected ones too
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < density]
        cf = CoverFamily([[rng.sample(vs, rng.randint(1, min(n, 3)))
                           for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 3))],
                         r, INFINITE)
        got = validate_cover(Graph(vs, es), cf).check("separation")
        assert got.witness == pair_scan_cover_separation(vs, es, cf.collections, r)
        assert got.ok == (got.witness is None)


class TestCoverByComponents:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14), st.sampled_from((0.05, 0.15, 0.4)))
    def test_components_are_infinitely_separated(self, seed, n, density):
        # sparse draws leave several components, one-vertex ones among them; each is
        # bounded by twice its least member's eccentricity, at most twice its weak diameter
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(n)]
        es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < density]
        g, dist = Graph(vs, es), floyd_warshall(vs, es)
        comps = {frozenset(dist[v]) for v in vs}
        cf = cover_by_components(g, 100)
        assert cf.n == 0 and cf.r == 100
        assert sorted(map(sorted, cf.all_sets())) == sorted(map(sorted, comps))
        exact = max(naive_weak_diameter(vs, es, comp) for comp in comps)
        assert cf.diameter_bound == max(2 * max(dist[min(comp)].values()) for comp in comps)
        assert exact <= cf.diameter_bound <= 2 * exact
        assert validate_cover(g, cf).ok

    def test_connected_graph_gives_one_set(self):
        # the path's least member is an end, of eccentricity 3: twice the exact weak diameter
        vs, es = path_data(4)
        cf = cover_by_components(Graph(vs, es), 2)
        assert [sorted(s) for s in cf.all_sets()] == [["p0", "p1", "p2", "p3"]]
        assert cf.diameter_bound == 2 * max(floyd_warshall(vs, es)["p0"].values()) == 6
        assert cf.diameter_bound == 2 * naive_weak_diameter(vs, es, vs)


class TestPullback:
    def test_identity_on_scattered_points(self):
        g = three_points()
        cover = cover_by_components(g, 0)
        pulled = pullback_cover(identity_qi(g), cover, 5)
        assert pulled.r == 5
        # c = slope = 1 makes the claimed bound 2r + r
        assert pulled.diameter_bound == 15
        assert pulled.collections == CoverFamily(cover.collections, 5, 15).collections

    def test_pullback_along_a_two_qi(self):
        g = G(path_data(12))
        f = identity_qi(g, c=2.0)
        cover = CoverFamily(
            (({"p0", "p1", "p2"}, {"p9", "p10", "p11"}),
             ({"p3", "p4", "p5", "p6", "p7", "p8"},)),
            1, 8)
        pulled = pullback_cover(f, cover, 1)
        # at r = 1 the claimed bound c*slope*(2c) + c^2 meets the tight one
        assert pulled.diameter_bound == 20
        assert pulled.n == 1
        assert validate_cover(g, CoverFamily(pulled.collections, 1, 20)).ok

    def test_empty_preimages_dropped(self):
        target = Graph(["a", "b"], [])
        source = Graph(["x"], [])
        f = QiMap(source, target, {"x": "a"}, 1.0)
        # target needs full coverage, so b gets its own set; its preimage
        # vanishes rather than appearing empty
        cover = CoverFamily((({"a"}, {"b"}),), 1, 0)
        pulled = pullback_cover(f, cover, 1)
        assert [sorted(s) for s in pulled.all_sets()] == [["x"]]

    def test_scale_must_be_at_least_one(self):
        g = three_points()
        with pytest.raises(InputError, match=">= 1"):
            pullback_cover(identity_qi(g), cover_by_components(g, 0), 0.5)

    def test_scale_must_be_finite(self):
        g = three_points()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="finite"):
                pullback_cover(identity_qi(g), cover_by_components(g, 0), bad)

    def test_an_infinite_target_scale_is_refused(self):
        # r is finite, but c*r + c is not: no cover at an infinite bound comes back
        g = three_points()
        with pytest.raises(InputError) as info:
            pullback_cover(identity_qi(g, c=3.0), cover_by_components(g, 0), 8e307)
        assert str(info.value) == "target scale c*r + c must be finite, got inf at c=3.0"

    def test_target_cover_hypotheses_enforced(self):
        g = G(path_data(4))
        f = identity_qi(g)
        missing = CoverFamily((({"p0", "p1", "p2"},),), 1, 10)
        with pytest.raises(InputError, match="coverage"):
            pullback_cover(f, missing, 1)
        # separation is re-checked at the inflated scale c*r + c = 2
        close = CoverFamily((({"p0"}, {"p2"}, {"p3"}), ({"p1"},)), 1, 10)
        with pytest.raises(InputError, match="separation"):
            pullback_cover(f, close, 1)

    def test_map_bounds_enforced(self):
        g = G(path_data(4))
        collapse = QiMap(g, g, {v: "p0" for v in g.vertices}, 1.0)
        with pytest.raises(InputError, match="distance bounds"):
            pullback_cover(collapse, cover_by_components(g, 1), 1)

    @pytest.mark.parametrize("bound", [INFINITE, 10 ** 400], ids=["infinite", "400-digit"])
    def test_a_bound_that_is_no_finite_float_is_refused(self, bound):
        # the slope is derived from the cover's bound, and a float slope needs a float bound
        g = three_points()
        cover = CoverFamily((({"a"}, {"b"}, {"c"}),), 0, bound)
        with pytest.raises(InputError) as info:
            pullback_cover(identity_qi(g), cover, 1)
        assert str(info.value) == f"target cover bound must be a finite float, got {bound}"

    def test_the_slope_follows_the_cover_bound(self):
        # bound 12 at c*r + c = 2 is slope 6, so the pulled bound is 6*2 + 1
        g = G(path_data(4))
        pulled = pullback_cover(identity_qi(g), CoverFamily((({"p0", "p1", "p2", "p3"},),),
                                                            1, 12), 1)
        assert pulled.diameter_bound == 13

    def test_an_infinite_pulled_bound_is_refused_before_any_search(self, monkeypatch):
        # c*r + c = 1.6e308 is finite, c*slope*(2*c*r) + c*c*r is not
        g = three_points()
        cover = cover_by_components(g, 0)
        monkeypatch.setattr(graphs, "_walk", lambda *args: pytest.fail("searched"))
        with pytest.raises(InputError) as info:
            pullback_cover(identity_qi(g), cover, 8e307)
        assert str(info.value) == ("pulled bound c*slope*(2*c*r) + c*c*r must be finite, "
                                   "got inf at c=1.0")


class TestInterop:
    def test_round_trip(self):
        cf = CoverFamily((({"a", "b"},), ({"c"},)), 2, 7)
        obj = json.loads(json.dumps(cover_to_json_dict(cf)))
        assert obj["n"] == 1
        assert obj["collections"][0] == [["a", "b"]]
        assert cover_from_json_dict(obj) == cf

    def test_infinite_bound_encoding(self):
        cf = CoverFamily((({"a"},),), 0, INFINITE)
        obj = cover_to_json_dict(cf)
        assert obj["bound"] == "infinite"
        assert cover_from_json_dict(obj).diameter_bound == INFINITE

    def test_malformed_rejected(self):
        with pytest.raises(InputError, match="malformed cover"):
            cover_from_json_dict({"r": 1})

    @pytest.mark.parametrize("text, message", [
        ('{"collections": [[[true, 1]]], "r": 1, "bound": 2}', "vertex id True is a bool"),
        ('{"collections": [[[1, true]]], "r": 1, "bound": 2}', "vertex id True is a bool"),
        ('{"collections": [[[3.0]]], "r": 1, "bound": 2}', "vertex id 3.0 is a float"),
        ('{"collections": [[["a"]]], "r": true, "bound": 2}', "scale must be a number"),
        ('{"collections": [[["a"]]], "r": 1, "bound": true}', "bound must be a number"),
        ('{"collections": [[["a"]]], "r": 1, "bound": "2"}', "bound must be a number"),
        ('{"collections": [[["a"]]], "r": 1, "bound": null}', "bound must be a number"),
        ('{"collections": [[[null]]], "r": 1, "bound": 2}', "vertex id None is a NoneType"),
        ('{"collections": [["xy"]], "r": 1, "bound": 2}', "their sets must be lists"),
        ('{"collections": [[{"x": 1, "y": 2}]], "r": 1, "bound": 2}', "their sets must be lists"),
        ('{"collections": [{"xy": 1}], "r": 1, "bound": 2}', "their sets must be lists"),
        ('{"collections": ["xy"], "r": 1, "bound": 2}', "their sets must be lists"),
        ('{"collections": "xy", "r": 1, "bound": 2}', "their sets must be lists"),
        ('{"collections": [[["x"], 5]], "r": 1, "bound": 2}', "their sets must be lists")])
    def test_json_values_that_are_no_vertex_or_number_are_refused(self, text, message):
        # true and 3.0 would equal the vertices 1 and 3; "2" and null fail only in validate_cover;
        # a string or an object where a list belongs would read as its characters or keys
        with pytest.raises(InputError, match=message):
            cover_from_json_dict(json.loads(text))
