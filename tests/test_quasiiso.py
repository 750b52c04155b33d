"""Quasi-isometry checks, projection maps, tight partition bounds."""

import json
import random

import pytest

from cwkit import (Graph, InputError, Partition, QiMap, check_partqi_tight,
                   check_qi, decompose, evaluate, projection_map,
                   qimap_from_json_dict, qimap_to_json_dict,
                   random_strict_expr, singleton_partition)

from helpers import cycle_data, path_data


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
            qimap_from_json_dict({"f": {"p0": "p0", "p1": "p1"}, "c": "nan"}, g, g)

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

    def test_singleton_projection_is_isometric(self):
        g = G(cycle_data(5))
        m = projection_map(g, singleton_partition(g))
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
        report = check_partqi_tight(g, singleton_partition(g))
        assert report.ok
        assert report.c == 0
        assert report.worst_upper_margin == 0

    def test_part_spanning_components_rejected(self):
        g = Graph(["a", "b"], [])
        with pytest.raises(InputError, match="infinite weak diameter"):
            check_partqi_tight(g, Partition({"all": ["a", "b"]}))

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
        obj = json.loads(json.dumps(qimap_to_json_dict(m)))
        again = qimap_from_json_dict(obj, m.source, m.target)
        assert again == m

    def test_integer_vertex_ids_survive(self):
        g = Graph([0, 1], [(0, 1)])
        m = identity_map(g, c=2)
        obj = json.loads(json.dumps(qimap_to_json_dict(m)))
        again = qimap_from_json_dict(obj, g, g)
        assert again == m
        assert set(again.mapping) == {0, 1}

    def test_malformed_rejected(self):
        g = G(path_data(2))
        with pytest.raises(InputError, match="malformed"):
            qimap_from_json_dict({"c": 1}, g, g)
        with pytest.raises(InputError, match="not a source vertex"):
            qimap_from_json_dict({"f": {"zz": "p0"}, "c": 1}, g, g)
