"""decompose() hand traces, determinism, and verify_result mutations."""

import json

import pytest

from cwkit import (ColoredGraph, ContractError, DecompositionResult, Graph, InputError,
                   Partition, TreeDecomposition, brute_treewidth, decompose, evaluate, gen_path,
                   gen_spider, gen_subdivided_clique, parse, quotient, random_strict_expr,
                   result_to_dot, result_to_json_dict, verify_result, width, write_cwx)
from cwkit.decomposition import _decompose, _decompose_cwx

import random

from helpers import naive_verify_result

K2_TEXT = """cw k=2
(join 1 2
  (union
    (v a 1)
    (v b 2)))
"""

# same graph plus a pendant: a joined to both b and c, b--c absent
THREE_TEXT = """cw k=2
(join 1 2
  (union
    (join 1 2
      (union
        (v a 1)
        (v b 2)))
    (v c 2)))
"""


def decomposed(text):
    e = parse(text)
    return evaluate(e), decompose(e)


class TestHandTraces:
    def test_single_edge(self):
        g, result = decomposed(K2_TEXT)
        assert result.partition == Partition({"a": ["a"], "b": ["b"]})
        assert result.part_colors == {"a": 1, "b": 2}
        td = result.tree
        assert list(td.tree.vertices) == [0, 1, 2]
        assert {frozenset(e) for e in td.tree.edges} == {frozenset({0, 2}),
                                                         frozenset({1, 2})}
        assert td.bags == {0: frozenset({"a"}), 1: frozenset({"b"}),
                           2: frozenset({"a", "b"})}
        assert result.rainbow_node == 2
        assert width(td) == 1
        assert verify_result(g, result).ok

    def test_merge_collapses_a_color_class(self):
        g, result = decomposed(THREE_TEXT)
        m = "merge(2,0)"
        assert result.partition == Partition({"a": ["a"], m: ["b", "c"]})
        assert result.part_colors == {"a": 1, m: 2}
        td = result.tree
        assert {frozenset(e) for e in td.tree.edges} == {
            frozenset({0, 2}), frozenset({1, 2}),
            frozenset({2, 4}), frozenset({3, 4})}
        assert td.bags == {0: frozenset({"a"}), 1: frozenset({m}),
                           2: frozenset({"a", m}), 3: frozenset({m}),
                           4: frozenset({"a", m})}
        assert result.rainbow_node == 4
        report = verify_result(g, result)
        assert report.ok
        # the merged part is dominated by the join partner
        q, _ = quotient(g.graph, result.partition)
        assert set(q.vertices) == {"a", m}
        assert q.num_edges() == 1

    def test_parallel_merges_count_up(self):
        text = """cw k=2
(join 1 2
  (union
    (union
      (v a 1)
      (v b 1))
    (union
      (v c 2)
      (v d 2))))
"""
        g, result = decomposed(text)
        assert set(result.partition.ids) == {"merge(1,0)", "merge(2,1)"}
        assert result.partition.part("merge(1,0)") == frozenset({"a", "b"})
        assert result.partition.part("merge(2,1)") == frozenset({"c", "d"})
        assert verify_result(g, result).ok

    def test_recolor_touches_colors_only(self):
        text = """cw k=2
(recolor 2 1
  (union
    (v a 1)
    (v b 2)))
"""
        _, result = decomposed(text)
        assert result.part_colors == {"a": 1, "b": 1}
        assert result.partition == Partition({"a": ["a"], "b": ["b"]})

    def test_deterministic_output(self):
        e = parse(THREE_TEXT)
        first = json.dumps(result_to_json_dict(decompose(e)), sort_keys=True)
        second = json.dumps(result_to_json_dict(decompose(e)), sort_keys=True)
        assert first == second


class TestNonStrictInputs:
    def reject(self, text, fragment):
        with pytest.raises(ContractError, match=fragment):
            decompose(parse(text))

    def test_duplicate_vertex(self):
        self.reject("cw k=1\n(union (v a 1) (v a 1))", "DUP_VERTEX")

    def test_join_without_new_edge(self):
        text = "cw k=2\n(join 1 2\n" + K2_TEXT.split("\n", 1)[1].rstrip() + ")"
        self.reject(text, "OP3_NO_NEW_EDGE")

    def test_unused_recolor_source(self):
        self.reject("cw k=3\n(recolor 3 1 (v a 1))", "OP2_I_UNUSED")

    @pytest.mark.parametrize("text", [
        "cw k=1\n(union (v a 1) (v a 1))", "cw k=3\n(recolor 3 1 (v a 1))",
        "cw k=2\n(join 1 2\n" + K2_TEXT.split("\n", 1)[1].rstrip() + ")"],
        ids=["duplicate id", "unused recolor source", "join without a new edge"])
    def test_the_partition_route_raises_alike(self, tmp_path, text):
        path = tmp_path / "e.cwx"
        path.write_text(text)
        with pytest.raises(ContractError) as want:
            decompose(parse(text))
        for route in (lambda: _decompose(parse(text), False), lambda: _decompose_cwx(path, False)):
            with pytest.raises(ContractError) as got:
                route()
            assert str(got.value) == str(want.value)

    def test_error_explains_the_stake(self):
        with pytest.raises(ContractError, match="keyed by leaf vertex ids"):
            decompose(parse("cw k=1\n(union (v a 1) (v a 1))"))


class TestSubdividedCliqueInstance:
    def test_quotient_width_drops_below_palette(self):
        e = gen_subdivided_clique(4, 1)
        g = evaluate(e)
        result = decompose(e)
        assert verify_result(g, result).ok
        assert len(result.partition) == 8
        assert width(result.tree) <= e.k - 1
        q, _ = quotient(g.graph, result.partition)
        # computed beforehand with the order-enumerating checker: the
        # 8-node quotient has treewidth exactly 3
        assert brute_treewidth(q) == 3


class TestCorpusSample:
    def test_every_corpus_expression_verifies(self):
        rng = random.Random(97)
        for _ in range(40):
            e = random_strict_expr(rng, palette=4, max_leaves=14)
            g = evaluate(e)
            report = verify_result(g, decompose(e))
            assert report.ok, report.failed()


    def test_the_partition_route_gives_the_same_partition_and_graph(self, tmp_path):
        rng = random.Random(98)
        for i in range(40):
            e = random_strict_expr(rng, palette=4, max_leaves=14)
            path = tmp_path / f"e{i}.cwx"
            write_cwx(path, e)
            result, cg = _decompose(e)
            for partition, got in (_decompose(e, False), _decompose_cwx(path, False)):
                assert partition == result.partition and got == cg


def three_leaf_setup():
    e = parse(THREE_TEXT)
    return evaluate(e), decompose(e)


def with_bags(result, bags):
    td = TreeDecomposition(result.tree.tree, bags)
    return DecompositionResult(result.partition, result.part_colors, td, result.rainbow_node)


class TestVerifyCatchesMutations:
    """Each mutation is aimed at one named check; the witness must say why."""

    def test_dropped_vertex(self):
        g, result = three_leaf_setup()
        broken = DecompositionResult(Partition({"a": ["a"], "merge(2,0)": ["b"]}),
                                     result.part_colors, result.tree, result.rainbow_node)
        report = verify_result(g, broken)
        bad = report.check("partition_covers")
        assert not bad.ok and "c" in bad.witness
        # downstream tree checks are marked unevaluated, not silently passed
        assert report.check("bag_subtrees").witness == (
            "not evaluated: tree or partition invalid")

    def test_mixed_color_part(self):
        g, result = three_leaf_setup()
        broken = DecompositionResult(Partition({"a": ["a", "b"], "merge(2,0)": ["c"]}),
                                     result.part_colors, result.tree, result.rainbow_node)
        report = verify_result(g, broken)
        bad = report.check("parts_monochromatic")
        assert not bad.ok and "colours [1, 2]" in bad.witness

    def test_mislabelled_color(self):
        g, result = three_leaf_setup()
        broken = DecompositionResult(result.partition, {"a": 1, "merge(2,0)": 1},
                                     result.tree, result.rainbow_node)
        report = verify_result(g, broken)
        bad = report.check("part_colors_match")
        assert not bad.ok and "labelled 1" in bad.witness
        assert len(report.failed()) == 1

    def test_undominated_part(self):
        # a path on four vertices, endpoints thrown into one part: no
        # closed neighborhood contains both
        path = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        g = ColoredGraph(path, 3, {"a": 1, "b": 1, "c": 1, "d": 1})
        tree = Graph([0], [])
        hand = DecompositionResult(
            partition=Partition({"ends": ["a", "d"], "mid": ["b", "c"]}),
            part_colors={"ends": 1, "mid": 1},
            tree=TreeDecomposition(tree, {0: {"ends", "mid"}}),
            rainbow_node=0)
        report = verify_result(g, hand)
        bad = report.check("parts_dominated")
        assert not bad.ok and "ends" in bad.witness
        assert report.check("edges_covered").ok

    def test_broken_tree(self):
        g, result = three_leaf_setup()
        nodes = list(result.tree.tree.vertices)
        pruned = [e for e in result.tree.tree.edges if set(e) != {3, 4}]
        broken = DecompositionResult(
            result.partition, result.part_colors,
            TreeDecomposition(Graph(nodes, pruned), dict(result.tree.bags)), result.rainbow_node)
        report = verify_result(g, broken)
        bad = report.check("tree_valid")
        assert not bad.ok and "not a tree" in bad.witness

    def test_scattered_part(self):
        g, result = three_leaf_setup()
        bags = dict(result.tree.bags)
        bags[2] = frozenset({"a"})
        report = verify_result(g, with_bags(result, bags))
        bad = report.check("bag_subtrees")
        assert not bad.ok and "merge(2,0)" in bad.witness

    def test_uncovered_quotient_edge(self):
        g, result = three_leaf_setup()
        bags = {t: (b - {"a"} if "merge(2,0)" in b and t != 0 else b)
                for t, b in result.tree.bags.items()}
        bags[0] = frozenset({"a"})
        report = verify_result(g, with_bags(result, bags))
        bad = report.check("edges_covered")
        assert not bad.ok and "quotient edge" in bad.witness

    def test_oversized_bag(self):
        text = """cw k=2
(union
  (union
    (v a 1)
    (v b 2))
  (v c 2))
"""
        e = parse(text)
        g, result = evaluate(e), decompose(e)
        bags = dict(result.tree.bags)
        bags[result.rainbow_node] = frozenset({"a", "b", "c"})
        report = verify_result(g, with_bags(result, bags))
        bad = report.check("width_bound")
        assert not bad.ok and "exceeds palette 2" in bad.witness
        assert len(report.failed()) == 1

    def test_colorless_rainbow_bag(self):
        g, result = three_leaf_setup()
        report = verify_result(g, DecompositionResult(result.partition, result.part_colors,
                                                      result.tree, 0))
        bad = report.check("rainbow_bag")
        assert not bad.ok and "colour 2" in bad.witness
        assert len(report.failed()) == 1

    def test_unknown_check_name(self):
        g, result = three_leaf_setup()
        with pytest.raises(InputError, match="no check"):
            verify_result(g, result).check("tightness")

    def test_report_json_shape(self):
        g, result = three_leaf_setup()
        obj = verify_result(g, result).to_json_dict()
        assert obj["ok"] is True
        assert [c["name"] for c in obj["checks"]] == [
            "partition_covers", "parts_monochromatic", "part_colors_match",
            "parts_dominated", "tree_valid", "bag_subtrees", "edges_covered",
            "width_bound", "rainbow_bag", "color_subtrees"]


def mutants(result, rng):
    """The result with one planted defect each: a part dropped from one bag, a
    tree edge rewired, two part colours swapped, a part split in two, a vertex
    outside the graph added to a part, and a rainbow node outside the tree."""
    bags = dict(result.tree.bags)
    full = [t for t, b in bags.items() if b]
    t = rng.choice(full)
    bags[t] = bags[t] - {rng.choice(sorted(bags[t]))}
    yield with_bags(result, bags)

    tree = result.tree.tree
    if tree.edges:
        edges = list(tree.edges)
        a, _ = edges.pop(rng.randrange(len(edges)))
        c = rng.choice(tree.vertices)
        if c != a:
            edges.append((a, c))
        yield DecompositionResult(result.partition, result.part_colors, TreeDecomposition(
            Graph(tree.vertices, edges), dict(result.tree.bags)), result.rainbow_node)

    colors = dict(result.part_colors)
    ids = sorted(colors)
    p, q = rng.choice(ids), rng.choice(ids)
    colors[p], colors[q] = colors[q], colors[p]
    yield DecompositionResult(result.partition, colors, result.tree, result.rainbow_node)

    big = [pid for pid, members in result.partition if len(members) > 1]
    if big:
        pid = rng.choice(big)
        members = sorted(result.partition.part(pid))
        cut = rng.randint(1, len(members) - 1)
        parts = result.partition.as_dict()
        parts[pid], parts[f"{pid}~"] = members[:cut], members[cut:]
        colors = dict(result.part_colors)
        colors[f"{pid}~"] = colors[pid]
        bags = {t: b | {f"{pid}~"} if pid in b and rng.random() < 0.5 else b
                for t, b in result.tree.bags.items()}
        yield DecompositionResult(Partition(parts), colors,
                                  TreeDecomposition(result.tree.tree, bags), result.rainbow_node)

    parts = result.partition.as_dict()
    first = result.partition.ids[0]
    parts[first] = [*parts[first], "~outside"]  # no vertex id has a '~'
    yield DecompositionResult(Partition(parts), result.part_colors, result.tree,
                              result.rainbow_node)

    # the tree numbers its nodes from 0
    yield DecompositionResult(result.partition, result.part_colors, result.tree, -1)


class TestAgainstNaiveVerifier:
    """verify_result's witnesses, byte for byte, against one rescan per question."""

    def cases(self):
        rng = random.Random(2718)
        for _ in range(60):
            yield random_strict_expr(rng, palette=rng.randint(2, 5), max_leaves=18)
        for length in (1, 2, 7, 20):
            yield gen_path("x", "y", length, 3, 1, 2, 1)
        yield gen_spider(3, [2, 3, 1])
        yield gen_subdivided_clique(4, 1)

    def test_witnesses_match(self):
        rng = random.Random(31)
        seen_failures, witnesses = set(), set()
        for e in self.cases():
            g, result = evaluate(e), decompose(e)
            for candidate in (result, *mutants(result, rng)):
                want = naive_verify_result(g, candidate)
                got = verify_result(g, candidate).to_json_dict()
                assert json.dumps(got) == json.dumps(want)
                seen_failures.update(c["name"] for c in want["checks"] if not c["ok"])
                witnesses.update(c["witness"] for c in want["checks"] if not c["ok"])
        # the mutants reach every check that can fail on a well-formed result
        assert seen_failures >= {"part_colors_match", "parts_dominated", "tree_valid",
                                 "bag_subtrees", "edges_covered", "rainbow_bag",
                                 "color_subtrees"}
        assert "rainbow node -1 not in the tree" in witnesses
        assert any(w.endswith("has vertices outside the graph") for w in witnesses)

    @pytest.mark.parametrize("unplaced, split", [("p", "q"), ("q", "p")])
    def test_first_bag_subtrees_witness(self, unplaced, split):
        # one part in no bag and one in two bags that the middle node separates:
        # the witness names whichever comes first in id order, in its own words
        g = ColoredGraph(Graph(["u", "v", "w"], [("u", "v"), ("v", "w")]), 2,
                         {"u": 1, "v": 2, "w": 1})
        parts = {unplaced: ["u"], split: ["v"], "r": ["w"]}
        bags = {0: {split}, 1: {"r"}, 2: {split, "r"}}
        result = DecompositionResult(
            Partition(parts), {unplaced: 1, split: 2, "r": 1},
            TreeDecomposition(Graph([0, 1, 2], [(0, 1), (1, 2)]), bags), 2)
        got = verify_result(g, result).to_json_dict()
        assert json.dumps(got) == json.dumps(naive_verify_result(g, result))
        assert verify_result(g, result).check("bag_subtrees").witness == (
            "part 'p' appears in no bag" if unplaced == "p"
            else "bags holding part 'p' are disconnected")


class TestScaling:
    def test_verify_result_neighbor_calls_grow_linearly(self, monkeypatch):
        calls = []
        original = Graph.neighbors

        def counted(self, v):
            calls.append(None)
            return original(self, v)

        counts = []
        for length in (1000, 2000):
            e = gen_path("x", "y", length, 3, 1, 2, 1)
            g, result = evaluate(e), decompose(e)
            calls.clear()
            monkeypatch.setattr(Graph, "neighbors", counted)
            assert verify_result(g, result).ok
            monkeypatch.setattr(Graph, "neighbors", original)
            counts.append(len(calls))
        assert counts[1] < 2.5 * counts[0], counts


class TestInterop:
    def test_json_round_trip(self):
        # the package reads no decomposition file, so the JSON is read back here
        _, result = three_leaf_setup()
        obj = json.loads(json.dumps(result_to_json_dict(result)))
        tree = obj["tree"]
        td = TreeDecomposition(Graph(tree["nodes"], map(tuple, tree["edges"])),
                               {int(t): bag for t, bag in tree["bags"].items()})
        again = DecompositionResult(Partition(obj["parts"]), obj["part_colors"], td,
                                    obj["rainbow_node"])
        assert again == result

    def test_dot_smoke(self):
        _, result = three_leaf_setup()
        dot = result_to_dot(result)
        assert dot.startswith("graph decomposition {")
        assert "merge(2,0)" in dot
