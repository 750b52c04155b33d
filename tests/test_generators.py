"""Expression builders checked vertex-for-vertex against the graphs they
claim to produce, plus the minor-model pullback."""

import json
import random
import sys
import tracemalloc
from itertools import product

import pytest

import cwkit.expressions
from cwkit import (ContractError, CwkitError, Graph, InputError, MinorModel, QiMap,
                   build_minor_model, complete_graph, evaluate, format_expr, gen_path,
                   gen_spider, gen_subdivided_clique, generators, model_to_json_dict,
                   normalize, subdivide, subdivision_path, validate_minor_model,
                   validate_strict)

from helpers import has_minor, pair_scan_minor_model, spider_graph


def identity_qi(g, c=1.0):
    return QiMap(g, g, {v: v for v in g.vertices}, c)


def check_expr(e, want_graph, want_colors):
    assert validate_strict(e).strict_valid
    cg = evaluate(e)
    assert cg.graph == want_graph
    assert cg.colors == want_colors
    assert max(want_colors.values()) <= e.k


class TestSubdivisionNaming:
    def test_path_names_are_direction_independent(self):
        assert subdivision_path("a", "b", 2) == ["a", "a-b.1", "a-b.2", "b"]
        assert subdivision_path("b", "a", 2) == ["b", "a-b.2", "a-b.1", "a"]
        assert subdivision_path("a", "b", 0) == ["a", "b"]

    def test_subdivide_rejects_bad_counts(self):
        base = Graph(["a", "b", "a-b.1"], [("a", "b")])
        for bad in (-1, 1.5):
            # the count is checked before the name collision it would meet
            with pytest.raises(InputError, match=f"^subdivision count must be an int >= 0, "
                                                 f"got {bad}$"):
                subdivide(base, bad)

    def test_subdivide_single_edge(self):
        base = Graph(["a", "b"], [("a", "b")])
        got = subdivide(base, 1)
        assert got == Graph(["a", "a-b.1", "b"], [("a", "a-b.1"), ("a-b.1", "b")])

    def test_subdivide_refuses_name_collisions(self):
        base = Graph(["a", "b", "a-b.1"], [("a", "b")])
        with pytest.raises(InputError, match="collides"):
            subdivide(base, 1)

    def test_uniform_subdivision_of_k4(self):
        got = subdivide(complete_graph(4), 1)
        assert len(got) == 10
        assert got.num_edges() == 12

    def test_complete_graph(self):
        k4 = complete_graph(4)
        assert sorted(k4.vertices) == ["1", "2", "3", "4"]
        assert k4.num_edges() == 6

    def test_negative_sizes_rejected_without_edges_too(self):
        assert len(complete_graph(0)) == 0
        with pytest.raises(InputError, match="n >= 0"):
            complete_graph(-1)
        for base in (complete_graph(0), complete_graph(1)):
            assert subdivide(base, 0) == base
            for bad in (-1, 1.5):
                with pytest.raises(InputError, match="int >= 0"):
                    subdivide(base, bad)


class TestGenPath:
    @pytest.mark.parametrize("length", range(1, 21))
    @pytest.mark.parametrize("palette,xc,yc,ic", [(3, 1, 2, 1), (4, 1, 2, 3)])
    def test_sweep(self, length, palette, xc, yc, ic):
        e = gen_path("x", "y", length, palette, xc, yc, ic)
        assert e.k == palette
        seq = subdivision_path("x", "y", length - 1)
        want = Graph(seq, list(zip(seq, seq[1:])))
        colors = {v: ic for v in seq[1:-1]}
        colors["x"], colors["y"] = xc, yc
        check_expr(e, want, colors)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(InputError, match="length"):
            gen_path("x", "y", 0, 3, 1, 2, 1)
        with pytest.raises(InputError, match="at least 3"):
            gen_path("x", "y", 2, 2, 1, 2, 1)
        with pytest.raises(InputError, match="out of range"):
            gen_path("x", "y", 2, 3, 1, 4, 1)
        with pytest.raises(InputError, match="endpoints must differ"):
            gen_path("x", "x", 2, 3, 1, 2, 1)

    def test_rejects_color_clashes(self):
        # the far endpoint's colour would be erased by the interior recolor
        with pytest.raises(InputError, match="far endpoint colour"):
            gen_path("x", "y", 4, 4, 1, 1, 2)
        with pytest.raises(InputError, match="far endpoint colour"):
            gen_path("x", "y", 4, 4, 1, 3, 3)
        # palette 3 fully spoken for leaves no room for the moving front
        with pytest.raises(InputError, match="no spare colour"):
            gen_path("x", "y", 4, 3, 1, 2, 3)

    def test_a_large_palette_changes_only_the_header(self):
        small = format_expr(gen_path("x", "y", 20, 4, 1, 2, 3))
        large = format_expr(gen_path("x", "y", 20, 10 ** 6, 1, 2, 3))
        assert large == small.replace("cw k=4", f"cw k={10 ** 6}", 1)

    def test_memory_does_not_grow_with_the_palette(self):
        tracemalloc.start()
        try:
            gen_path("x", "y", 20, 10 ** 5, 1, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestGenSpider:
    def test_claw(self):
        e = gen_spider(3, [1, 1, 1])
        assert e.k == 6
        want = spider_graph(3, [1, 1, 1])
        check_expr(e, want, {"c": 4, "1": 1, "2": 2, "3": 3})

    def test_mixed_leg_lengths(self):
        lengths = [2, 3, 1, 4]
        e = gen_spider(4, lengths)
        assert e.k == 7
        colors = {"c": 5, "1": 1, "2": 2, "3": 3, "4": 4}
        for ell, n in enumerate(lengths, start=1):
            for m in range(1, n):
                colors[f"{ell}.{m}"] = 5
        check_expr(e, spider_graph(4, lengths), colors)

    def test_long_uniform_legs(self):
        e = gen_spider(5, [6] * 5)
        cg = evaluate(e)
        assert cg.graph == spider_graph(5, [6] * 5)
        assert len(cg.graph) == 31

    def test_shape_errors(self):
        with pytest.raises(InputError, match="at least 3 legs"):
            gen_spider(2, [1, 1])
        with pytest.raises(InputError, match="expected 3 leg lengths"):
            gen_spider(3, [1, 1])
        with pytest.raises(InputError, match="ints >= 1"):
            gen_spider(3, [1, 0, 1])


class TestGenSubdividedClique:
    @pytest.mark.parametrize("n,times", [(4, 0), (4, 1), (4, 7), (5, 2)])
    def test_uniform(self, n, times):
        e = gen_subdivided_clique(n, times)
        assert e.k == n + 2
        want = subdivide(complete_graph(n), times)
        colors = {str(i): i for i in range(1, n + 1)}
        for v in want.vertices:
            colors.setdefault(v, n)
        check_expr(e, want, colors)

    def test_bad_parameters(self):
        with pytest.raises(InputError, match="n >= 4"):
            gen_subdivided_clique(3, 1)
        for bad in (-2, 2.0):
            with pytest.raises(InputError, match="ints >= 0"):
                gen_subdivided_clique(4, bad)


def wide_sweep():
    """(builder, args) for every path of length 1-24 on palettes 3-5 under every
    colour triple, every spider on 3 or 4 legs of lengths from {1, 2, 3, 5}, and
    K_4..K_7 subdivided 0-9 times; the refused parameter sets are included."""
    for length in range(1, 25):
        for palette in (3, 4, 5):
            for xc, yc, ic in product(range(1, palette + 1), repeat=3):
                yield gen_path, ("x", "y", length, palette, xc, yc, ic)
    for t in (3, 4):
        for legs in product((1, 2, 3, 5), repeat=t):
            yield gen_spider, (t, list(legs))
    for n in range(4, 8):
        for times in range(10):
            yield gen_subdivided_clique, (n, times)


def build(builder, args):
    """The expression builder(*args) returns, or its error's class and message."""
    try:
        return builder(*args)
    except CwkitError as exc:
        return [type(exc).__name__, str(exc)]


class TestStrictByConstruction:
    def test_every_sweep_output_is_strict_and_normal(self):
        built = 0
        for builder, args in wide_sweep():
            e = build(builder, args)
            if isinstance(e, list):
                continue
            built += 1
            assert validate_strict(e).strict_valid, (builder.__name__, args)
            assert format_expr(normalize(e)) == format_expr(e), (builder.__name__, args)
        assert built == 3288

    def test_building_folds_no_expression(self, monkeypatch):
        folds = []
        real = cwkit.expressions.fold_postorder

        def counting(root, fn):
            folds.append(type(root).__name__)
            return real(root, fn)

        monkeypatch.setattr(cwkit.expressions, "fold_postorder", counting)
        gen_path("x", "y", 2000, 4, 3, 2, 1)
        gen_spider(4, [1, 2, 3, 50])
        gen_subdivided_clique(6, 9)
        assert folds == []


class TestSubdivisionRecognition:
    """build_minor_model leans on recognizing its source as a subdivision."""

    def embed(self, pattern, source, c=1.0):
        return build_minor_model(pattern, identity_qi(source, c))

    def test_missing_branch_vertex(self):
        with pytest.raises(InputError, match="missing from the subdivision"):
            self.embed(complete_graph(4), Graph(["x"], []))

    def test_wrong_branch_degree(self):
        sub = subdivide(complete_graph(4), 1)
        pruned = Graph(list(sub.vertices),
                       [e for e in sub.edges if e != ("1", "1-2.1")])
        with pytest.raises(InputError, match="has degree 2, pattern needs 3"):
            self.embed(complete_graph(4), pruned)

    def test_stray_interior_degree(self):
        base = Graph(["a", "b", "z"], [("a", "b")])
        with pytest.raises(InputError, match="expected 2"):
            self.embed(Graph(["a", "b"], [("a", "b")]), base)

    def test_parallel_paths(self):
        square = Graph(["a", "b", "c", "d"],
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        doubled = Graph(["a", "b", "c", "d", "x", "y", "p", "q"],
                        [("a", "x"), ("x", "b"), ("a", "y"), ("y", "b"),
                         ("c", "p"), ("p", "d"), ("c", "q"), ("q", "d")])
        with pytest.raises(InputError, match="parallel paths"):
            self.embed(square, doubled)

    def test_subdivided_loop(self):
        square = Graph(["a", "b", "c", "d"],
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        looped = Graph(["a", "b", "c", "d", "x", "y", "p", "q", "r"],
                       [("a", "x"), ("x", "y"), ("y", "a"),
                        ("b", "p"), ("p", "c"), ("c", "q"), ("q", "d"),
                        ("d", "r"), ("r", "b")])
        with pytest.raises(InputError, match="subdivided loop"):
            self.embed(square, looped)

    def test_wrong_edges_realized(self):
        cycle6 = Graph(list("abcdef"),
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                        ("e", "f"), ("f", "a")])
        triangles = Graph(list("abcdef"),
                          [("a", "c"), ("c", "e"), ("e", "a"),
                           ("b", "d"), ("d", "f"), ("f", "b")])
        with pytest.raises(InputError, match="realize exactly"):
            self.embed(cycle6, triangles)

    def test_unreached_component(self):
        source = Graph(["a", "b", "x", "y", "z"],
                       [("a", "b"), ("x", "y"), ("y", "z"), ("z", "x")])
        with pytest.raises(InputError, match="belonging to no path"):
            self.embed(Graph(["a", "b"], [("a", "b")]), source)


class TestBuildMinorModel:
    def test_identity_pullback_of_deep_k4(self):
        k4 = complete_graph(4)
        sub = subdivide(k4, 7)
        model = build_minor_model(k4, identity_qi(sub))
        assert sorted(model.branch_sets) == ["1", "2", "3", "4"]
        assert sorted(model.edge_paths) == [
            ("1", "2"), ("1", "3"), ("1", "4"),
            ("2", "3"), ("2", "4"), ("3", "4")]
        # radius-2 ball around a degree-3 branch vertex, fattened once
        assert all(len(s) == 10 for s in model.branch_sets.values())
        # middle five of eight path edges, fattened once
        assert all(len(s) == 7 for s in model.edge_paths.values())
        sets = list(model.branch_sets.values())
        for i, s in enumerate(sets):
            for s2 in sets[i + 1:]:
                assert s.isdisjoint(s2)
        for (u, v), path in model.edge_paths.items():
            for w in model.branch_sets:
                meets = not path.isdisjoint(model.branch_sets[w])
                assert meets == (w in (u, v))

    def test_k5_pullback(self):
        k5 = complete_graph(5)
        sub = subdivide(k5, 7)
        assert len(sub) == 75
        model = build_minor_model(k5, identity_qi(sub))
        assert len(model.edge_paths) == 10
        assert all(len(s) == 13 for s in model.branch_sets.values())

    def test_shallow_subdivision_refused(self):
        k4 = complete_graph(4)
        sub = subdivide(k4, 3)
        with pytest.raises(InputError, match="too shallow.*need >= 8"):
            build_minor_model(k4, identity_qi(sub))

    def test_map_contract_checked(self):
        k4 = complete_graph(4)
        sub = subdivide(k4, 7)
        with pytest.raises(InputError, match="must be >= 1"):
            build_minor_model(k4, identity_qi(sub, 0.5))

    def test_bound_violations_rejected(self):
        k4 = complete_graph(4)
        sub = subdivide(k4, 7)
        collapse = QiMap(sub, sub, {v: "1" for v in sub.vertices}, 1.0)
        with pytest.raises(InputError, match="violates the distance bounds"):
            build_minor_model(k4, collapse)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_c_gives_a_model_the_pair_scan_passes(self, n):
        # a fractional c(c+1) cuts the stretches at its floor, so two may lie closer
        # than 2c(c+1); the model is a minor all the same, at every depth from 4c(c+1)
        h = complete_graph(n)
        for c in (1.0, 1.1, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0):
            need = int(4 * c * (c + 1))
            for times in (need, need + 3, need + 10):
                sub = subdivide(h, times)
                model = build_minor_model(h, identity_qi(sub, c))
                assert reference_witness(h, sub, model) is None, (c, times)
                assert len(model.edge_paths) == n * (n - 1) // 2

    def test_json_shape(self):
        k4 = complete_graph(4)
        sub = subdivide(k4, 7)
        model = build_minor_model(k4, identity_qi(sub))
        obj = model_to_json_dict(model)
        assert set(obj) == {"branch_sets", "edge_paths"}
        assert "1--2" in obj["edge_paths"]
        assert obj["branch_sets"]["1"] == sorted(model.branch_sets["1"])
        json.dumps(obj)


def k4_model():
    """K_4, its 7-subdivision, and the model build_minor_model pulls through the identity."""
    k4 = complete_graph(4)
    sub = subdivide(k4, 7)
    return k4, sub, build_minor_model(k4, identity_qi(sub))


def mutant(model, branch=None, paths=None):
    return MinorModel({**model.branch_sets, **(branch or {})},
                      {**model.edge_paths, **(paths or {})})


def first_witness(h, g, model):
    failed = validate_minor_model(h, g, model).failed()
    return failed[0].witness if failed else None


def reference_witness(h, g, model):
    return pair_scan_minor_model(g.edges, h.vertices, h.edges, model.branch_sets,
                                 model.edge_paths)


class TestValidateMinorModel:
    @pytest.mark.parametrize("n, times", [(0, 0), (1, 0), (2, 7), (3, 8), (4, 7), (5, 8),
                                          (6, 8)])
    def test_built_models_pass(self, n, times):
        h = complete_graph(n)
        sub = subdivide(h, times)
        model = build_minor_model(h, identity_qi(sub))
        report = validate_minor_model(h, sub, model)
        assert [c.name for c in report.checks] == ["connected", "disjoint", "incident"]
        assert report.ok and reference_witness(h, sub, model) is None
        if 0 < len(sub) <= 30:
            assert has_minor(sub, h)

    def test_mutants_fail_with_the_build_texts(self):
        k4, sub, model = k4_model()
        b, p = model.branch_sets, model.edge_paths
        merged = b["1"] | p[("1", "2")] | b["2"]
        # a new vertex w joins the middle of the 1--2 path to branch vertex 3
        wired = Graph([*sub.vertices, "w"], [*sub.edges, ("1-2.4", "w"), ("w", "3")])
        cases = [
            (sub, mutant(model, {"1": merged, "2": merged}),
             "disjoint", "model sets of '1' and '2' intersect"),
            (sub, mutant(model, paths={("1", "2"): p[("1", "2")] - {"1-2.4"}}),
             "connected", "model path of ('1', '2') is disconnected in the host"),
            (wired, mutant(model, paths={("1", "2"): p[("1", "2")] | {"w", "3"}}),
             "incident", "model path of ('1', '2') touches non-endpoint '3'"),
            (sub, mutant(model, {"1": b["1"] - {"1"}}),
             "connected", "model set of '1' is disconnected in the host"),
            (sub, mutant(model, paths={("1", "2"): p[("1", "2")] | b["1"] | p[("1", "3")]}),
             "disjoint", "model paths of ('1', '2') and ('1', '3') intersect"),
            (sub, mutant(model, paths={("1", "2"): p[("1", "2")] - b["1"]}),
             "incident", "model path of ('1', '2') misses the set of endpoint '1'"),
        ]
        for g, bad, check, witness in cases:
            report = validate_minor_model(k4, g, bad)
            assert report.check(check).witness == witness
            assert report.failed()[0].witness == witness == reference_witness(k4, g, bad)
        assert validate_minor_model(k4, wired, model).ok

    def test_sets_must_be_keyed_by_the_pattern(self):
        k4, sub, model = k4_model()
        b, p = dict(model.branch_sets), dict(model.edge_paths)
        extra = {**b, "5": b["4"]}
        del b["4"]
        del p[("3", "4")]
        for bad in (MinorModel(b, model.edge_paths), MinorModel(extra, model.edge_paths),
                    MinorModel(model.branch_sets, p)):
            with pytest.raises(InputError, match="^model sets must be keyed by exactly the "
                                                 "pattern's vertices and edges$"):
                validate_minor_model(k4, sub, bad)

    def test_unknown_vertex_raises(self):
        k4, sub, model = k4_model()
        with pytest.raises(InputError, match="^model mentions unknown vertex 'zz'$"):
            validate_minor_model(k4, sub, mutant(model, {"1": model.branch_sets["1"] | {"zz"}}))
        with pytest.raises(InputError, match="^model mentions unknown vertex 'zb'$"):
            validate_minor_model(k4, sub, mutant(model, paths={
                ("1", "2"): model.edge_paths[("1", "2")] | {"zz", "zb"}}))

    def test_unknown_vertex_check_copies_no_key_set(self):
        # each model set is tested by membership: a set difference with the host's
        # keys() would copy its whole vertex set once per set
        class Adjacency(dict):
            keys_calls = 0

            def keys(self):
                Adjacency.keys_calls += 1
                return super().keys()

        k4, sub, model = k4_model()
        host = Graph._built(sub.vertices, Adjacency(sub._adj))
        assert validate_minor_model(k4, host, model).ok
        assert Adjacency.keys_calls == 0

    def test_first_failure_matches_the_pair_scan_on_random_mutants(self):
        # one to three random edits of random sets of deep K_3 and K_4 models:
        # add a vertex, drop one, or add or remove another set's members
        rng = random.Random(1606)
        failed = set()
        for h, times in ((complete_graph(3), 8), (complete_graph(4), 7)):
            sub = subdivide(h, times)
            model = build_minor_model(h, identity_qi(sub))
            names = [("b", v) for v in model.branch_sets] + [("p", e) for e in model.edge_paths]
            for _ in range(300):
                sets = {"b": dict(model.branch_sets), "p": dict(model.edge_paths)}
                for _ in range(rng.randint(1, 3)):
                    kind, key = rng.choice(names)
                    s = sets[kind][key]
                    other_kind, other = rng.choice(names)
                    edit = rng.choice(("add", "drop", "copy", "cut"))
                    if edit == "add":
                        s = s | {rng.choice(sub.vertices)}
                    elif edit == "drop" and s:
                        s = s - {rng.choice(sorted(s))}
                    elif edit == "copy":
                        s = s | sets[other_kind][other]
                    else:
                        s = s - sets[other_kind][other]
                    sets[kind][key] = s
                bad = MinorModel(sets["b"], sets["p"])
                got = first_witness(h, sub, bad)
                assert got == reference_witness(h, sub, bad), (sets, got)
                if got:
                    failed.add(validate_minor_model(h, sub, bad).failed()[0].name)
        assert failed == {"connected", "disjoint", "incident"}

    def test_build_raises_the_first_failed_witness(self, monkeypatch):
        k4 = complete_graph(4)
        sub = subdivide(k4, 7)
        real = generators.closed_r_neighborhood

        def fatten_without_branch_vertex_1(g, sources, r):
            out = real(g, sources, r)
            return out - {"1"} if r == 1.0 and "1" in sources else out

        monkeypatch.setattr(generators, "closed_r_neighborhood", fatten_without_branch_vertex_1)
        with pytest.raises(ContractError) as exc:
            build_minor_model(k4, identity_qi(sub))
        assert str(exc.value) == "model set of '1' is disconnected in the host"

    def test_validation_grows_linearly(self):
        # traced lines and calls per unit of |V| + |E| + the sets' sizes stay flat from
        # K_6 to K_18: a check of every pair of the 153 edge paths would add 11,628 pairs
        def events_per_unit(n):
            h = complete_graph(n)
            sub = subdivide(h, 8)
            model = build_minor_model(h, identity_qi(sub))
            count = [0]

            def tracer(frame, event, arg):
                count[0] += 1
                return tracer

            sys.settrace(tracer)
            try:
                assert validate_minor_model(h, sub, model).ok
            finally:
                sys.settrace(None)
            sets = [*model.branch_sets.values(), *model.edge_paths.values()]
            return count[0] / (len(sub) + sub.num_edges() + sum(map(len, sets)))

        assert events_per_unit(18) < 1.2 * events_per_unit(6)
