"""Parsing, printing, evaluation, validation, normalization."""

import gc
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cwkit import (CwExpr, InputError, Join, Leaf, ParseError, Recolor, Union,
                   evaluate, format_expr, gen_path, gen_subdivided_clique, normalize, parse,
                   validate_strict)
from cwkit import expressions
from cwkit.corpus import generate_corpus, random_strict_expr
from cwkit.decomposition import _decompose
from cwkit.expressions import (RULE_COLOR_RANGE, RULE_DUP_VERTEX,
                               RULE_EMPTY_OPERAND, RULE_OP2_I_UNUSED,
                               RULE_OP2_J_UNUSED, RULE_OP3_NO_NEW_EDGE,
                               fold_postorder, render_path, walk_with_paths)

from helpers import naive_parse, one_line_text
from test_golden import mutate_text, parse_outcome, text_mutants

K2_TEXT = "cw k=2\n(join 1 2\n  (union\n    (v a 1)\n    (v b 2)))\n"


def k2_expr():
    return CwExpr(2, Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2))))


class TestAst:
    def test_leaf_validation(self):
        assert Leaf("x.y-z_9", 3).vertex == "x.y-z_9"
        with pytest.raises(InputError):
            Leaf("bad id!", 1)
        with pytest.raises(InputError):
            Leaf("", 1)
        with pytest.raises(InputError):
            Leaf("a", 0)

    def test_two_color_ops_need_distinct_colors(self):
        leaf = Leaf("a", 1)
        with pytest.raises(InputError):
            Recolor(2, 2, leaf)
        with pytest.raises(InputError):
            Join(1, 1, leaf)
        with pytest.raises(InputError):
            Recolor(0, 1, leaf)

    @pytest.mark.parametrize("make", [
        lambda: Leaf(5, 1), lambda: Leaf("a", True), lambda: Leaf("a", 1.0),
        lambda: Recolor(1.0, 2, Leaf("a", 1)), lambda: Recolor(1, "2", Leaf("a", 1)),
        lambda: Join(True, 2, Leaf("a", 1)), lambda: Join(0, 1, Leaf("a", 1)),
        lambda: CwExpr(True, Leaf("a", 1)), lambda: CwExpr(0, Leaf("a", 1)),
        lambda: evaluate(CwExpr(1, Union(Leaf(5, 1), Leaf("5", 1)))),
        lambda: Union(Leaf("a", 1), "b"), lambda: Union(None, Leaf("a", 1)),
        lambda: Recolor(1, 2, None), lambda: Join(1, 2, "(v a 1)"),
        lambda: CwExpr(2, "(v a 1)"), lambda: CwExpr(2, CwExpr(2, Leaf("a", 1))),
        lambda: format_expr(CwExpr(2, Union(Leaf("a", 1), "b"))),
        lambda: evaluate(CwExpr(2, Union(Leaf("a", 1), "b")))],
        ids=["int id", "bool colour", "float colour", "float recolor", "str recolor",
             "bool join", "zero join", "bool k", "zero k", "int and str ids",
             "str operand", "None operand", "None recolor child", "text join child",
             "text root", "expression root", "format_expr of a str operand",
             "evaluate of a str operand"])
    def test_fields_parse_cannot_read_back_are_refused(self, make):
        # format_expr would print these as text parse refuses or reads as another
        # node; a child that is no node would fail there on a missing field
        with pytest.raises(InputError):
            make()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_accepted_nodes_read_back(self, data):
        k = data.draw(st.sampled_from([2, 3, 7, 10 ** 20]), label="k")
        color = st.integers(1, min(k, 3)) | st.integers(1, k)
        pair = st.tuples(color, color).filter(lambda ab: ab[0] != ab[1])
        leaf = st.builds(Leaf, st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True), color)
        root = data.draw(st.recursive(leaf, lambda kids: st.one_of(
            st.builds(Union, kids, kids),
            st.builds(lambda ab, kid: Recolor(*ab, kid), pair, kids),
            st.builds(lambda ab, kid: Join(*ab, kid), pair, kids)), max_leaves=8), label="root")
        e = CwExpr(k, root)
        assert parse(format_expr(e)) == e

    def test_nodes_are_frozen_and_comparable(self):
        assert k2_expr() == k2_expr()
        with pytest.raises(AttributeError):
            Leaf("a", 1).color = 2


class TestParser:
    def test_k2_document(self):
        e = parse(K2_TEXT)
        assert e == k2_expr()

    def test_leaf_example(self):
        assert parse("cw k=3\n(v a 1)") == CwExpr(3, Leaf("a", 1))

    def test_whitespace_insensitive(self):
        flat = "cw k=2 \n (join 1 2(union(v a 1)(v b 2)))"
        assert parse(flat) == k2_expr()

    def test_trailing_blanks_are_scanned_once(self):
        # a token pattern with leading blanks retries from each trailing blank,
        # which is quadratic (tens of seconds here) unless the scan stops early
        blanks = " \t\n\u3000" * 10_000
        start = time.perf_counter()
        assert parse("cw k=2\n(v a 1)" + blanks) == CwExpr(2, Leaf("a", 1))
        with pytest.raises(ParseError, match="unclosed") as info:
            parse("cw k=2\n(union (v a 1)" + blanks)
        assert (info.value.line, info.value.column) == (2, 14)
        assert time.perf_counter() - start < 1.0

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("(v a 1)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   \n  ")

    def test_color_out_of_palette(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("cw k=2\n(v a 3)")

    def test_recolor_same_colors_rejected(self):
        with pytest.raises(ParseError, match="must differ"):
            parse("cw k=3\n(recolor 2 2 (v a 1))")

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown operator"):
            parse("cw k=2\n(vertex a 1)")

    def test_unclosed_paren_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse("cw k=2\n(union (v a 1) (v b 2)")
        assert info.value.line == 2

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("cw k=2\n(v a 1) (v b 2)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("cw k=2\n(v a! 1)")

    def test_arity_errors(self):
        with pytest.raises(ParseError):
            parse("cw k=2\n(union (v a 1))")
        with pytest.raises(ParseError):
            parse("cw k=2\n(join 1 (v a 1))")
        with pytest.raises(ParseError):
            parse("cw k=2\n(v a 1 2)")


DIFF_SEED = 6262
DIFF_COUNT = 5000
# Line breaks and blanks the parser must read as whitespace, beyond the space.
BLANKS = ("\r\n", "\t", "\x0b", "\x0c", "\u00a0", "\u2028")
# Digit runs inserted before a digit: leading zeros up to and past int()'s
# 4300-digit limit, which leave a colour or k as it was, and values that
# are out of every palette, readable by int() or not.
DIGIT_RUNS = ("0" * 20, "0" * 4400, "5" * 20, "9" * 4400)


def differential_texts():
    """Seeded mutants of corpus and generator texts, one-line and canonical, with
    CRLF and other whitespace, long digit runs, headers cut to k=1, and strict
    expressions on one colour."""
    rng = random.Random(DIFF_SEED)
    texts = []
    for text in text_mutants(DIFF_SEED, DIFF_COUNT - 200):
        roll = rng.random()
        if roll < 0.15:
            text = text.replace("\n", "\r\n")
        elif roll < 0.3:
            text = "".join(rng.choice(BLANKS) if ch == " " and rng.random() < 0.3 else ch
                           for ch in text)
        elif roll < 0.45:
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            at = rng.choice(digits) if digits else 0
            text = text[:at] + rng.choice(DIGIT_RUNS) + text[at:]
        elif roll < 0.55:  # the header cut to k=1, or to a k of zero, which no parser reads
            k = "0" if roll < 0.47 else "00" if roll < 0.49 else "1"
            text = re.sub(r"k=[0-9]+", f"k={k}", text, count=1)
        elif roll < 0.7:  # one colour set to a small value: equal, zero or out of range
            numbers = list(re.finditer(r"(?<=\s)[0-9]+(?=[\s)])", text))
            if numbers:
                m = rng.choice(numbers)
                text = text[:m.start()] + rng.choice(("0", "1", "2", "3", "01", "9")) + text[m.end():]
        texts.append(text)
    for _ in range(200):
        e = random_strict_expr(rng, 1, rng.randint(1, 8))
        text = format_expr(e) if rng.random() < 0.5 else one_line_text(e)
        texts.append(mutate_text(rng, text) if rng.random() < 0.5 else text)
    return texts


def naive_outcome(text):
    """parse_outcome with the token-at-a-time reference parser."""
    try:
        return format_expr(naive_parse(text))
    except ParseError as exc:
        return [type(exc).__name__, str(exc), exc.line, exc.column]


class TestParserDifferential:
    """parse against the reference that reads one token at a time."""

    def test_same_outcome_on_seeded_mutants(self):
        texts = differential_texts()
        assert len(texts) == DIFF_COUNT
        outcomes = [(parse_outcome(t), naive_outcome(t)) for t in texts]
        mismatched = [t for t, (got, want) in zip(texts, outcomes) if got != want]
        assert not mismatched, (len(mismatched), mismatched[0][:300])
        parsed = sum(isinstance(got, str) for got, _ in outcomes)
        messages = {got[1].split(" (line")[0].split(",")[0].split(" '")[0]
                    for got, _ in outcomes if not isinstance(got, str)}
        assert parsed > DIFF_COUNT // 10
        assert len(messages) > 15, messages
        for kind in ("leaf", "recolor", "join"):
            assert {f"{kind} colour must be an integer", f"{kind} colour 0 out of range 1..3",
                    f"{kind} colour 9 out of range 1..3"} <= messages, kind
        assert {"recolor colours must differ", "join colours must differ",
                "palette size k must be >= 1"} <= messages
        assert all(any(f"cw k={zero}\n" in t for t in texts) for zero in ("0", "00"))
        # each kind of edit reached both parsers, on texts that parse and texts that fail
        for mark in ("\r\n", "\u2028", "0" * 4400, "9" * 4400, "cw k=1\n"):
            kinds = {isinstance(got, str) for t, (got, _) in zip(texts, outcomes) if mark in t}
            assert kinds == {True, False}, mark

    def test_same_errors_at_every_cut(self):
        # every prefix of a one-line and a canonical text ends inside some node
        e = CwExpr(3, Join(1, 2, Union(Recolor(3, 2, Leaf("a", 3)), Leaf("b", 1))))
        for text in (format_expr(e), one_line_text(e)):
            for end in range(len(text) + 1):
                assert parse_outcome(text[:end]) == naive_outcome(text[:end]), text[:end]


class TestPrinter:
    def test_canonical_layout(self):
        assert format_expr(k2_expr()) == K2_TEXT

    def test_parse_format_identity_on_random_expressions(self):
        rng = random.Random(4242)
        for _ in range(80):
            e = random_strict_expr(rng, rng.randint(1, 5), 12)
            text = format_expr(e)
            assert parse(text) == e
            assert format_expr(parse(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        e = random_strict_expr(rng, rng.randint(1, 6), 10)
        assert parse(format_expr(e)) == e

    def test_indent_stops_growing_at_depth_32(self):
        node = Leaf("a", 1)
        for _ in range(34):
            node = Recolor(1, 2, node)
        e = CwExpr(2, node)
        want = ("cw k=2\n" + "".join(" " * min(2 * d, 64) + "(recolor 1 2\n" for d in range(34))
                + " " * 64 + "(v a 1)" + ")" * 34 + "\n")
        text = format_expr(e)
        assert text == want
        assert parse(text) == e

    @pytest.mark.parametrize("build", [lambda: gen_path("x", "y", 300, 4, 1, 2, 3),
                                       lambda: gen_subdivided_clique(12, 48)],
                             ids=["path-300", "clique-12-48"])
    def test_each_line_is_indented_by_its_depth_capped_at_32(self, build):
        e = build()
        depths, todo = [], [(e.root, 0)]  # preorder, as the lines come
        while todo:
            node, depth = todo.pop()
            depths.append(depth)
            kids = ((node.right, node.left) if isinstance(node, Union) else
                    () if isinstance(node, Leaf) else (node.child,))
            todo += [(kid, depth + 1) for kid in kids]
        text = format_expr(e)
        lines = text.splitlines()[1:]
        assert max(depths) > 32
        assert [len(line) - len(line.lstrip(" ")) for line in lines] == [
            2 * min(d, 32) for d in depths]
        assert format_expr(parse(text)) == text

    def test_text_takes_linear_memory(self):
        # the text is linear in the number of nodes, so twice the length about doubles the peak
        def peak(length):
            e = gen_path("x", "y", length, 4, 1, 2, 3)
            tracemalloc.start()
            try:
                format_expr(e)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(600) < 2.5 * peak(300)


class TestEvaluation:
    def test_k2(self):
        cg = evaluate(k2_expr())
        assert cg.graph.vertices == ("a", "b")
        assert cg.graph.edges == (("a", "b"),)
        assert cg.colors == {"a": 1, "b": 2}
        assert cg.k == 2

    def test_join_connects_all_pairs(self):
        e = CwExpr(2, Join(1, 2, Union(
            Union(Leaf("a", 1), Leaf("b", 1)),
            Union(Leaf("c", 2), Leaf("d", 2)))))
        cg = evaluate(e)
        assert cg.graph.edges == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))

    def test_recolor_changes_colors_only(self):
        e = CwExpr(3, Recolor(1, 3, k2_expr().root))
        cg = evaluate(e)
        assert cg.colors == {"a": 3, "b": 2}
        assert cg.graph.edges == (("a", "b"),)

    def test_duplicate_vertex_rejected(self):
        e = CwExpr(2, Union(Leaf("a", 1), Leaf("a", 2)))
        with pytest.raises(InputError, match="duplicate"):
            evaluate(e)

    def test_join_idempotent_on_existing_edges(self):
        inner = Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2)))
        cg = evaluate(CwExpr(2, Join(1, 2, inner)))  # not strict, still evaluable
        assert cg.graph.edges == (("a", "b"),)

    def test_deep_expression_no_recursion_limit(self):
        # 1200 nested unions exceed the default interpreter recursion limit,
        # so this passes only because every tree walk is iterative.
        node = Leaf("v0", 1)
        for i in range(1, 1200):
            node = Union(node, Leaf(f"v{i}", 1))
        e = CwExpr(1, node)
        cg = evaluate(e)
        assert len(cg.graph) == 1200
        assert parse(format_expr(e)) == e

    def test_deep_path_eq_hash_repr_do_not_recurse(self):
        # gen_path's AST is about three nodes deep per edge: 3,000 levels here.
        e = gen_path("x", "y", 1000, 4, 1, 2, 3)
        assert fold_postorder(e.root, lambda node, kids: 1 + max(kids, default=0)) > 2900
        back = parse(format_expr(e))
        assert back is not e and back == e and not back != e
        assert hash(back) == hash(e)
        assert back != gen_path("x", "y", 1000, 4, 1, 2, 4)
        text = repr(e)
        assert len(text) < 2000 and text.startswith("CwExpr(k=4, root=Recolor(")
        assert "..." in text


class _CountingSet(set):
    """An adjacency set that counts membership tests: one per vertex pair examined."""

    lookups = 0

    def __contains__(self, v):
        _CountingSet.lookups += 1
        return super().__contains__(v)


def refused_joins(m):
    """p:1, q:2, z:3 joined 1-2 and 1-3, then m rounds adding a colour-1 leaf
    and joining 1-3, then 1-2: each round fuses the big colour-1 part again."""
    node = Join(1, 3, Join(1, 2, Union(Union(Leaf("p", 1), Leaf("q", 2)), Leaf("z", 3))))
    for i in range(m):
        node = Join(1, 2, Join(1, 3, Union(node, Leaf(f"x{i}", 1))))
    return CwExpr(3, node)


class TestJoinCost:
    def pairs_examined(self, monkeypatch, e):
        original = expressions._Semantics.leaf

        def leaf(self, *fields):
            state = original(self, *fields)
            self.adj[-1] = _CountingSet()
            return state

        monkeypatch.setattr(expressions._Semantics, "leaf", leaf)
        _CountingSet.lookups = 0
        cg = evaluate(e)
        monkeypatch.setattr(expressions._Semantics, "leaf", original)
        return cg, _CountingSet.lookups

    def test_refused_part_is_not_rescanned(self, monkeypatch):
        counts = []
        for m in (250, 500, 1000):
            cg, pairs = self.pairs_examined(monkeypatch, refused_joins(m))
            assert cg.graph.num_edges() == 2 + 2 * m
            counts.append(pairs)
        assert counts[1] < 2.5 * counts[0] and counts[2] < 2.5 * counts[1], counts

    def test_verdicts_survive_a_duplicate_removed_from_a_joined_part(self):
        # {a, b} is joined to c, then x joins the part; the right copy of a
        # takes the left one's place, and the last join still adds x--c.
        inner = Join(1, 2, Union(Union(Leaf("a", 1), Leaf("b", 1)), Leaf("c", 2)))
        grown = Join(1, 3, Union(inner, Union(Leaf("x", 1), Leaf("z", 3))))
        e = CwExpr(3, Join(1, 2, Union(grown, Leaf("a", 3))))
        assert [v.rule for v in validate_strict(e).violations] == [RULE_DUP_VERTEX]


class _CountingList(list):
    """A part's member list that counts the members each removal or pass scans."""

    scanned = 0

    def remove(self, v):
        _CountingList.scanned += self.index(v) + 1
        super().remove(v)

    def __iter__(self):
        _CountingList.scanned += len(self)
        return super().__iter__()


def balanced_union(nodes):
    while len(nodes) > 1:
        nodes = [Union(*nodes[i:i + 2]) if i + 1 < len(nodes) else nodes[i]
                 for i in range(0, len(nodes), 2)]
    return nodes[0]


def duplicated_hub_part(m):
    """m colour-1 leaves joined to a hub, so one part, unioned with m colour-3 copies."""
    hubbed = Join(1, 2, Union(balanced_union([Leaf(f"x{i}", 1) for i in range(m)]),
                              Leaf("hub", 2)))
    return CwExpr(3, Union(hubbed, balanced_union([Leaf(f"x{i}", 3) for i in range(m)])))


def left_comb(m):
    """A left comb of m colour-1 leaves under a recolor from the unused colour 2."""
    node = Leaf("x0", 1)
    for i in range(1, m):
        node = Union(node, Leaf(f"x{i}", 1))
    return CwExpr(2, Recolor(2, 1, node))


class TestValidationCost:
    def members_scanned(self, monkeypatch, e):
        original = expressions._Semantics.leaf

        def leaf(self, *fields):
            state = original(self, *fields)
            self.leaves[-1].members = _CountingList(self.leaves[-1].members)
            return state

        monkeypatch.setattr(expressions._Semantics, "leaf", leaf)
        _CountingList.scanned = 0
        report = validate_strict(e)
        monkeypatch.setattr(expressions._Semantics, "leaf", original)
        return report, _CountingList.scanned

    def test_duplicates_leave_a_part_in_one_pass(self, monkeypatch):
        counts = []
        for m in (500, 1000, 2000):
            report, scanned = self.members_scanned(monkeypatch, duplicated_hub_part(m))
            assert [v.rule for v in report.violations] == [RULE_DUP_VERTEX] * m
            counts.append(scanned)
        assert counts[1] < 2.5 * counts[0] and counts[2] < 2.5 * counts[1], counts

    @staticmethod
    def peak(e):
        tracemalloc.start()
        try:
            report = validate_strict(e)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_violation_paths_on_a_deep_comb_take_linear_memory(self):
        small_report, small = self.peak(left_comb(2000))
        large_report, large = self.peak(left_comb(4000))
        assert [str(v) for v in large_report.violations] == [
            "OP2_I_UNUSED at root: recolor source colour 2 unused below"]
        assert small_report.violations[0].path == ()
        assert large < 3 * small, (small, large)


class TestPartsAreFreed:
    """A fold's parts hold no reference cycle, so dropping its result frees them."""

    OWNERS = {
        "evaluate": evaluate,
        "_decompose": _decompose,
        "validate_strict": validate_strict,
        "normalize": normalize,
        "corpus": lambda e: generate_corpus(e.k, 3, 5, 40),
    }

    @pytest.mark.parametrize("owner", sorted(OWNERS))
    def test_no_part_waits_for_the_cyclic_collector(self, owner):
        exprs = generate_corpus(20260815, 4, 5, 40)
        if owner == "validate_strict":  # merging duplicates drops joined parts' records
            exprs.append(duplicated_hub_part(20))
        gc.collect()
        gc.disable()
        try:
            for e in exprs:
                self.OWNERS[owner](e)
            left = sum(isinstance(o, expressions._Part) for o in gc.get_objects())
        finally:
            gc.enable()
        assert left == 0


class TestValidation:
    def check(self, e, rule):
        report = validate_strict(e)
        assert not report.strict_valid
        assert any(v.rule == rule for v in report.violations), report.violations

    def test_strict_k2(self):
        report = validate_strict(k2_expr())
        assert report.strict_valid and not report.violations

    def test_duplicate_vertex(self):
        self.check(CwExpr(2, Union(Leaf("a", 1), Leaf("a", 2))), RULE_DUP_VERTEX)

    def test_color_range(self):
        # a leaf color above k can only be built directly, not parsed
        self.check(CwExpr(1, Leaf("a", 2)), RULE_COLOR_RANGE)

    def test_recolor_source_unused(self):
        self.check(CwExpr(3, Recolor(2, 1, Leaf("a", 1))), RULE_OP2_I_UNUSED)

    def test_recolor_target_unused(self):
        self.check(CwExpr(3, Recolor(1, 2, Leaf("a", 1))), RULE_OP2_J_UNUSED)

    def test_join_without_new_edge(self):
        inner = Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2)))
        self.check(CwExpr(2, Join(1, 2, inner)), RULE_OP3_NO_NEW_EDGE)
        self.check(CwExpr(2, Join(1, 2, Leaf("a", 1))), RULE_OP3_NO_NEW_EDGE)

    def test_reports_every_violation_with_paths(self):
        e = CwExpr(3, Recolor(3, 1, Join(1, 2, Union(Leaf("a", 1), Leaf("a", 1)))))
        report = validate_strict(e)
        rules = {v.rule for v in report.violations}
        assert RULE_DUP_VERTEX in rules
        assert RULE_OP2_I_UNUSED in rules
        assert RULE_OP3_NO_NEW_EDGE in rules
        first = report.first()
        assert first.path == ()  # outermost violation first
        assert "root" in str(first)

    def test_empty_operand_rule_exists(self):
        # The AST cannot express an empty operand (leaves are nonempty and
        # every operator preserves vertices), so the rule is structural
        # documentation; the constant must exist for report consumers.
        assert RULE_EMPTY_OPERAND == "EMPTY_OPERAND"

    def test_corpus_is_strict(self):
        rng = random.Random(7)
        for _ in range(60):
            e = random_strict_expr(rng, rng.randint(1, 6), 15)
            assert validate_strict(e).strict_valid


class TestWalkHelpers:
    def test_walk_paths_and_render(self):
        e = k2_expr()
        paths = {render_path(p) for p, _ in walk_with_paths(e.root)}
        assert paths == {"root", "root[0]", "root[0][0]", "root[0][1]"}

    def test_fold_postorder_memoizes_identity(self):
        calls = []

        def fn(node, kids):
            calls.append(node)
            return sum(kids) + 1

        shared = Leaf("a", 1)
        root = Union(shared, Leaf("b", 1))
        assert fold_postorder(root, fn) == 3
        assert len(calls) == 3

    def test_subclassed_nodes_fold_as_their_base_classes(self):
        kinds = [type(f"My{cls.__name__}", (cls,), {}) for cls in (Leaf, Union, Recolor, Join)]

        def rebuild(node, kids):  # the same expression, every node of a subclass
            if isinstance(node, Leaf):
                return kinds[0](node.vertex, node.color)
            if isinstance(node, Union):
                return kinds[1](*kids)
            if isinstance(node, Recolor):
                return kinds[2](node.old_color, node.new_color, kids[0])
            return kinds[3](node.color_a, node.color_b, kids[0])

        rng = random.Random(77)
        exprs = [random_strict_expr(rng, rng.randint(1, 5), 12) for _ in range(20)]
        exprs.append(CwExpr(2, Join(1, 2, Union(Leaf("a", 1), Leaf("a", 1)))))  # not strict
        for e in exprs:
            sub = CwExpr(e.k, fold_postorder(e.root, rebuild))
            assert {type(node) for _, node in walk_with_paths(sub.root)} <= set(kinds)
            assert validate_strict(sub) == validate_strict(e)
            if validate_strict(e).strict_valid:
                assert evaluate(sub) == evaluate(e)
                assert _decompose(sub)[0] == _decompose(e)[0]


class TestNormalize:
    def test_identity_on_strict(self):
        e = k2_expr()
        assert normalize(e) == e

    def test_drops_vacuous_join(self):
        inner = Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2)))
        e = CwExpr(2, Join(1, 2, inner))
        n = normalize(e)
        assert n == CwExpr(2, inner)
        assert validate_strict(n).strict_valid

    def test_drops_join_on_unused_color(self):
        e = CwExpr(3, Join(1, 3, Union(Leaf("a", 1), Leaf("b", 2))))
        n = normalize(e)
        assert n == CwExpr(3, Union(Leaf("a", 1), Leaf("b", 2)))

    def test_drops_recolor_with_unused_source(self):
        e = CwExpr(3, Recolor(3, 1, Leaf("a", 1)))
        assert normalize(e) == CwExpr(3, Leaf("a", 1))

    def test_swaps_recolor_with_unused_target(self):
        e = CwExpr(3, Recolor(1, 2, Leaf("a", 1)))
        n = normalize(e)
        assert n == CwExpr(3, Leaf("a", 2))
        assert evaluate(n).colors == evaluate(e).colors

    def test_swap_inside_larger_expression(self):
        # the recolor target 3 is unused below, so the subtree gets the
        # colors 1 and 3 swapped instead
        sub = Recolor(1, 3, Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2))))
        e = CwExpr(3, Union(sub, Leaf("c", 1)))
        n = normalize(e)
        assert validate_strict(n).strict_valid
        assert evaluate(n) == evaluate(e)

    def test_idempotent_and_evaluation_preserving(self):
        rng = random.Random(99)
        for _ in range(60):
            e = random_strict_expr(rng, rng.randint(2, 5), 12)
            n = normalize(e)
            assert n == normalize(n)
            assert evaluate(n) == evaluate(e)

    def test_out_of_palette_color_rejected(self):
        with pytest.raises(InputError):
            normalize(CwExpr(1, Leaf("a", 2)))

    @staticmethod
    def comb(m):
        """m colour-1 leaves joined by unions, with Recolor(1, 2) and Recolor(2, 1) in
        turn after every other union; each Recolor(1, 2) renames onto an unused colour."""
        node = Leaf("v0", 1)
        for i in range(1, m):
            node = Union(node, Leaf(f"v{i}", 1))
            if i % 2:
                node = Recolor(1, 2, node) if i % 4 == 1 else Recolor(2, 1, node)
        return CwExpr(2, node)

    def test_comb_swaps_every_renaming_away(self):
        e = self.comb(9)
        n = normalize(e)
        assert evaluate(n) == evaluate(e) and validate_strict(n).strict_valid
        assert sum(isinstance(node, Recolor) for _, node in walk_with_paths(n.root)) == 2

    def test_traced_lines_per_node_stay_flat(self):
        # a rewrite of the whole subtree below each of the m / 4 renamings
        # would make the lines per node grow linearly in m
        def lines_per_node(m):
            e, count = self.comb(m), [0]

            def tracer(frame, event, arg):
                count[0] += event == "line"
                return tracer

            sys.settrace(tracer)
            try:
                normalize(e)
            finally:
                sys.settrace(None)
            return count[0] / sum(1 for _ in walk_with_paths(e.root))

        assert lines_per_node(1000) < 1.2 * lines_per_node(250)

    def test_chain_of_renamings_takes_linear_memory(self):
        # Recolor(i, i + 1) for i = 1..s over two colour-1 leaves: every recolor
        # renames onto an unused colour, so the composed renaming below the chain
        # holds s colours, and a copy of it per renaming would take memory in s**2
        def peak_per_node(s):
            node = Union(Leaf("a", 1), Leaf("b", 1))
            for i in range(1, s + 1):
                node = Recolor(i, i + 1, node)
            e = CwExpr(s + 1, node)
            tracemalloc.start()
            try:
                assert normalize(e) == CwExpr(s + 1, Union(Leaf("a", s + 1), Leaf("b", s + 1)))
                return tracemalloc.get_traced_memory()[1] / (s + 3)
            finally:
                tracemalloc.stop()

        assert peak_per_node(1000) < 1.3 * peak_per_node(250)
