"""End-to-end runs of every subcommand through main(argv)."""

import argparse
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given, settings, strategies as st

from cwkit import (CoverFamily, CwExpr, Join, TreeDecomposition, decompose, evaluate,
                   format_expr, gen_path, gen_spider, gen_subdivided_clique, generate_corpus,
                   graph_to_dot, graph_to_json_dict, graphs, quasiiso, read_cwx, write_cwx)
from cwkit import cli, covers, expressions
from cwkit.cli import main

from helpers import one_line_text
from test_golden import mutate_text

K2_TEXT = """cw k=2
(join 1 2
  (union
    (v a 1)
    (v b 2)))
"""

# the join touches an empty colour class, so this is not strict; normalize
# repairs it by dropping the join
VACUOUS_TEXT = """cw k=2
(join 1 2
  (union
    (v a 1)
    (v b 1)))
"""


def strict_json(text):
    """json.loads that refuses NaN and the infinities, as strict JSON does."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.cwx"
    path.write_text(K2_TEXT)
    return str(path)


class TestEval:
    def test_json_output(self, capsys, k2_file):
        code, out, _ = run(capsys, "eval", k2_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 2
        assert obj["validation"]["strict_valid"] is True
        assert obj["graph"]["colors"] == {"a": 1, "b": 2}

    def test_pretty_output(self, capsys, k2_file):
        code, out, _ = run(capsys, "eval", k2_file, "--pretty")
        assert code == 0
        assert "k = 2" in out
        assert "edges = 1" in out

    def test_out_file(self, capsys, tmp_path, k2_file):
        dest = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", k2_file, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["k"] == 2

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cwx"
        bad.write_text("cw k=2\n(vv a 1)")
        code, _, err = run(capsys, "eval", str(bad))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("template, message, column", [
        ("cw k={}\n(v a 1)\n", "palette size k has too many digits", 6),
        ("cw k=3\n(v a {})\n", "leaf colour {} out of range 1..3", 6),
        ("cw k=3\n(join 1 {} (v a 1))\n", "join colour {} out of range 1..3", 9),
    ], ids=["header", "leaf-colour", "join-colour"])
    def test_integer_too_long_to_read_exits_2(self, capsys, tmp_path, template, message,
                                              column):
        digits = "9" * (sys.get_int_max_str_digits() + 1)  # int() refuses this many
        bad = tmp_path / "long.cwx"
        bad.write_text(template.format(digits))
        code, out, err = run(capsys, "eval", str(bad))
        line = 1 if "k={}" in template else 2
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(digits)} (line {line}, column {column})\n"

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13"], ids=["arabic-indic", "fullwidth"])
    def test_header_digits_are_ascii(self, capsys, tmp_path, digit):
        # both are Unicode decimal digits for 3, which a colour token never accepts
        bad = tmp_path / "digit.cwx"
        bad.write_text(f"cw k={digit}\n(v a 1)\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: expected header 'cw k=<int>' (line 1, column 1)\n"

    def test_leading_zeros_do_not_count_as_digits(self, capsys, tmp_path):
        zeros = "0" * (sys.get_int_max_str_digits() + 1)
        padded = tmp_path / "padded.cwx"
        padded.write_text(f"cw k={zeros}3\n(v a {zeros}2)\n")
        code, out, _ = run(capsys, "eval", str(padded))
        assert code == 0
        assert json.loads(out)["graph"]["colors"] == {"a": 2}
        padded.write_text(f"cw k=3\n(v a {zeros}7)\n")
        code, _, err = run(capsys, "eval", str(padded))
        assert code == 2
        assert err == "error: leaf colour 7 out of range 1..3 (line 2, column 6)\n"

    def test_missing_file_exits_3_cleanly(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", str(tmp_path / "nope.cwx"))
        assert code == 3
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unwritable_out_exits_3(self, capsys, tmp_path, k2_file):
        dest = tmp_path / "no" / "such" / "dir" / "x.json"
        code, _, err = run(capsys, "eval", k2_file, "--out", str(dest))
        assert code == 3
        assert err.startswith("error:")

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.cwx"
        bad.write_bytes("cw k=1\n(v caf\u00e9 1)\n".encode("latin-1"))
        code, out, err = run(capsys, "eval", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err


class TestDecompose:
    def test_verified_output(self, capsys, k2_file):
        code, out, _ = run(capsys, "decompose", k2_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["verification"]["ok"] is True
        assert obj["result"]["rainbow_node"] == 2

    def test_non_strict_exits_3(self, capsys, tmp_path):
        path = tmp_path / "loose.cwx"
        path.write_text(VACUOUS_TEXT)
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 3
        assert "not strict" in err

    def test_normalize_repairs(self, capsys, tmp_path):
        path = tmp_path / "loose.cwx"
        path.write_text(VACUOUS_TEXT)
        code, out, _ = run(capsys, "decompose", str(path), "--normalize")
        assert code == 0
        assert json.loads(out)["verification"]["ok"] is True

    def test_oracle_treewidth(self, capsys, tmp_path, k2_file):
        code, out, _ = run(capsys, "decompose", k2_file, "--oracle")
        assert code == 0
        assert json.loads(out)["quotient_treewidth"] == 1
        # the default length-3 path's 4-part quotient is a path, of treewidth 1
        path = str(tmp_path / "p3.cwx")
        assert run(capsys, "generate", "path", "--length", "3", "--out", path)[0] == 0
        code, out, _ = run(capsys, "decompose", path, "--oracle")
        obj = json.loads(out)
        assert (code, len(obj["result"]["parts"]), obj["quotient_treewidth"]) == (0, 4, 1)

    def test_oracle_falls_back_to_minor_bound(self, capsys, k2_file):
        code, out, _ = run(capsys, "decompose", k2_file, "--oracle",
                           "--cap", "1")
        assert code == 0
        obj = json.loads(out)
        assert "quotient_treewidth" not in obj
        assert obj["quotient_treewidth_lower_bound"] == 1
        assert "complete minor" in obj["oracle_note"]

    def test_oracle_refuses_a_negative_cap(self, capsys, k2_file):
        code, out, err = run(capsys, "decompose", k2_file, "--oracle", "--cap", "-1")
        assert (code, out, err) == (3, "", "error: treewidth cap must be >= 0, got -1\n")
        # a cap of 0 holds no quotient, so the minor bound is printed
        code, out, _ = run(capsys, "decompose", k2_file, "--oracle", "--cap", "0")
        assert code == 0 and json.loads(out)["quotient_treewidth_lower_bound"] == 1

    def test_oracle_bounds_a_large_quotient_without_a_cap(self, capsys, tmp_path):
        # K_5 at 7 subdivisions has a 72-vertex quotient, above the old minor search's cap
        path = tmp_path / "k5.cwx"
        write_cwx(path, gen_subdivided_clique(5, 7))
        code, out, err = run(capsys, "decompose", str(path), "--oracle")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert len(obj["result"]["parts"]) == 72
        assert obj["quotient_treewidth_lower_bound"] == 3
        assert obj["oracle_note"] == ("exact oracle above its size cap; "
                                      "bound certified by a complete minor")

    def test_dot_output(self, capsys, k2_file):
        code, out, _ = run(capsys, "decompose", k2_file, "--dot")
        assert code == 0
        assert out.startswith("graph decomposition {")

    @pytest.mark.parametrize("extra, flag", [(["--oracle"], "--oracle"), (["--cap", "3"], "--cap"),
                                             (["--oracle", "--cap", "30"], "--oracle")],
                             ids=["oracle", "cap", "both"])
    def test_dot_refuses_the_treewidth_options(self, capsys, k2_file, extra, flag):
        # DOT has no place for a treewidth, so the oracle's answer would be dropped
        code, out, err = run(capsys, "decompose", k2_file, "--dot", *extra)
        assert (code, out, err) == (3, "", f"error: argument {flag}: not allowed with "
                                           "argument --dot\n")

    def test_a_long_legged_spider_verifies(self, capsys, tmp_path):
        # a spider's recolors move each leg's parts into colours the rainbow bag already
        # holds; decompose re-verifies the bag it keeps, one part of each colour
        path = str(tmp_path / "spider.cwx")
        assert run(capsys, "generate", "spider", "--legs", "40,50,60", "--out", path)[0] == 0
        code, out, _ = run(capsys, "decompose", path)
        assert code == 0 and json.loads(out)["verification"]["ok"] is True

    @pytest.fixture
    def p300(self, capsys, tmp_path):
        """A 300-edge path's canonical text file, and one of the same body on one line."""
        canonical, line = tmp_path / "p300.cwx", tmp_path / "p300-line.cwx"
        assert run(capsys, "generate", "path", "--length", "300", "--palette", "4", "--x-color",
                   "3", "--inner-color", "1", "--out", str(canonical))[0] == 0
        header, body = canonical.read_text(encoding="utf-8").split("\n", 1)
        line.write_text(f"{header}\n{' '.join(body.split())} \n", encoding="utf-8")
        return canonical, line

    def test_canonical_and_one_line_text_print_the_same_json(self, capsys, p300):
        # parse reads one-line text: the canonical text (89 KB, its indent capped at depth
        # 32) and the one line (14 KB) decompose to the same bytes.  cwkit writes indented
        # JSON itself: the running interpreter's json module must give the same bytes.
        canonical, line = p300
        code, out, err = run(capsys, "decompose", str(canonical))
        assert (code, err) == (0, "")
        assert run(capsys, "decompose", str(line)) == (0, out, "")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_a_folded_file_is_parsed_again_for_its_error(self, capsys, tmp_path, p300):
        # decompose folds a file's text without an AST; an error re-parses it, so the one
        # line cut before its closing parens exits 2 and a recolor of an unused colour 3
        cut = tmp_path / "p300-cut.cwx"
        cut.write_text(p300[1].read_text(encoding="utf-8").rstrip(") \n") + "\n")
        code, out, err = run(capsys, "decompose", str(cut))
        assert (code, out) == (2, "") and err.startswith("error: ")
        unused = tmp_path / "unused.cwx"
        unused.write_text("cw k=3\n(recolor 3 1 (v a 1))\n")
        code, out, err = run(capsys, "decompose", str(unused))
        assert (code, out) == (3, "") and "expression is not strict" in err


class TestGenerate:
    # the generators build strict expressions by construction
    @pytest.mark.parametrize("options, vertices", [
        (["--length", "5"], 6),
        (["--length", "200", "--palette", "4", "--x-color", "3", "--inner-color", "1"], 201)],
        ids=["5", "200"])
    def test_path_round_trips_through_eval(self, capsys, tmp_path, options, vertices):
        dest = tmp_path / "path.cwx"
        code, _, _ = run(capsys, "generate", "path", *options, "--out", str(dest))
        assert code == 0
        code, out, _ = run(capsys, "eval", str(dest))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["graph"]["vertices"]) == vertices
        assert obj["validation"]["strict_valid"] is True

    @pytest.mark.parametrize("legs, vertices", [("2,2,2", 7), ("1,1,1", 4)])
    def test_spider(self, capsys, tmp_path, legs, vertices):
        dest = tmp_path / "spider.cwx"
        code, _, _ = run(capsys, "generate", "spider", "--legs", legs,
                         "--out", str(dest))
        assert code == 0
        code, out, _ = run(capsys, "eval", str(dest))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["graph"]["vertices"]) == vertices
        assert obj["validation"]["strict_valid"] is True

    def test_subdivided_clique(self, capsys, tmp_path):
        dest = tmp_path / "clique.cwx"
        code, _, _ = run(capsys, "generate", "subdivided-clique",
                         "--n", "4", "--times", "1", "--out", str(dest))
        assert code == 0
        code, out, _ = run(capsys, "eval", str(dest))
        assert len(json.loads(out)["graph"]["vertices"]) == 10

    def test_canonical_text_grows_linearly(self, capsys, tmp_path):
        # 2,000 edges write about 0.6 MB; an indent that grew with the depth wrote 48 MB
        dest = tmp_path / "p2000.cwx"
        assert run(capsys, "generate", "path", "--length", "2000", "--palette", "4",
                   "--out", str(dest))[0] == 0
        assert dest.stat().st_size <= 700_000

    @pytest.mark.parametrize("length", ["1", "2", "3"])
    def test_a_bad_endpoint_id_is_named_as_given(self, capsys, length):
        # the interior names are made from both ends: 'a-a b.1' is not the one to blame
        code, out, err = run(capsys, "generate", "path", "--x", "a", "--y", "a b",
                             "--length", length)
        assert (code, out, err) == (3, "", "error: invalid vertex id 'a b'\n")

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    def test_a_huge_palette_needs_no_memory_of_its_size(self, tmp_path):
        # the palette size changes only numbers in the output, and it is no size
        dest = tmp_path / "big.cwx"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        limit = 512 << 20
        done = subprocess.run(
            [sys.executable, "-m", "cwkit.cli", "generate", "path", "--length", "2000",
             "--palette", str(10 ** 12), "--out", str(dest)], env=env, capture_output=True,
            text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        with open(dest) as f:
            header = f.readline()
        dest.unlink()  # about 0.6 MB of text
        assert header == "cw k=1000000000000\n"

    def test_bad_parameters_exit_3(self, capsys):
        code, _, err = run(capsys, "generate", "path", "--length", "0")
        assert code == 3
        assert "error:" in err
        code, _, _ = run(capsys, "generate", "spider", "--legs", "1,1")
        assert code == 3
        code, out, err = run(capsys, "generate", "spider", "--legs", "1,x,3")
        assert (code, out) == (3, "")
        assert err == ("error: bad leg list '1,x,3': "
                       "invalid literal for int() with base 10: 'x'\n")


class TestCorpus:
    def test_batch_runs_and_is_deterministic(self, capsys, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        code, out, _ = run(capsys, "corpus", "--seed", "7", "--count", "6",
                           "--max-k", "4", "--max-leaves", "10",
                           "--out-dir", str(first))
        assert code == 0
        summary = json.loads(out)
        assert summary["all_pass"] is True
        assert len(summary["instances"]) == 6
        assert (first / "expr_0003.cwx").exists()
        code, _, _ = run(capsys, "corpus", "--seed", "7", "--count", "6",
                         "--max-k", "4", "--max-leaves", "10",
                         "--out-dir", str(second))
        assert code == 0
        assert (first / "summary.json").read_text() == \
            (second / "summary.json").read_text()
        assert (first / "expr_0005.cwx").read_text() == \
            (second / "expr_0005.cwx").read_text()

    def test_summary_is_serialized_once(self, capsys, tmp_path, monkeypatch):
        dumps = []
        real = cli._dump
        monkeypatch.setattr(cli, "_dump", lambda obj: dumps.append(obj) or real(obj))
        argv = ["corpus", "--seed", "3", "--count", "4", "--out-dir", str(tmp_path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(dumps) == 1
        assert out == (tmp_path / "summary.json").read_text(encoding="utf-8")
        code, pretty, _ = run(capsys, *argv, "--pretty")
        assert pretty == f"4/4 instances pass\nwritten to {tmp_path}\n"

    @pytest.mark.parametrize("fails", [("tight_projection_bounds",), ("qi_at_3",),
                                       ("tight_projection_bounds", "qi_at_3")],
                             ids=["tight", "qi3", "both"])
    def test_a_failed_projection_verdict_is_named(self, capsys, tmp_path, monkeypatch, fails):
        def verdict(name):
            return SimpleNamespace(ok=name not in fails)
        monkeypatch.setattr(cli, "_verify_projection", lambda g, p, c: (
            verdict("tight_projection_bounds"), verdict("qi_at_3"), None))
        code, out, _ = run(capsys, "corpus", "--seed", "1", "--count", "2",
                           "--out-dir", str(tmp_path))
        assert code == 3
        summary = json.loads(out)
        assert summary["all_pass"] is False
        assert [(item["pass"], item["failed"]) for item in summary["instances"]] == [
            (False, list(fails))] * 2

    def test_stdout_is_the_summary_it_writes(self, capsys, tmp_path):
        # each instance passes the same projection verdict as qi-check
        code, out, _ = run(capsys, "corpus", "--seed", "1", "--count", "20",
                           "--out-dir", str(tmp_path))
        assert code == 0 and json.loads(out)["all_pass"] is True
        assert out == (tmp_path / "summary.json").read_text(encoding="utf-8")

    def test_empty_corpus(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--seed", "1", "--count", "0",
                           "--out-dir", str(tmp_path / "none"))
        assert code == 0
        assert json.loads(out)["instances"] == []


class TestQiCheck:
    def test_projection_pipeline(self, capsys, k2_file):
        code, out, _ = run(capsys, "qi-check", k2_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["qi"]["ok"] is True
        assert obj["tight_projection_bounds"]["ok"] is True

    def test_too_small_c_fails(self, capsys, k2_file):
        code, out, _ = run(capsys, "qi-check", k2_file, "--c", "0.5")
        assert code == 3
        assert json.loads(out)["qi"]["ok"] is False
        # below D + 1 the certificate does not apply: the scan decides, with a witness
        obj = strict_json(out)
        assert obj.pop("certificate")["applied"] is False
        assert obj == json.loads(run(capsys, "qi-check", k2_file, "--c", "0.5", "--exhaustive")[1])
        assert obj["qi"]["distance_bounds"]["witness"]

    def test_a_subdivided_k5_passes_by_the_certificate_and_by_the_scan(self, capsys, tmp_path):
        # qi-check certifies by the projection lemma; --exhaustive runs the exact pair scan
        path = str(tmp_path / "k5.cwx")
        assert run(capsys, "generate", "subdivided-clique", "--n", "5", "--times", "7",
                   "--out", path)[0] == 0
        runs = [run(capsys, "qi-check", path, *extra) for extra in ((), ("--exhaustive",))]
        assert [code for code, _, _ in runs] == [0, 0]
        certified, exhaustive = (json.loads(out) for _, out, _ in runs)
        for obj in (certified, exhaustive):
            assert obj["qi"]["ok"] is True and obj["tight_projection_bounds"]["ok"] is True
        assert certified["certificate"]["applied"] is True
        assert "worst_lower_margin" not in certified["qi"]["distance_bounds"]
        assert "worst_lower_margin" in exhaustive["qi"]["distance_bounds"]

    def test_explicit_map(self, capsys, tmp_path):
        graph = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {"a": "a", "b": "b"}, "c": 1}))
        code, out, _ = run(capsys, "qi-check", "--map", str(mpath),
                           "--source", str(gpath), "--target", str(gpath))
        assert code == 0
        assert json.loads(out)["qi"]["ok"] is True

    def test_overflowed_margin_counts_in_a_row_with_a_disconnected_pair(self, capsys,
                                                                          tmp_path):
        # 2 / 1e-308 overflows; the row from "a" also holds the pair (a, z),
        # infinite on both sides, which must not hide that finite pair's margin
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b", "c", "z"],
                                     "edges": [["a", "b"], ["b", "c"]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {v: v for v in "abcz"}, "c": 1e-308}))
        code, out, _ = run(capsys, "qi-check", "--map", str(mpath),
                           "--source", str(gpath), "--target", str(gpath))
        assert code == 3
        bounds = strict_json(out)["qi"]["distance_bounds"]
        assert bounds["worst_lower_margin"] is None  # not 1e+308
        assert bounds["witness"] == ["a", "b", "dist 1 maps to 1"]

    def test_map_needs_both_graphs(self, capsys, tmp_path):
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {}, "c": 1}))
        code, _, err = run(capsys, "qi-check", "--map", str(mpath))
        assert code == 3
        assert "--source and --target" in err

    def test_no_arguments_at_all(self, capsys):
        code, _, err = run(capsys, "qi-check")
        assert code == 3
        assert "expression file" in err

    def test_one_vertex_prints_strict_json(self, capsys, tmp_path):
        path = tmp_path / "one.cwx"
        path.write_text("cw k=1\n(v a 1)\n")
        code, out, _ = run(capsys, "qi-check", str(path), "--exhaustive")
        assert code == 0
        bounds = strict_json(out)["qi"]["distance_bounds"]
        assert bounds["worst_lower_margin"] is None
        assert bounds["worst_upper_margin"] is None

    @pytest.mark.parametrize("text", ["cw k=1\n(v a 1)\n",
                                      "cw k=2\n(union (v a 1) (v b 2))\n"],
                             ids=["one-vertex", "edgeless"])
    def test_no_edge_prints_null_upper_margins_under_the_certificate(self, capsys,
                                                                     tmp_path, text):
        path = tmp_path / "small.cwx"
        path.write_text(text)
        code, out, _ = run(capsys, "qi-check", str(path))
        assert code == 0
        obj = strict_json(out)
        assert obj["certificate"] == {"D": 0, "onto": True, "crossing_edges_exact": True,
                                      "c_at_least_D_plus_1": True, "applied": True}
        bounds = obj["qi"]["distance_bounds"]
        assert (bounds["ok"], bounds["witness"], bounds["worst_upper_margin"]) == \
            (True, None, None)
        assert "worst_lower_margin" not in bounds
        assert obj["tight_projection_bounds"]["upper"]["worst_margin"] == 0

    @pytest.mark.parametrize("extra", [("--pretty",), ("--c", "2", "--pretty"),
                                       ("--c", "0.5", "--pretty")])
    def test_pretty_summary_is_the_same_in_both_modes(self, capsys, k2_file, extra):
        assert run(capsys, "qi-check", k2_file, *extra) == \
            run(capsys, "qi-check", k2_file, *extra, "--exhaustive")

    def test_map_ignores_exhaustive(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {"a": "a", "b": "a"}, "c": 1}))
        argv = ("qi-check", "--map", str(mpath), "--source", str(gpath), "--target", str(gpath))
        assert run(capsys, *argv, "--exhaustive") == run(capsys, *argv)

    def test_weak_diameters_are_measured_once(self, capsys, tmp_path, monkeypatch):
        # once per part of two or more vertices; a one-vertex part's is 0, unmeasured
        e = gen_spider(3, [3, 4, 5])
        path = tmp_path / "spider.cwx"
        write_cwx(path, e)
        calls = []
        real = quasiiso.weak_diameter
        monkeypatch.setattr(quasiiso, "weak_diameter",
                            lambda g, s: calls.append(s) or real(g, s))
        code, out, _ = run(capsys, "qi-check", str(path))
        assert code == 0
        sizes = [len(members) for _, members in decompose(e).partition]
        assert 1 in sizes and max(sizes) > 1
        assert sorted(map(len, calls)) == sorted(size for size in sizes if size > 1)
        assert json.loads(out)["c"] == json.loads(out)["tight_projection_bounds"]["c"] + 1

    def test_map_value_that_is_no_vertex_id_exits_3(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b", "x"], "edges": []}))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {"a": ["x"], "b": "a", "x": "x"}, "c": 2}))
        code, out, err = run(capsys, "qi-check", "--map", str(mpath),
                             "--source", str(gpath), "--target", str(gpath))
        assert (code, out) == (3, "")
        assert "not a vertex id" in err and "Traceback" not in err

    @pytest.mark.parametrize("f", [["ab", "ba"], [["a", "b"], ["b", "a"]]],
                             ids=["strings", "pairs"])
    def test_map_that_is_no_object_exits_3(self, capsys, tmp_path, f):
        # dict() would read either list as a -> b, b -> a and check that map
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": f, "c": 2}))
        code, out, err = run(capsys, "qi-check", "--map", str(mpath),
                             "--source", str(gpath), "--target", str(gpath))
        assert (code, out) == (3, "")
        assert err == ("error: malformed quasi-isometry map object: "
                       "f must be an object, not a list\n")

    @pytest.mark.parametrize("value", ["true", "1.0", "false", "2.0", "null"])
    def test_boolean_or_float_map_value_exits_3(self, capsys, tmp_path, value):
        # Python's equality would merge true and 1.0 with the vertex 1 and pass the map;
        # null names no vertex
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text('{"f": {"1": %s, "2": 2}, "c": 1}' % value)
        code, out, err = run(capsys, "qi-check", "--map", str(mpath),
                             "--source", str(gpath), "--target", str(gpath))
        assert (code, out) == (3, "")
        assert err == (f"error: map sends '1' to {json.loads(value)!r}, "
                       "which is not a vertex id\n")

    def test_map_parameter_too_big_for_a_float_exits_3(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {"a": "a", "b": "b"}, "c": 10 ** 400}))
        code, out, err = run(capsys, "qi-check", "--map", str(mpath),
                             "--source", str(gpath), "--target", str(gpath))
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed quasi-isometry map object: ")

    @pytest.mark.parametrize("flag", ["true", "false"])
    def test_boolean_map_parameter_exits_3(self, capsys, tmp_path, flag):
        # float() would read true as c = 1 and pass the identity map
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text('{"f": {"a": "a", "b": "b"}, "c": %s}' % flag)
        code, out, err = run(capsys, "qi-check", "--map", str(mpath),
                             "--source", str(gpath), "--target", str(gpath))
        assert (code, out) == (3, "")
        assert err == ("error: malformed quasi-isometry map object: "
                       f"c must be a number, not {flag.title()}\n")

    @pytest.mark.parametrize("text", ["2", "1e3", " 3 ", "nan"])
    def test_string_map_parameter_exits_3(self, capsys, tmp_path, text):
        # float() would read "2" as c = 2 and pass the identity map
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {"a": "a", "b": "b"}, "c": text}))
        code, out, err = run(capsys, "qi-check", "--map", str(mpath),
                             "--source", str(gpath), "--target", str(gpath))
        assert (code, out) == (3, "")
        assert err == ("error: malformed quasi-isometry map object: "
                       f"c must be a number, not {text!r}\n")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_c_exits_3(self, capsys, k2_file, bad):
        code, out, err = run(capsys, "qi-check", k2_file, "--c", bad)
        assert code == 3
        assert out == ""
        assert "finite" in err


class TestMinorModel:
    def test_default_clique_pullback(self, capsys):
        code, out, _ = run(capsys, "minor-model", "--n", "4", "--times", "7")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["branch_sets"]) == 4
        assert len(obj["edge_paths"]) == 6

    @pytest.mark.parametrize("argv, paths", [(["--n", "5", "--times", "8"], 10),
                                             (["--n", "7", "--times", "8"], 21),
                                             (["--n", "5", "--times", "15", "--c", "1.5"], 10),
                                             (["--n", "12", "--times", "48"], 66)],
                             ids=["k5", "k7", "k5-c1.5", "k12"])
    def test_large_host_without_a_cap(self, capsys, argv, paths):
        # K_5's host has 5 + 10 * 8 = 85 vertices, above the old minor search's cap;
        # build_minor_model checks its model against the definition of a minor.  A
        # fractional c(c+1) cuts the stretches at its floor; the model is still checked in
        # the host only, so c = 1.5 gives a model of K_5.  The searches are bounded in
        # number: K_12 at 48 subdivisions takes well under the minute allowed here
        start = time.perf_counter()
        code, out, err = run(capsys, "minor-model", *argv)
        assert time.perf_counter() - start < 60
        assert (code, err) == (0, "") and len(json.loads(out)["edge_paths"]) == paths

    def test_shallow_subdivision_exits_3(self, capsys):
        code, _, err = run(capsys, "minor-model", "--n", "4", "--times", "3")
        assert code == 3
        assert "too shallow" in err

    @pytest.mark.parametrize("c", ["1e154", "1e308"])
    def test_overflowing_depth_requirement_exits_3(self, capsys, c):
        # 4c(c+1) overflows to inf, which has no int()
        code, out, err = run(capsys, "minor-model", "--c", c)
        assert (code, out) == (3, "")
        assert err == ("error: subdivision too shallow: path '1'..'2' has length 8, "
                       "need >= inf\n")

    @pytest.mark.parametrize("n, times, message", [
        ("-1", "3", "K_n needs n >= 0, got -1"),
        ("1", "-1", "subdivision count must be an int >= 0, got -1"),
        ("0", "-1", "subdivision count must be an int >= 0, got -1"),
        ("4", "-1", "subdivision count must be an int >= 0, got -1"),
    ])
    def test_negative_sizes_exit_3(self, capsys, n, times, message):
        code, out, err = run(capsys, "minor-model", "--n", n, "--times", times)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("n, branch_sets", [("0", {}), ("1", {"1": ["1"]})])
    def test_edgeless_patterns_still_pass(self, capsys, n, branch_sets):
        code, out, _ = run(capsys, "minor-model", "--n", n, "--times", "0")
        assert code == 0
        assert json.loads(out) == {"branch_sets": branch_sets, "edge_paths": {}}

    def test_separations_make_no_set_distance_call(self, capsys):
        # one set_distance per pair of balls and stretches took 2,871 calls here
        calls, code_of = [], graphs.set_distance.__code__

        def profile(frame, event, _):
            if event == "call" and frame.f_code is code_of:
                calls.append(frame)

        sys.setprofile(profile)
        try:
            code, out, _ = run(capsys, "minor-model", "--n", "12", "--times", "48")
        finally:
            sys.setprofile(None)
        assert code == 0 and len(json.loads(out)["edge_paths"]) == 66
        assert calls == []

    def test_one_vertex_fibres_are_not_measured(self, capsys, monkeypatch):
        # the identity map's fibres are single vertices, of weak diameter 0 by
        # definition; measuring each took one call per host vertex, 75 here
        calls, real = [], quasiiso.weak_diameter
        monkeypatch.setattr(quasiiso, "weak_diameter", lambda g, s: calls.append(s) or real(g, s))
        code, out, _ = run(capsys, "minor-model", "--n", "5", "--times", "7")
        assert code == 0 and len(json.loads(out)["edge_paths"]) == 10
        assert calls == []

    def test_overflowing_ball_radius_without_paths(self, capsys):
        # K_1 has no subdivision path, so only the ball radius c(c+1) = inf is left
        code, out, _ = run(capsys, "minor-model", "--n", "1", "--c", "1e308")
        assert code == 0
        assert json.loads(out) == {"branch_sets": {"1": ["1"]}, "edge_paths": {}}


class TestCoverPullback:
    def test_default_component_cover(self, capsys, k2_file):
        code, out, _ = run(capsys, "cover-pullback", k2_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["c"] == 1
        assert obj["cover"]["bound"] == 3
        assert obj["validation"]["ok"] is True

    def test_custom_target_cover(self, capsys, tmp_path, k2_file):
        cover = {"collections": [[["a"]], [["b"]]], "r": 2, "bound": 0}
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps(cover))
        code, out, _ = run(capsys, "cover-pullback", k2_file,
                           "--cover", str(cpath))
        assert code == 0
        assert json.loads(out)["cover"]["n"] == 1

    def test_separation_checked_at_inflated_scale(self, capsys, tmp_path,
                                                  k2_file):
        cover = {"collections": [[["a"], ["b"]]], "r": 2, "bound": 0}
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps(cover))
        code, _, err = run(capsys, "cover-pullback", k2_file,
                           "--cover", str(cpath))
        assert code == 3
        assert "separation" in err

    @staticmethod
    def count_searches(monkeypatch):
        """The graphs._walk searches run, and the _weak_diameter calls whose set is every
        vertex of its graph."""
        searches, whole, walk, measure = [], [], graphs._walk, graphs._weak_diameter

        def weak_diameter(adj, members, s):
            if len(s) == len(adj):
                whole.append(s)
            return measure(adj, members, s)

        monkeypatch.setattr(graphs, "_walk", lambda *a: searches.append(1) or walk(*a))
        monkeypatch.setattr(graphs, "_weak_diameter", weak_diameter)
        return searches, whole

    def test_subdivided_cliques_take_the_same_searches_at_every_n(self, capsys, tmp_path,
                                                                   monkeypatch):
        # the components cover and both checks pass the quotient and the graph by one
        # search from a least vertex each; measuring the quotient exactly ran 3n + 7
        # searches, 31, 55 and 79 here, and measured every vertex of the quotient
        searches, whole = self.count_searches(monkeypatch)
        counts = []
        for n in (8, 16, 24):
            path = tmp_path / f"k{n}.cwx"
            write_cwx(path, gen_subdivided_clique(n, 48))
            searches.clear()
            code, out, _ = run(capsys, "cover-pullback", str(path), "--r", "2")
            assert code == 0 and json.loads(out)["validation"]["ok"] is True
            counts.append(len(searches))
        assert counts == [counts[0]] * 3, counts
        assert whole == []

    @pytest.mark.parametrize("n, times", [(5, 7), (12, 48)], ids=["k5", "k12"])
    def test_a_subdivided_clique_validates_within_a_minute(self, capsys, tmp_path, n, times):
        path = str(tmp_path / "k.cwx")
        assert run(capsys, "generate", "subdivided-clique", "--n", str(n), "--times", str(times),
                   "--out", path)[0] == 0
        start = time.perf_counter()
        code, out, _ = run(capsys, "cover-pullback", path)
        assert time.perf_counter() - start < 60
        assert code == 0 and json.loads(out)["validation"]["ok"] is True

    def test_closed_paths_take_the_same_searches_at_every_length(self, capsys, tmp_path,
                                                                  monkeypatch):
        # every vertex of a cycle is as eccentric as any other, so its exact diameter
        # took about one search per vertex: L + 7 in all
        searches, whole = self.count_searches(monkeypatch)
        counts = []
        for length in (200, 800):
            path = tmp_path / f"cycle{length}.cwx"
            write_cwx(path, CwExpr(4, Join(1, 2, gen_path("x", "y", length, 4, 1, 2, 3).root)))
            searches.clear()
            code, out, _ = run(capsys, "cover-pullback", str(path))
            assert code == 0 and json.loads(out)["validation"]["ok"] is True
            counts.append(len(searches))
        assert counts[0] == counts[1], counts
        assert whole == []

    @pytest.mark.parametrize("legs_or_length, r, diameter",
                             [(("spider", "--legs", "1,2,14"), "1.1", 15),
                              (("path", "--length", "61"), "2.5", 61),
                              (("spider", "--legs", "1,2,122"), "4", 123)],
                             ids=["spider-1-2-14", "path-61", "spider-1-2-122"])
    def test_the_least_slope_is_enough_where_the_quotient_rounds_down(
            self, capsys, tmp_path, legs_or_length, r, diameter):
        # a cover file bounds the connected quotient by its weak diameter, and
        # diameter / target_scale rounds down here, so that slope times the target scale
        # is below the diameter; the next float up is the slope
        path = str(tmp_path / "g.cwx")
        assert run(capsys, "generate", *legs_or_length, "--out", path)[0] == 0
        cpath, ids = tmp_path / "cover.json", list(decompose(read_cwx(path)).partition.ids)
        cpath.write_text(json.dumps({"collections": [[ids]], "r": "infinite", "bound": diameter}))
        code, out, err = run(capsys, "cover-pullback", path, "--r", r, "--cover", str(cpath))
        assert (code, err) == (0, "")
        obj = json.loads(out)
        t = obj["target_scale"]
        assert (diameter / t) * t < diameter <= obj["slope"] * t
        assert obj["slope"] == math.nextafter(diameter / t, math.inf)
        assert obj["validation"]["ok"] is True
        # the default components cover validates too; the spider's bound 30 over the
        # target scale 6.300000000000001 rounds down as well
        code, out, _ = run(capsys, "cover-pullback", path, "--r", r)
        assert code == 0 and json.loads(out)["validation"]["ok"] is True

    def test_an_infinite_target_scale_is_named(self, capsys, tmp_path):
        # --r is finite, c*r + c is not: exit 3, naming the target scale
        path = str(tmp_path / "k4.cwx")
        write_cwx(path, gen_subdivided_clique(4, 3))
        code, out, err = run(capsys, "cover-pullback", path, "--r", "8e307")
        assert (code, out, err) == (3, "", "error: target scale c*r + c must be finite, "
                                           "got inf at c=3\n")

    @pytest.mark.parametrize("collections", [[["ab"]], [[{"a": 1, "b": 2}]], [{"ab": 1}]])
    def test_a_set_that_is_no_list_exits_3(self, capsys, tmp_path, k2_file, collections):
        # read as the set of its characters or keys, each would be the cover {a, b}
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": collections, "r": 0, "bound": 3}))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert (code, out) == (3, "")
        assert err == "error: malformed cover object: collections and their sets must be lists\n"

    def test_scale_below_one_exits_3(self, capsys, k2_file):
        code, _, err = run(capsys, "cover-pullback", k2_file, "--r", "0.5")
        assert code == 3
        assert ">= 1" in err

    @pytest.mark.parametrize("cover", [False, True])
    def test_scale_minus_one_exits_3(self, capsys, tmp_path, k2_file, cover):
        # the target scale c*r + c is 0 there, and the slope divides by it
        extra = []
        if cover:
            cpath = tmp_path / "cover.json"
            cpath.write_text(json.dumps({"collections": [[["a"]], [["b"]]], "r": 0,
                                         "bound": 0}))
            extra = ["--cover", str(cpath)]
        code, out, err = run(capsys, "cover-pullback", k2_file, "--r", "-1", *extra)
        assert (code, out, err) == (3, "", "error: pullback scale must be >= 1\n")

    @pytest.mark.parametrize("slope", [[]], ids=["smallest-slope"])
    @pytest.mark.parametrize("r, message", [("nan", "pullback scale must be finite, got nan"),
                                            ("-5", "pullback scale must be >= 1")],
                             ids=["nan", "negative"])
    def test_a_bad_scale_is_named_as_given(self, capsys, k2_file, slope, r, message):
        # not the target scale c*r + c formed from it
        code, out, err = run(capsys, "cover-pullback", k2_file, f"--r={r}", *slope)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_a_bad_scale_is_named_before_a_bad_slope_or_cover(self, capsys, tmp_path,
                                                               k2_file):
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": [[["a"]], [["b"]]], "r": True,
                                     "bound": 0}))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--r=0.5", "--cover", str(cpath))
        assert (code, out, err) == (3, "", "error: pullback scale must be >= 1\n")

    def test_the_pulled_cover_is_checked_once(self, capsys, k2_file, monkeypatch):
        # pullback_cover checks the target cover, the command the cover it returns
        calls = []
        for module in (covers, cli):
            monkeypatch.setattr(module, "validate_cover",
                                lambda g, cf, real=module.validate_cover:
                                    calls.append(g) or real(g, cf))
        code, out, _ = run(capsys, "cover-pullback", k2_file)
        assert code == 0 and json.loads(out)["validation"]["ok"] is True
        assert len(calls) == 2

    def test_the_check_does_not_trust_the_pullback(self, capsys, k2_file, monkeypatch):
        # a pullback that drops a set fails the command's one check of its cover
        def lossy(*args):
            cf = real(*args)
            return CoverFamily((cf.collections[0][1:],), cf.r, cf.diameter_bound)

        real = cli.pullback_cover
        monkeypatch.setattr(cli, "pullback_cover", lossy)
        code, out, _ = run(capsys, "cover-pullback", k2_file)
        validation = json.loads(out)["validation"]
        assert code == 3 and validation["ok"] is False
        assert validation["checks"][0] == {"name": "coverage", "ok": False,
                                           "witness": "uncovered vertices ['a', 'b']"}

    @pytest.mark.parametrize("flag", ["--r"])
    def test_infinite_scale_or_slope_exits_3(self, capsys, k2_file, flag):
        code, out, err = run(capsys, "cover-pullback", k2_file, flag, "inf")
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_slope_is_an_argparse_error(self, k2_file):
        # the slope follows the target cover's bound: a looser slope s is the bound s*(c*r + c)
        code, out, err = exit_of(main, ["cover-pullback", k2_file, "--slope", "2"])
        assert (code, out) == (("SystemExit", 2), "")
        assert err.endswith("error: unrecognized arguments: --slope 2\n")

    def test_a_cover_file_bound_sets_the_slope(self, capsys, tmp_path, k2_file):
        # bound 10 is above the widest set's 1 and c*r + c = 2: slope 10 / 2, and the
        # pulled bound c*slope*(2*c*r) + c*c*r is 11
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": [[["a", "b"]]], "r": 2, "bound": 10}))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["target_scale"], obj["slope"], obj["cover"]["bound"]) == (2, 5, 11)
        assert obj["validation"]["ok"] is True

    def test_a_set_wider_than_the_cover_bound_exits_3(self, capsys, tmp_path):
        # the length-3 path is its own quotient; its one set has weak diameter 3, above
        # max(bound, c*r + c) = 2
        path = tmp_path / "p3.cwx"
        write_cwx(path, gen_path("x", "y", 3, 3, 1, 2, 1))
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": [[["x", "x-y.1", "x-y.2", "y"]]], "r": 2,
                                     "bound": 1}))
        code, out, err = run(capsys, "cover-pullback", str(path), "--cover", str(cpath))
        assert (code, out, err) == (3, "", "error: cover fails on the target at scale 2.0: "
                                           "diameter: collection 0: set of size 4 has weak "
                                           "diameter 3 > bound 2.0\n")

    def test_a_400_digit_cover_bound_exits_3(self, capsys, tmp_path, k2_file):
        cpath = tmp_path / "cover.json"
        cpath.write_text('{"collections": [[["a"]], [["b"]]], "r": 2, "bound": 1%s}' % ("0" * 399))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert (code, out) == (3, "")
        assert err == f"error: target cover bound must be a finite float, got {10 ** 399}\n"

    @pytest.mark.parametrize("kind, r, c", [(["path"], "8e307", 1),
                                            (["subdivided-clique", "--n", "4", "--times", "3"],
                                             "1e307", 3)], ids=["path-3", "k4-3"])
    def test_an_infinite_pulled_bound_exits_3(self, capsys, tmp_path, kind, r, c):
        # c*r + c is finite here, the pulled bound c*slope*(2*c*r) + c*c*r is not
        path = str(tmp_path / "g.cwx")
        assert run(capsys, "generate", *kind, "--out", path)[0] == 0
        code, out, err = run(capsys, "cover-pullback", path, "--r", r)
        assert (code, out, err) == (3, "", "error: pulled bound c*slope*(2*c*r) + c*c*r must "
                                           f"be finite, got inf at c={c}\n")

    def test_a_cover_file_is_measured_by_the_target_check_alone(self, capsys, tmp_path,
                                                               monkeypatch):
        # the length-120 path is its own quotient (c = 1, c*r + c = 2), cut in path order
        # into blocks of 4 that alternate between two collections at bound 3. Nothing is
        # searched between reading the file and the pullback, whose target check measures
        # the blocks: 243 searches, where measuring them first as well took 333
        path = str(tmp_path / "p120.cwx")
        assert run(capsys, "generate", "path", "--length", "120", "--out", path)[0] == 0
        order = ["x", *(f"x-y.{i}" for i in range(1, 120)), "y"]
        blocks = [order[i:i + 4] for i in range(0, len(order), 4)]
        cpath = tmp_path / "blocks.json"
        cpath.write_text(json.dumps({"collections": [blocks[0::2], blocks[1::2]], "r": 2,
                                     "bound": 3}))
        searches, loaded, walk = [], [], graphs._walk
        monkeypatch.setattr(graphs, "_walk", lambda *a: searches.append(bool(loaded)) or walk(*a))
        monkeypatch.setattr(cli, "cover_from_json_dict",
                            lambda obj, real=cli.cover_from_json_dict: loaded.append(1) or real(obj))
        monkeypatch.setattr(cli, "pullback_cover",
                            lambda *a, real=cli.pullback_cover: loaded.clear() or real(*a))
        code, out, _ = run(capsys, "cover-pullback", path, "--cover", str(cpath))
        obj = json.loads(out)
        assert code == 0 and obj["validation"]["ok"] is True and obj["slope"] == 1.5
        assert (len(searches), sum(searches)) == (243, 0)

    @pytest.mark.parametrize("key", ["r", "bound"])
    def test_nan_cover_file_exits_3(self, capsys, tmp_path, k2_file, key):
        cover = {"collections": [[["a"]], [["b"]]], "r": 0, "bound": 0}
        cover[key] = float("nan")
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps(cover))  # writes the bare token NaN
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert code == 3
        assert out == ""
        assert "NaN" in err and "Traceback" not in err

    def test_bool_scale_in_cover_file_exits_3(self, capsys, tmp_path, k2_file):
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": [[["a"]], [["b"]]], "r": True,
                                     "bound": 0}))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert (code, out, err) == (3, "", "error: cover scale must be a number, got True\n")

    @pytest.mark.parametrize("scale", [0, 1.5])
    def test_a_cover_file_below_the_target_scale_exits_3(self, capsys, tmp_path, k2_file,
                                                         scale):
        # its sets were claimed apart only at that scale, and the pullback needs c*r + c
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": [[["a", "b"]]], "r": scale, "bound": 1}))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert (code, out, err) == (3, "", f"error: cover file scale {scale} is below the "
                                           "target scale c*r + c = 2.0\n")

    def test_a_cover_file_at_or_above_the_target_scale_keeps_its_output(self, capsys,
                                                                         tmp_path, k2_file):
        outputs = []
        for scale in (2, 100, "infinite"):
            cpath = tmp_path / "cover.json"
            cpath.write_text(json.dumps({"collections": [[["a", "b"]]], "r": scale,
                                         "bound": 1}))
            outputs.append(run(capsys, "cover-pullback", k2_file, "--cover", str(cpath)))
        assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3

    def test_negative_bound_in_cover_file_exits_3(self, capsys, tmp_path, k2_file):
        cpath = tmp_path / "cover.json"
        cpath.write_text(json.dumps({"collections": [[["a", "b"]]], "r": 1, "bound": -5}))
        code, out, err = run(capsys, "cover-pullback", k2_file, "--cover", str(cpath))
        assert (code, out, err) == (3, "", "error: cover diameter bound must be >= 0, got -5\n")


class TestTreewidth:
    def test_graph_json(self, capsys, tmp_path):
        vs = ["1", "2", "3", "4"]
        k4 = {"vertices": vs,
              "edges": [[a, b] for i, a in enumerate(vs) for b in vs[i + 1:]]}
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(k4))
        code, out, _ = run(capsys, "treewidth", str(path))
        assert code == 0
        assert json.loads(out)["treewidth"] == 3

    def test_cwx_input(self, capsys, k2_file):
        code, out, _ = run(capsys, "treewidth", k2_file)
        assert code == 0
        assert json.loads(out)["treewidth"] == 1

    def test_quotient_flag(self, capsys, k2_file):
        # treewidth takes no --quotient; the quotient it measured, two parts of
        # treewidth 1, is measured by decompose --oracle
        code, out, err = exit_of(main, ["treewidth", k2_file, "--quotient"])
        assert (code, out) == (("SystemExit", 2), "")
        assert err.endswith("error: unrecognized arguments: --quotient\n")
        code, out, _ = run(capsys, "decompose", k2_file, "--oracle")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["result"]["parts"]) == 2
        assert obj["quotient_treewidth"] == 1

    def test_cap_exits_4(self, capsys, tmp_path):
        vs = [f"v{i}" for i in range(13)]
        obj = {"vertices": vs,
               "edges": [[vs[i], vs[i + 1]] for i in range(12)]}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "treewidth", str(path))
        assert code == 4
        assert "capped" in err
        code, out, _ = run(capsys, "treewidth", str(path), "--cap", "13")
        assert code == 0
        assert json.loads(out)["treewidth"] == 1

    def test_a_negative_cap_exits_3(self, capsys, k2_file):
        code, out, err = run(capsys, "treewidth", k2_file, "--cap", "-5")
        assert (code, out, err) == (3, "", "error: treewidth cap must be >= 0, got -5\n")

    def test_no_cap_lifts_the_ceiling(self, capsys, tmp_path):
        # the oracle's table has 2^n entries: 2^48 would fail at once, 2^27 fill 1 GB
        vs = [f"v{i:02d}" for i in range(48)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"vertices": vs, "edges": [list(e) for e in zip(vs, vs[1:])]}))
        code, out, err = run(capsys, "treewidth", str(path), "--cap", "64")
        assert (code, out) == (4, "")
        assert err == "error: graph has 48 vertices, exact treewidth capped at 20\n"
        # decompose --oracle reports its minor bound instead, here on K_4's 44-part quotient
        cwx = tmp_path / "k4.cwx"
        assert run(capsys, "generate", "subdivided-clique", "--n", "4", "--out", str(cwx))[0] == 0
        code, out, _ = run(capsys, "decompose", str(cwx), "--oracle", "--cap", "100")
        assert code == 0 and json.loads(out)["quotient_treewidth_lower_bound"] == 3

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "treewidth", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text, why", [
        ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
        ('{{"vertices": [{}], "edges": []}}', "integer string conversion"),
    ], ids=["nested", "long-integer"])
    def test_json_too_deep_or_too_long_to_read_exits_2(self, capsys, tmp_path, text, why):
        path = tmp_path / "unreadable.json"
        path.write_text(text.format("7" * (sys.get_int_max_str_digits() + 1)))
        for argv in (("treewidth",), ("export-dot",)):
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {path}: ") and why in err

    def test_wrong_shape_exits_3(self, capsys, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"nodes": []}))
        code, _, err = run(capsys, "treewidth", str(path))
        assert code == 3
        assert "malformed graph" in err

    @pytest.mark.parametrize("graph, why", [
        ({"vertices": ["a", 1], "edges": []}, "mutually ordered"),
        ({"vertices": [[1], [2]], "edges": []}, "hashable"),
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}, "not a pair"),
        ({"vertices": ["a"], "edges": [], "colors": {"a": "x"}}, "not an integer"),
        ({"vertices": ["a"], "edges": [], "colors": {"z": 1}}, "names no vertex"),
        ({"vertices": ["a", "b"], "edges": [], "colors": {"a": 1}}, "has no colour"),
        ({"vertices": ["a"], "edges": [], "colors": {"a": 2.7}}, "not an integer"),
        ({"vertices": ["a"], "edges": [], "colors": {"a": True}}, "not an integer"),
        ({"vertices": ["a"], "edges": [], "colors": {"a": float("inf")}}, "not an integer"),
        # JSON true, false and 1.0 are equal to 1 and 0 in Python and would merge with them
        ({"vertices": [1, True, 2], "edges": [[True, 2]]}, "vertex id True is a bool"),
        ({"vertices": [1, 2], "edges": [[True, 2]]}, "vertex id True is a bool"),
        ({"vertices": [0, False], "edges": []}, "vertex id False is a bool"),
        ({"vertices": [1.0, 2], "edges": [[1.0, 2]]}, "vertex id 1.0 is a float"),
        ({"vertices": [1, 2], "edges": [[1, 2.0]]}, "vertex id 2.0 is a float"),
        ({"vertices": [None], "edges": []}, "vertex id None is a NoneType"),
        # a string or an object would pass as its characters or keys
        ({"vertices": "ab", "edges": []}, "vertices must be a list, not a str"),
        ({"vertices": {"a": 1, "b": 2}, "edges": []}, "vertices must be a list, not a dict"),
        ({"vertices": ["a", "b"], "edges": {"a": "b"}}, "edges must be a list, not a dict"),
        ({"vertices": ["a", "b"], "edges": ["ab"]}, "edge 'ab' is not a pair"),
    ])
    def test_malformed_graph_file_exits_3(self, capsys, tmp_path, graph, why):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        for argv in (("treewidth",), ("export-dot",)):
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (3, ""), argv
            assert err.startswith("error: malformed graph object: ") and why in err
            assert "Traceback" not in err


class TestExportDot:
    def test_suffix_dispatch(self, capsys, tmp_path, k2_file):
        code, out, _ = run(capsys, "export-dot", k2_file)
        assert code == 0
        assert '"a" -- "b"' in out
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"vertices": ["x"], "edges": []}))
        code, out, _ = run(capsys, "export-dot", str(gpath))
        assert code == 0
        assert '"x"' in out

    def test_integer_ids_take_their_colours(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]],
                                    "colors": {"1": 1, "2": 2}}))
        code, out, _ = run(capsys, "export-dot", str(path))
        assert code == 0
        assert '"1" [label="1:1"]' in out and '"2" [label="2:2"]' in out

    def test_cwx_routes_build_no_ast(self, capsys, tmp_path, k2_file, monkeypatch):
        # export-dot, treewidth and qi-check --source/--target fold a valid file's events
        # into the graph; an invalid file is parsed, so its error is parse's or evaluate's
        k5 = tmp_path / "k5.cwx"
        write_cwx(k5, gen_subdivided_clique(5, 3))
        mpath = tmp_path / "map.json"
        mpath.write_text(json.dumps({"f": {"a": "a", "b": "b"}, "c": 1}))
        nodes, real = [], expressions._node
        monkeypatch.setattr(expressions, "_node", lambda *a: nodes.append(a) or real(*a))
        for argv in (["export-dot", str(k5)], ["treewidth", k2_file],
                     ["qi-check", "--map", str(mpath), "--source", k2_file, "--target", k2_file]):
            assert (run(capsys, *argv)[0], len(nodes)) == (0, 0), argv
        cg = evaluate(read_cwx(k5))
        assert run(capsys, "export-dot", str(k5))[1] == graph_to_dot(cg.graph, cg.colors)
        dup = tmp_path / "dup.cwx"
        dup.write_text(DUPLICATE_TEXT)
        nodes.clear()
        assert run(capsys, "export-dot", str(dup)) == (
            3, "", "error: duplicate vertex id 'a' across union operands\n")
        assert len(nodes) == 6  # its three leaves, two unions and join

    def test_out_file(self, capsys, tmp_path, k2_file):
        dest = tmp_path / "g.dot"
        code, out, _ = run(capsys, "export-dot", k2_file, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("graph ")


DUPLICATE_TEXT = """cw k=2
(join 1 2 (union (v a 1) (union (v b 2) (v a 2))))
"""


class TestOneFoldPerVerdict:
    """Subcommands that decompose an expression report non-strict input alike."""

    def test_duplicate_id_gets_the_decompose_message(self, capsys, tmp_path):
        path = tmp_path / "dup.cwx"
        path.write_text(DUPLICATE_TEXT)
        code, out, want = run(capsys, "decompose", str(path))
        assert (code, out) == (3, "")
        assert want.startswith("error: expression is not strict: ")
        for argv in (("qi-check",), ("cover-pullback",), ("decompose", "--oracle")):
            assert run(capsys, argv[0], str(path), *argv[1:]) == (3, "", want), argv

    def test_only_decompose_builds_the_tree_decomposition(self, capsys, tmp_path, monkeypatch):
        # qi-check and cover-pullback report on the partition and the graph; the tree
        # certifies the width bound, which only decompose reports
        path = tmp_path / "k5.cwx"
        write_cwx(path, gen_subdivided_clique(5, 7))
        built, real = [], TreeDecomposition.__init__
        monkeypatch.setattr(TreeDecomposition, "__init__",
                            lambda td, *a: built.append(a) or real(td, *a))
        for argv, trees in ((("qi-check",), 0), (("qi-check", "--exhaustive"), 0),
                            (("cover-pullback",), 0), (("decompose",), 1)):
            built.clear()
            code, _, _ = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, len(built)) == (0, trees), argv


class TestCertifiedVerdicts:
    """Verdicts read only as pass or fail take the projection certificate."""

    def path_file(self, tmp_path, length):
        path = tmp_path / f"p{length}.cwx"
        write_cwx(path, gen_path("x", "y", length, 3, 1, 2, 1))
        return str(path)

    def test_qi_check_builds_one_quotient(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = graphs.quotient
        for module in (graphs, quasiiso, cli):
            monkeypatch.setattr(module, "quotient", lambda g, p: calls.append(p) or real(g, p))
        code, _, _ = run(capsys, "qi-check", self.path_file(tmp_path, 40))
        assert code == 0
        assert len(calls) == 1

    def test_qi_check_runs_one_source_bfs_per_vertex(self, capsys, tmp_path, monkeypatch):
        calls, targets = [], []
        real_bfs, real_quotient = quasiiso._distance_row, quasiiso.quotient
        monkeypatch.setattr(quasiiso, "_distance_row",
                            lambda g, s: calls.append(g) or real_bfs(g, s))
        monkeypatch.setattr(quasiiso, "quotient",
                            lambda g, p: targets.append(real_quotient(g, p)) or targets[-1])
        code, _, _ = run(capsys, "qi-check", self.path_file(tmp_path, 40), "--exhaustive")
        assert code == 0
        target = targets[0][0]
        assert sum(g is not target for g in calls) == 41  # the path's vertices

    def test_qi_check_makes_no_pair_scan(self, capsys, tmp_path, monkeypatch):
        scans = []
        real = quasiiso._window
        monkeypatch.setattr(quasiiso, "_window", lambda *a: scans.append(a) or real(*a))
        code, out, _ = run(capsys, "qi-check", self.path_file(tmp_path, 200))
        assert code == 0
        assert scans == []
        assert json.loads(out)["certificate"]["applied"] is True

    def test_certified_qi_check_runs_no_bfs_on_the_quotient(self, capsys, tmp_path, monkeypatch):
        # the certificate's map is onto, so its density is 0 with no BFS from the image
        calls, targets = [], []
        real_bfs, real_quotient = graphs._distance_row, quasiiso.quotient
        for module in (graphs, quasiiso):
            monkeypatch.setattr(module, "_distance_row",
                                lambda g, s: calls.append(g) or real_bfs(g, s))
        monkeypatch.setattr(quasiiso, "quotient",
                            lambda g, p: targets.append(real_quotient(g, p)) or targets[-1])
        code, out, _ = run(capsys, "qi-check", self.path_file(tmp_path, 40))
        assert code == 0 and json.loads(out)["certificate"]["applied"] is True
        assert len(targets) == 1
        assert sum(g is targets[0][0] for g in calls) == 0

    def test_minor_model_and_corpus_make_no_pair_scan(self, capsys, tmp_path, monkeypatch):
        scans = []
        real = quasiiso._window
        monkeypatch.setattr(quasiiso, "_window", lambda *a: scans.append(a) or real(*a))
        assert run(capsys, "minor-model", "--n", "5", "--times", "8")[0] == 0
        assert run(capsys, "corpus", "--seed", "3", "--count", "12", "--max-k", "5",
                   "--max-leaves", "20", "--out-dir", str(tmp_path / "c"))[0] == 0
        assert scans == []

    def test_cover_pullback_neighbour_lookups_grow_linearly(self, capsys, tmp_path,
                                                             monkeypatch):
        lookups = []
        real = graphs._walk

        def walk(adj, layer, dist):  # every vertex a BFS reaches has its neighbours read
            for d, reached in real(adj, layer, dist):
                lookups.extend(reached)
                yield d, reached

        monkeypatch.setattr(graphs, "_walk", walk)
        counts = []
        for length in (200, 400):
            path = self.path_file(tmp_path, length)
            lookups.clear()
            assert run(capsys, "cover-pullback", path, "--r", "2")[0] == 0
            counts.append(len(lookups))
        assert counts[1] < 2.5 * counts[0], counts  # a pair scan grows 4x per doubling


COMMANDS = ("eval", "decompose", "generate", "corpus", "qi-check", "minor-model",
            "cover-pullback", "treewidth", "export-dot")


# Strings the writer must escape as json.dumps does: non-ASCII (astral too), control
# characters, quotes, backslashes and brackets.
JSON_TEXT = st.text(st.sampled_from('az09"\\/[]{}:, \n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
JSON_SCALARS = (JSON_TEXT | st.integers() | st.integers(-10 ** 40, 10 ** 40) | st.booleans()
                | st.none() | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 0.1, -2.5e300])
                | st.floats(allow_nan=False, allow_infinity=False))
# Containers of scalars or of scalar lists, as a decomposition's part colours, parts, bags
# and edges are: one scalar type throughout, or mixed types, with empty lists among them.
JSON_ROWS = st.sampled_from([st.integers(), JSON_TEXT, st.booleans(), st.floats(
    allow_nan=False, allow_infinity=False), JSON_SCALARS]).flatmap(lambda items: (
        st.dictionaries(JSON_TEXT, items, max_size=4)
        | st.dictionaries(JSON_TEXT, st.lists(items, max_size=3), max_size=4)
        | st.lists(st.lists(items, max_size=3) | st.lists(items, max_size=2).map(tuple),
                   max_size=4)))
JSON_VALUES = st.recursive(JSON_SCALARS | JSON_ROWS, lambda kids: (
    st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.lists(st.sampled_from([1, 2]), max_size=3).map(tuple)  # one scalar type, in a tuple
    | st.dictionaries(JSON_TEXT, kids, max_size=4)), max_leaves=25)


def stdlib_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestJsonWriter:
    """cli._dump writes what json.dumps(indent=2, sort_keys=True) writes, or hands over."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    def test_same_text_as_the_stdlib(self, obj):
        assert cli._dump(obj) == stdlib_dump(obj)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_are_a_contract_error(self, bad):
        for obj in (bad, [1, bad], {"a": [bad, 1.0]}, {"a": 1, "b": {"c": (bad,)}}):
            with pytest.raises(ValueError) as want:
                stdlib_dump(obj)
            with pytest.raises(cli.ContractError) as got:
                cli._dump(obj)
            assert str(got.value) == f"output is not strict JSON: {want.value}"

    @pytest.mark.parametrize("obj", [{1: "a", 2: [3]}, {"a": {None: 1}}, [{True: 0, False: 1}],
                                     {"x": {2.5: "y"}}, {"a": [1, True, 2]}, {"a": [1.5, 2]}])
    def test_other_keys_and_mixed_lists_match_the_stdlib(self, obj):
        assert cli._dump(obj) == stdlib_dump(obj)

    def test_a_type_it_does_not_write_reaches_the_stdlib(self):
        class Count(int):
            pass

        for obj in ({"a": Count(3)}, [Count(1), Count(2)], {"a": {"b": Count(-4)}}):
            assert cli._dump(obj) == stdlib_dump(obj)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._dump({"a": {1, 2}})


def exit_of(call, argv):
    """(exit code, stdout, stderr) of call(argv); an argparse exit is ("SystemExit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    """main builds only the named subcommand's subparser, with the same texts."""

    ARGV = ([[name, "-h"] for name in COMMANDS] + [
        [], ["-h"], ["bogus"], ["qi"], ["--out", "x", "eval"],
        ["qi-check", "F", "--bogus"], ["eval", "F", "--dot", "--bogus"],
        ["generate", "path", "--length", "x"], ["decompose", "F", "--cap", "1.5"],
        ["qi-check", "F", "--c", "abc"], ["cover-pullback", "F", "--r", "x"],
        ["generate", "bogus"], ["export-dot", "F", "--kind", "nope"],
        ["corpus"], ["corpus", "--seed", "1"], ["generate"], ["cover-pullback"],
        ["eval", "a", "b"], ["generate", "path", "extra"], ["treewidth", "a", "b"],
        ["qi-check", "F", "G"],
    ])

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_same_output_as_the_full_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = exit_of(main, argv)
        want = exit_of(lambda a: cli._build_parser().parse_args(a), argv)
        assert want[0][0] == "SystemExit"
        assert got == want

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
        ([], "error: the following arguments are required: command")], ids=["bogus", "none"])
    def test_full_build_errors_name_the_command_argument(self, argv, message):
        # a metavar on the full build would rename it to the brace list here
        code, out, err = exit_of(main, argv)
        assert (code, out) == (("SystemExit", 2), "")
        assert message in err

    @pytest.mark.parametrize("argv, rest", [
        (["eval", "F", "--dot"], "--dot"),
        (["export-dot", "F", "--kind", "decomposition"], "--kind decomposition"),
        (["minor-model", "--oracle"], "--oracle"),
        (["treewidth", "F", "--quotient"], "--quotient"),
        (["generate", "spider", "--legs", "1,1,1", "--t", "3"], "--t 3")],
        ids=["eval", "export-dot", "minor-model", "treewidth", "spider"])
    def test_a_second_route_to_an_answer_is_an_argparse_error(self, argv, rest):
        # a graph's DOT comes from export-dot, a decomposition's from decompose --dot,
        # a quotient's treewidth from decompose --oracle, build_minor_model checks
        # every model it returns, and a spider's leg count is the length of --legs (an
        # option is read by its full name only, so --t is no abbreviation of --times)
        code, out, err = exit_of(main, argv)
        assert (code, out) == (("SystemExit", 2), "")
        assert err.endswith(f"error: unrecognized arguments: {rest}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, error", [
        (["generate", "path", "--pretty"], "unrecognized arguments: --pretty"),
        (["export-dot", "F", "--pretty"], "unrecognized arguments: --pretty"),
        (["decompose", "F", "--dot", "--pretty"],
         "argument --pretty: not allowed with argument --dot")],
        ids=["generate", "export-dot", "decompose --dot"])
    def test_pretty_is_refused_where_it_changes_nothing(self, argv, error):
        # these routes write expression or DOT text, which has no human summary
        code, out, err = exit_of(main, argv)
        assert (code, out) == (("SystemExit", 2), "")
        assert err.endswith(f"error: {error}\n")
        assert "Traceback" not in err
        help_text = exit_of(main, [argv[0], "-h"])[1]
        assert ("--pretty" in help_text) == (argv[0] == "decompose")

    @pytest.mark.parametrize("argv", [[name, "-h"] for name in COMMANDS]
                             + [["generate", "path", "--length", "3"], [], ["bogus"],
                                ["--out", "x", "eval"]], ids=" ".join)
    def test_a_named_subcommand_adds_one_subparser(self, monkeypatch, argv):
        added = []
        real = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda sub, name, **kw: added.append(name) or real(sub, name, **kw))
        exit_of(main, argv)
        named = argv[:1] if argv and argv[0] in COMMANDS else []
        assert added == (named or list(COMMANDS))


FLOAT_EDGES = ("nan", "inf", "-inf", "-1", "0", "0.5", "1", "2.5", "1e154", "1e308", "5e-324")
FLOATS = st.sampled_from(FLOAT_EDGES)
SIZES = st.sampled_from(["-1", "0", "1", "2", "3", "4"])
FUZZ_SEED = 9091
FUZZ_COUNT = 300
JSON_FUZZ_COUNT = 300
# values that JSON input files may hold in place of the right one: each kind,
# the edges of the numbers (json.load reads NaN and Infinity too), and ids
JSON_VALUES = (None, True, False, 0, -1, 1, 2.5, 1e308, 10 ** 400, float("nan"), float("inf"),
               "", "x", "p", "infinite", "nan", [], {}, ["x"], [["x", "y"]], {"x": 1})


def mutate_json(rng, obj):
    """A copy of obj with one to three seeded edits inside it: a value or an item
    replaced, dropped, added or copied next to itself."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 3)):
        nodes, stack = [], [obj]
        while stack:
            node = stack.pop()
            if isinstance(node, (list, dict)):
                nodes.append(node)
                stack.extend(node.values() if isinstance(node, dict) else node)
        node = rng.choice(nodes)
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        kind = rng.choice(("replace", "replace", "drop", "add", "copy")) if keys else "add"
        value = json.loads(json.dumps(rng.choice(JSON_VALUES)))  # a fresh list or object
        if kind == "replace":
            node[rng.choice(keys)] = value
        elif kind == "drop":
            del node[rng.choice(keys)]
        elif kind == "copy":
            value = json.loads(json.dumps(node[rng.choice(keys)]))
        if kind in ("add", "copy"):
            if isinstance(node, dict):
                node[rng.choice(("x", "c", "f", "r", "bound", "colors", "edges"))] = value
            else:
                node.append(value)
    return obj


@pytest.fixture(scope="module")
def witness(tmp_path_factory):
    """A path of length 3 as .cwx and as graph JSON, its identity map and a cover of it."""
    d = tmp_path_factory.mktemp("witness")
    e = gen_path("x", "y", 3, 3, 1, 2, 1)
    g = evaluate(e).graph
    files = {"cwx": d / "p3.cwx", "json": d / "p3.json", "map": d / "map.json",
             "cover": d / "cover.json", "out": d / "corpus"}
    write_cwx(files["cwx"], e)
    files["json"].write_text(json.dumps(graph_to_json_dict(g)))
    names = list(g.vertices)
    files["map"].write_text(json.dumps({"f": {v: v for v in names}, "c": 1}))
    files["cover"].write_text(json.dumps({"collections": [[names]], "r": 1, "bound": 3}))
    return {key: str(path) for key, path in files.items()}


def command_argv(name, files):
    """argv for one subcommand: its inputs, then options drawn from the edges of their ranges.

    The size options whose defaults make large calls are always given; every
    other option is absent or drawn.  A value goes after "=", so "-1" and
    "-inf" reach the program instead of argparse's option scanner.
    """
    inputs = {
        "generate": st.sampled_from([["path"], ["spider"], ["subdivided-clique"]]),
        "corpus": st.just([f"--out-dir={files['out']}"]),
        "qi-check": st.sampled_from([[files["cwx"]],
                                     ["--map", files["map"], "--source", files["json"],
                                      "--target", files["json"]]]),
        "minor-model": st.just([]),
        "treewidth": st.sampled_from([[files["cwx"]], [files["json"]]]),
        "export-dot": st.sampled_from([[files["cwx"]], [files["json"]]]),
    }.get(name, st.just([files["cwx"]]))
    sizes = {"corpus": ("--seed", "--count", "--max-k", "--max-leaves"),
             "minor-model": ("--n", "--times")}.get(name, ())
    switch = st.booleans()
    optional = {
        "eval": {"--pretty": switch},
        "decompose": {"--normalize": switch, "--oracle": switch, "--cap": SIZES,
                      "--dot": switch},
        "generate": {"--length": SIZES, "--palette": SIZES, "--x-color": SIZES,
                     "--y-color": SIZES, "--inner-color": SIZES,
                     "--n": SIZES, "--times": SIZES,
                     "--legs": st.sampled_from(["1,1,1", "", "2,x", "-1,2", "0"])},
        "corpus": {"--pretty": switch},
        "qi-check": {"--c": FLOATS, "--exhaustive": switch, "--pretty": switch},
        "minor-model": {"--c": FLOATS},
        "cover-pullback": {"--r": FLOATS, "--cover": st.just(files["cover"])},
        "treewidth": {"--cap": SIZES},
        "export-dot": {},
    }[name]
    options = st.fixed_dictionaries({flag: SIZES for flag in sizes},
                                    optional={flag: values for flag, values in optional.items()})
    return st.tuples(inputs, options).map(lambda drawn: [name, *drawn[0], *(
        flag if value is True else f"{flag}={value}"
        for flag, value in drawn[1].items() if value is not False)])


class TestContract:
    """Every subcommand exits 0, 2, 3 or 4 (or argparse's 2), with no traceback and strict JSON."""

    @pytest.mark.parametrize("name", COMMANDS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_edges_of_every_option_range(self, witness, name, data):
        argv = data.draw(command_argv(name, witness), label="argv")
        code, out, err = exit_of(main, argv)
        assert code in (0, 2, 3, 4, ("SystemExit", 2)), (argv, code, err)
        assert "Traceback" not in err
        if out and not {"--pretty", "--dot"} & set(argv) and name not in ("generate",
                                                                          "export-dot"):
            strict_json(out)

    def test_mutated_expression_files(self, tmp_path):
        # Seeded character edits of small canonical and one-line texts, each
        # read by every subcommand that takes a .cwx file.
        rng = random.Random(FUZZ_SEED)
        exprs = [gen_path("x", "y", 4, 3, 1, 2, 1), gen_spider(3, [1, 2, 1]),
                 gen_subdivided_clique(4, 1), *generate_corpus(FUZZ_SEED, 4, 3, 6)]
        texts = [K2_TEXT, VACUOUS_TEXT] + [f(e) for e in exprs
                                           for f in (format_expr, one_line_text)]
        codes = []
        for i in range(FUZZ_COUNT):
            path = tmp_path / f"m{i}.cwx"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(mutate_text(rng, rng.choice(texts)))
            for argv in (["eval"], ["decompose"], ["qi-check"], ["cover-pullback"],
                         ["decompose", "--oracle"]):
                code, out, err = exit_of(main, [argv[0], str(path), *argv[1:]])
                assert code in (0, 2, 3, 4), (path.read_text(encoding="utf-8"), argv, code, err)
                assert "Traceback" not in err
                if code == 0:
                    strict_json(out)
                codes.append(code)
        assert {0, 2, 3} <= set(codes), sorted(set(codes))

    def test_mutated_json_files(self, witness, tmp_path):
        # Seeded edits of graph, map and cover files, each read by every
        # subcommand that takes one; the other inputs stay the witness's own
        rng = random.Random(FUZZ_SEED)
        cg = evaluate(gen_path("x", "y", 3, 3, 1, 2, 1))
        bases = {"graph": [graph_to_json_dict(cg.graph), graph_to_json_dict(cg.graph, cg.colors)]}
        for kind in ("map", "cover"):
            with open(witness[kind], encoding="utf-8") as fh:
                bases[kind] = [json.load(fh)]
        w = witness
        runs = {"graph": lambda f: [["treewidth", f], ["export-dot", f],
                                    ["qi-check", "--map", w["map"], "--source", f,
                                     "--target", w["json"]],
                                    ["qi-check", "--map", w["map"], "--source", w["json"],
                                     "--target", f]],
                "map": lambda f: [["qi-check", "--map", f, "--source", w["json"],
                                   "--target", w["json"]]],
                "cover": lambda f: [["cover-pullback", w["cwx"], "--cover", f]]}
        codes = []
        for i in range(JSON_FUZZ_COUNT):
            kind = rng.choice(sorted(bases))
            text = json.dumps(mutate_json(rng, rng.choice(bases[kind])))
            if rng.random() < 0.2:
                text = mutate_text(rng, text)
            path = tmp_path / f"{kind}{i}.json"
            path.write_text(text, encoding="utf-8")
            for argv in runs[kind](str(path)):
                code, out, err = exit_of(main, argv)
                assert code in (0, 2, 3, 4), (text, argv, code, err)
                assert "Traceback" not in err
                if code == 0 and argv[0] != "export-dot":
                    strict_json(out)
                codes.append(code)
        assert {0, 2, 3} <= set(codes), sorted(set(codes))

    @pytest.mark.parametrize("exhaustive", [(), ("--exhaustive",)], ids=["default", "exhaustive"])
    def test_qi_check_parameters_on_both_sides_of_the_certificate(self, witness, exhaustive):
        # FLOAT_EDGES holds values of c below and above D + 1, so both the
        # certified path and the scan it falls back to run under the contract
        applied = set()
        for c in FLOAT_EDGES:
            argv = ["qi-check", witness["cwx"], f"--c={c}", *exhaustive]
            code, out, err = exit_of(main, argv)
            assert code in (0, 3), (argv, code, err)
            assert "Traceback" not in err
            if out:
                applied.add(strict_json(out).get("certificate", {}).get("applied"))
        assert applied == ({None} if exhaustive else {True, False})


# ------------------------------------------------------------ the cyclic collector

def made_by_cwkit(obj):
    """Whether obj is an instance of a cwkit class, a cwkit function or one's frame."""
    if isinstance(obj, types.FrameType):
        module = obj.f_globals.get("__name__")
    elif isinstance(obj, types.FunctionType):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return str(module).split(".")[0] == "cwkit"


def cyclic_garbage(argv):
    """(exit, the number of objects left for the cyclic collector, those made by cwkit)
    of main(argv), run with the collector off and every object it finds kept."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = exit_of(main, argv)[0]
        gc.collect()
        return code, len(gc.garbage), [repr(o)[:80] for o in gc.garbage if made_by_cwkit(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class Inputs:
    """Input files of a size n, written once each."""

    def __init__(self, root):
        self.root = root

    def file(self, name, text):
        path = self.root / name
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        return str(path)

    def path(self, n):  # a one-line path of 10n edges
        return self.file(f"p{n}.cwx", one_line_text(gen_path("x", "y", 10 * n, 4, 1, 2, 3)))

    def graph(self, n, size=10):  # a path graph on size * n vertices
        vs = [f"v{i}" for i in range(size * n)]
        return self.file(f"g{n}-{size}.json", json.dumps(
            {"vertices": vs, "edges": [list(e) for e in zip(vs, vs[1:])]}))

    def map(self, n):  # the identity on graph(n)
        vs = [f"v{i}" for i in range(10 * n)]
        return self.file(f"map{n}.json", json.dumps({"f": {v: v for v in vs}, "c": 1}))

    def cover(self, n):  # one set of every part of path(n)'s quotient
        ids = sorted(decompose(gen_path("x", "y", 10 * n, 4, 1, 2, 3)).partition.ids)
        return self.file(f"cover{n}.json", json.dumps(
            {"collections": [[ids]], "r": 2, "bound": len(ids)}))

    def cut(self, n):  # path(n) without its closing parens: a ParseError at its end
        text = Path(self.path(n)).read_text(encoding="utf-8")
        return self.file(f"cut{n}.cwx", text.rstrip().rstrip(")") + "\n")

    def unused(self, n):  # path(n) under a recolor of an unused colour: not strict
        _, body = Path(self.path(n)).read_text(encoding="utf-8").split("\n", 1)
        return self.file(f"unused{n}.cwx", f"cw k=5\n(recolor 5 1 {body.strip()})\n")

    def deep(self, n):  # JSON nested past the recursion limit
        return self.file(f"deep{n}.json", "[" * 50000 * n + "]" * 50000 * n)


# route -> (its exit code, its argv at input size n, for the Inputs f and a temporary dir d)
ROUTES = {
    "eval": (0, lambda f, d, n: ["eval", f.path(n)]),
    "eval --pretty": (0, lambda f, d, n: ["eval", f.path(n), "--pretty"]),
    "decompose": (0, lambda f, d, n: ["decompose", f.path(n)]),
    "decompose --normalize": (0, lambda f, d, n: ["decompose", f.path(n), "--normalize"]),
    "decompose --oracle": (0, lambda f, d, n: ["decompose", f.path(n), "--oracle"]),
    "decompose --dot": (0, lambda f, d, n: ["decompose", f.path(n), "--dot"]),
    "decompose --pretty": (0, lambda f, d, n: ["decompose", f.path(n), "--pretty"]),
    "generate path": (0, lambda f, d, n: ["generate", "path", "--length", str(10 * n)]),
    "generate spider": (0, lambda f, d, n: ["generate", "spider", "--legs", f"{n},{2 * n},3"]),
    "generate subdivided-clique": (0, lambda f, d, n: ["generate", "subdivided-clique",
                                                       "--n", "4", "--times", str(2 * n)]),
    "corpus": (0, lambda f, d, n: ["corpus", "--seed", "5", "--count", str(3 * n),
                                   "--max-leaves", "12", "--out-dir", str(d / f"c{n}")]),
    "qi-check": (0, lambda f, d, n: ["qi-check", f.path(n)]),
    "qi-check --exhaustive --pretty": (0, lambda f, d, n: ["qi-check", f.path(n),
                                                           "--exhaustive", "--pretty"]),
    "qi-check --map": (0, lambda f, d, n: ["qi-check", "--map", f.map(n),
                                           "--source", f.graph(n), "--target", f.graph(n)]),
    "minor-model": (0, lambda f, d, n: ["minor-model", "--n", "4", "--times", str(8 * n)]),
    "cover-pullback": (0, lambda f, d, n: ["cover-pullback", f.path(n), "--r", "2"]),
    "cover-pullback --cover": (0, lambda f, d, n: ["cover-pullback", f.path(n),
                                                   "--cover", f.cover(n)]),
    "treewidth": (0, lambda f, d, n: ["treewidth", f.graph(n, 3)]),
    "treewidth .cwx": (0, lambda f, d, n: ["treewidth", f.file(
        f"k{n}.cwx", format_expr(gen_path("x", "y", 2 * n, 3, 1, 2, 1)))]),
    "export-dot": (0, lambda f, d, n: ["export-dot", f.path(n)]),
    "export-dot .json": (0, lambda f, d, n: ["export-dot", f.graph(n)]),
    "exit 2: parse error": (2, lambda f, d, n: ["decompose", f.cut(n)]),
    "exit 2: parse error, eval": (2, lambda f, d, n: ["eval", f.cut(n)]),
    "exit 2: deep JSON": (2, lambda f, d, n: ["treewidth", f.deep(n)]),
    "exit 3: not strict": (3, lambda f, d, n: ["decompose", f.unused(n)]),
    "exit 3: failed check": (3, lambda f, d, n: ["qi-check", f.path(n), "--c", "0.5"]),
    "exit 3: unreadable file": (3, lambda f, d, n: ["export-dot", str(d / f"none{n}.cwx")]),
    "exit 3: unwritable --out": (3, lambda f, d, n: ["decompose", f.path(n),
                                                     "--out", str(d / "no" / "x.json")]),
    "exit 4: size cap": (4, lambda f, d, n: ["treewidth", f.graph(n), "--cap", "3"]),
}


class TestNoCyclicGarbage:
    """Reference counting frees all that a command builds: the only objects a call leaves
    for the cyclic collector are argparse's, as many on an input as on one 4x its size."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_only_argparse_leaves_cycles(self, tmp_path, route):
        code, argv = ROUTES[route]
        files = Inputs(tmp_path)
        cyclic_garbage(argv(files, tmp_path, 1))  # a first call may fill module caches
        small, big = (cyclic_garbage(argv(files, tmp_path, n)) for n in (1, 4))
        assert (small[0], big[0]) == (code, code)
        assert small[2] == big[2] == []
        assert small[1] == big[1]

    def test_every_subcommand_is_covered(self):
        assert {route.split()[0] for route in ROUTES if not route.startswith("exit")} == set(
            COMMANDS)


class TestCollectorPause:
    """main runs the handler with the cyclic collector paused and gives back its state."""

    CASES = {
        0: ["decompose", "K2"],
        2: ["eval", "BAD"],
        3: ["decompose", "UNUSED"],
        4: ["treewidth", "BIG", "--cap", "3"],
        ("SystemExit", 2): ["decompose", "K2", "--bogus"],
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("want", CASES, ids=str)
    def test_main_leaves_the_collector_as_it_was(self, tmp_path, k2_file, enabled, want):
        files = Inputs(tmp_path)
        names = {"K2": k2_file, "BAD": files.cut(1), "UNUSED": files.unused(1),
                 "BIG": files.graph(1)}
        argv = [names.get(a, a) for a in self.CASES[want]]
        (gc.enable if enabled else gc.disable)()
        try:
            assert exit_of(main, argv)[0] == want
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_an_unexpected_exception_restores_it(self, monkeypatch, k2_file, enabled):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        help_text, _, arguments = cli._COMMANDS["eval"]
        monkeypatch.setitem(cli._COMMANDS, "eval", (help_text, handler, arguments))
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                main(["eval", k2_file])
            assert (seen, gc.isenabled()) == ([False], enabled)
        finally:
            gc.enable()

    def test_no_collection_starts_in_a_long_decompose(self, tmp_path):
        path = tmp_path / "p.cwx"
        path.write_text(one_line_text(gen_path("x", "y", 2000, 4, 1, 2, 3)))
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            code = main(["decompose", str(path), "--out", str(tmp_path / "p.json")])
            # read with no allocation: the first one after main may start a collection
            seen = len(starts)
        finally:
            gc.callbacks.remove(count)
        assert (code, seen) == (0, 0)
