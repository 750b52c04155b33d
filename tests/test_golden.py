"""Byte-level golden outputs of the expression core and the metric layer.

The digests below were recorded from the implementation that copied whole
colour dicts at every node.  Each one is the sha256 of the canonical JSON
(sorted keys, no whitespace) of a list of outputs, so any change to what
evaluate, decompose, verify_result, validate_strict, normalize or the
generators produce on these inputs shows up here.  The metric-layer digests
(the qi-check, cover-pullback and minor-model CLI output, and the tight
projection bounds on random partitions) were recorded from the
implementation that kept an all-pairs distance table per graph.  qi-check
on an expression file has since printed the projection lemma's bounds by
default; its digests pin the exact pair scan, now behind --exhaustive.

The non-strict inputs are seeded mutations of corpus expressions: a
duplicated leaf id, one node object used as both union operands, a join
that adds no edge, and a recolor from or to a colour unused below.

The wide generator-sweep digest was recorded from the builders that repaired
their output with normalize; it pins that building strict expressions
directly gives the same text, or the same error, on every call.

The parse-outcome digest was recorded from the parser that tokenized the
body one character at a time.  Its inputs are seeded character-level
mutations of corpus and generator texts, so it pins which ParseError wins,
with its message, line and column, as well as the ASTs of the texts that
still parse.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from cwkit import (CwExpr, CwkitError, Graph, InputError, Join, Leaf, Partition, Recolor,
                   Union, check_partqi_tight, decompose, evaluate, format_expr, gen_path,
                   generate_corpus, graph_to_json_dict, normalize, parse, quotient, read_cwx,
                   result_to_json_dict, validate_strict, verify_result, write_cwx)
from cwkit.cli import main

from helpers import (floyd_warshall, legacy_layout, naive_distance_pairs, naive_weak_diameter,
                     one_line_text, random_graph_data, random_groups)
from test_acceptance import (COUNT, MAX_K, MAX_LEAVES, SEED, clique_cases,
                             path_cases, spider_cases)
from test_generators import build, wide_sweep

GOLDEN = {
    "corpus_evaluate":
        "ed28cdda94f1e78e3a70225a0643051c037a55045368958586c4ddbd257c564d",
    "corpus_decompose":
        "052feb73eb1625c4e3f035a9f4626ce27779243c12a79ad7ae67b95029a27895",
    "corpus_verify":
        "c35077a2a8cca9b37a2508509d47547890fd85b5f714dbd49502a7002b8d918d",
    "sweep_format":
        "57e85e0de6caa213ddbd40be0a1664a780857658a652358832fe2d6d8017582f",
    "sweep_evaluate":
        "3dd0aa70d10cf0f4fd6f6cce7dbb9d328b74a419b6630b514ea3a7ecefa553fc",
    "sweep_decompose":
        "c8c103ade311add9cfbff1b1c01edfe64ff50f745dc35e29ff6d3a16576625d2",
    "sweep_verify":
        "ed0aa73fa7e90b6c656033f0daee7bc13caf5d2a1a3b435604c5449b78067202",
    "mutant_validate":
        "b832537c72a0eace71c65027b45aafda4556a2503362a2807634aac6f04ba929",
    "mutant_normalize":
        "bc8262213b80463e275f29f17d9364cb3aa0b0d414230c6fa2935cec31b78fa3",
    "text_parse":
        "1b66b46ed653470cbf832a098f9b596850359240669679daff247f70b23fce63",
    "wide_sweep_format":
        "c82ea024d1e7e3a4f278337ee9a422cbe79095826e05bccbeaece4e0ca5f4c9e",
}

MUTANT_SEED = 8081
MUTANT_COUNT = 200
TEXT_SEED = 5150
TEXT_COUNT = 2400
# Characters a mutation inserts: grammar tokens, every kind of whitespace the
# parser must count columns across, and characters outside the grammar.
TEXT_ALPHABET = "()()  \n\n\t\r\x0b\x0c\u00a0\u2028vunirecoljk=0123456789x_.-#!\u00e9"


def digest(items) -> str:
    text = json.dumps(list(items), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def eval_json(e):
    cg = evaluate(e)
    return {"k": e.k, "graph": graph_to_json_dict(cg.graph, cg.colors)}


def pipeline_digests(exprs, prefix):
    evals, decomps, verdicts = [], [], []
    for e in exprs:
        cg = evaluate(e)
        result = decompose(e)
        evals.append(eval_json(e))
        decomps.append(result_to_json_dict(result))
        verdicts.append(verify_result(cg, result).to_json_dict())
    return {f"{prefix}_evaluate": digest(evals),
            f"{prefix}_decompose": digest(decomps),
            f"{prefix}_verify": digest(verdicts)}


# ------------------------------------------------------------- mutations

def children(node):
    if isinstance(node, Leaf):
        return ()
    if isinstance(node, Union):
        return (node.left, node.right)
    return (node.child,)


def paths(node, path=()):
    out = [(path, node)]
    for i, kid in enumerate(children(node)):
        out.extend(paths(kid, path + (i,)))
    return out


def replace(node, path, new):
    if not path:
        return new
    kids = list(children(node))
    kids[path[0]] = replace(kids[path[0]], path[1:], new)
    if isinstance(node, Union):
        return Union(*kids)
    if isinstance(node, Recolor):
        return Recolor(node.old_color, node.new_color, kids[0])
    return Join(node.color_a, node.color_b, kids[0])


def used_colors(node):
    """The colours in use after node, derived from the definitions alone."""
    if isinstance(node, Leaf):
        return {node.color}
    if isinstance(node, Union):
        return used_colors(node.left) | used_colors(node.right)
    below = used_colors(node.child)
    if isinstance(node, Recolor) and node.old_color in below:
        return (below - {node.old_color}) | {node.new_color}
    return below


def mutate(rng, e):
    """One non-strict variant of e; the kind is picked by rng."""
    nodes = paths(e.root)
    kind = rng.choice(("dup", "shared", "join", "recolor"))
    if kind == "dup":
        leaves = [(p, n) for p, n in nodes if isinstance(n, Leaf)]
        if len(leaves) >= 2:
            (path, leaf), (_, other) = rng.sample(leaves, 2)
            return kind, CwExpr(e.k, replace(e.root, path, Leaf(other.vertex, leaf.color)))
        kind = "shared"
    if kind == "shared":
        path, node = rng.choice(nodes)
        return kind, CwExpr(e.k, replace(e.root, path, Union(node, node)))
    if kind == "join":
        joins = [(p, n) for p, n in nodes if isinstance(n, Join)]
        if joins:
            path, node = rng.choice(joins)
            return kind, CwExpr(e.k, replace(e.root, path,
                                             Join(node.color_a, node.color_b, node)))
        kind = "recolor"
    path, node = rng.choice(nodes)
    used = used_colors(node)
    palette = range(1, e.k + 2)  # k + 1 is never used, so unused is nonempty
    unused = [c for c in palette if c not in used]
    if rng.random() < 0.5:
        old = rng.choice(unused)
        new = rng.choice([c for c in palette if c != old])
    else:
        old = rng.choice(sorted(used))
        new = rng.choice(unused)
    return kind, CwExpr(e.k, replace(e.root, path, Recolor(old, new, node)))


def mutants():
    rng = random.Random(MUTANT_SEED)
    exprs = generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)
    return [mutate(rng, rng.choice(exprs)) for _ in range(MUTANT_COUNT)]


def mutate_text(rng, text):
    """text with a few seeded character edits: inserts, replacements, deletes and cuts."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("insert", "insert", "replace", "delete", "delete", "cut"))
        at = rng.randint(0, len(chars))
        if kind == "insert":
            chars.insert(at, rng.choice(TEXT_ALPHABET))
        elif kind == "replace":
            chars[at:at + 1] = rng.choice(TEXT_ALPHABET)
        elif kind == "delete":
            del chars[at:at + rng.randint(1, 3)]
        else:
            chars = chars[:at]
    return "".join(chars)


def text_mutants(seed=TEXT_SEED, count=TEXT_COUNT):
    """Seeded mutations of corpus and generator texts; some are flattened to one line."""
    sweeps = list(path_cases()) + list(spider_cases()) + list(clique_cases())
    exprs = generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)[::5] + [c[1] for c in sweeps]
    texts = [legacy_layout(format_expr(e)) for e in exprs]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        if rng.random() < 0.3:
            head, _, body = text.partition("\n")
            text = head + "\n" + " ".join(body.split())
        out.append(mutate_text(rng, text) if rng.random() < 0.9 else text)
    return out


def parse_outcome(text):
    """The canonical text parse gives, or the error's class, message, line and column."""
    try:
        return format_expr(parse(text))
    except CwkitError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None)]


def normalized_text(e):
    try:
        return format_expr(normalize(e))
    except InputError as exc:
        return f"InputError: {exc}"


# ----------------------------------------------------------------- tests

def test_corpus_outputs_match_golden():
    got = pipeline_digests(generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES), "corpus")
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith("corpus_")}


def test_generator_outputs_match_golden():
    sweeps = list(path_cases()) + list(spider_cases()) + list(clique_cases())
    exprs = [case[1] for case in sweeps]
    got = pipeline_digests(exprs, "sweep")
    got["sweep_format"] = digest(legacy_layout(format_expr(e)) for e in exprs)
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith("sweep_")}


def test_wide_generator_sweep_matches_golden():
    outcomes = [build(builder, args) for builder, args in wide_sweep()]
    assert len(outcomes) == 5544
    got = digest(o if isinstance(o, list) else legacy_layout(format_expr(o)) for o in outcomes)
    assert got == GOLDEN["wide_sweep_format"]


def test_non_strict_reports_match_golden():
    cases = mutants()
    kinds = {kind for kind, _ in cases}
    assert kinds == {"dup", "shared", "join", "recolor"}
    assert not any(validate_strict(e).strict_valid for _, e in cases)
    got = {
        "mutant_validate": digest(validate_strict(e).to_json_dict() for _, e in cases),
        "mutant_normalize": digest(normalized_text(e) for _, e in cases),
    }
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith("mutant_")}


def test_parse_outcomes_match_golden():
    texts = text_mutants()
    outcomes = [parse_outcome(t) for t in texts]
    assert sum(isinstance(o, str) for o in outcomes) > len(texts) // 10
    assert len({o[1] for o in outcomes if isinstance(o, list)}) > 10
    assert digest(legacy_layout(o) if isinstance(o, str) else o
                  for o in outcomes) == GOLDEN["text_parse"]


def test_legacy_layout_keeps_text_at_most_32_deep_and_restores_deeper_indents():
    # the golden digests read format_expr's text through legacy_layout; on text at
    # most 32 deep, as every corpus expression is, it changes no byte
    for e in generate_corpus(1, 200, 6, 40):
        text = format_expr(e)
        assert legacy_layout(text) == text
    node = Leaf("a", 1)
    for _ in range(34):
        node = Recolor(1, 2, node)
    assert legacy_layout(format_expr(CwExpr(2, node))) == (
        "cw k=2\n" + "".join("  " * d + "(recolor 1 2\n" for d in range(34))
        + "  " * 34 + "(v a 1)" + ")" * 34 + "\n")


def test_duplicate_id_takes_the_right_operands_colour():
    e = CwExpr(3, Recolor(1, 3, Union(Leaf("a", 1), Leaf("a", 2))))
    report = validate_strict(e).to_json_dict()
    assert [(v["path"], v["rule"]) for v in report["violations"]] == [
        ("root", "OP2_I_UNUSED"), ("root", "OP2_J_UNUSED"),
        ("root[0][1]", "DUP_VERTEX")]


def test_shared_operand_reports_every_occurrence():
    x = Recolor(2, 1, Leaf("a", 1))
    report = validate_strict(CwExpr(2, Union(x, x))).to_json_dict()
    assert [(v["path"], v["rule"]) for v in report["violations"]] == [
        ("root[0]", "OP2_I_UNUSED"), ("root[1]", "OP2_I_UNUSED"),
        ("root[1][0]", "DUP_VERTEX")]


def core_peak(length) -> int:
    e = gen_path("x", "y", length, 3, 1, 2, 1)
    tracemalloc.start()
    try:
        evaluate(e)
        validate_strict(e)
        decompose(e)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_core_memory_grows_linearly():
    # Built as ASTs, never as text, so that only the core is measured.  Twice the
    # length should cost about twice the memory.
    small, large = core_peak(1000), core_peak(2000)
    assert large < 3 * small, (small, large)


def parse_peak(length) -> int:
    text = one_line_text(gen_path("x", "y", length, 3, 1, 2, 1))
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_memory_grows_linearly():
    # The one-line text is O(L) long, and its events and nodes must stay O(L) too.
    small, large = parse_peak(1000), parse_peak(2000)
    assert large < 3 * small, (small, large)


# ---------------------------------------------------------- metric layer

METRIC_GOLDEN = {
    "qi_check":
        "e76458a069f6f19666431a21f18c9e4d0e14166e2a3d3bd4c9785db10975aad6",
    "qi_check_c_sweep":
        "f4c11f106dddad33506130a7bbeafa60e463d9ada0a3b13ccc4a6a08e7e98ae3",
    "qi_check_random_maps":
        "eda5a1200d8039fe80d279e5936eb37392166b0cd66c6b1680719d2d5d4ac624",
    "cover_pullback":
        "24f513a642eb8a2f3648814240250523d4712f9c81afb36f6e7e4ddb6e3e6189",
    "minor_model":
        "3f5ab961f2dd3e84549bf739f1a0e0e5a2359537d2f2ac40131bbfea6f431f0f",
    "tight_random_partitions":
        "19c6786ea469698f4bd8ea1bd7376f73ee0b8c6fa3f1f1c789a7fa0217e89712",
}

MAP_SEED = 4242
C_SWEEP = ("0.5", "1", "2", "3")


def cli(*argv):
    """[exit code, stdout, stderr] of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def metric_files(tmp_path_factory):
    """Every 4th acceptance-corpus expression and every generator sweep, as .cwx files."""
    root = tmp_path_factory.mktemp("metric")
    sweeps = list(path_cases()) + list(spider_cases()) + list(clique_cases())
    exprs = generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)[::4] + [c[1] for c in sweeps]
    files = []
    for i, e in enumerate(exprs):
        path = root / f"e{i:04d}.cwx"
        write_cwx(path, e)
        files.append(path)
    return files


def random_map_runs(root):
    """qi-check --map on random graph pairs, random maps and a sweep of c."""
    rng = random.Random(MAP_SEED)
    runs = []
    for i in range(150):
        src = Graph(*random_graph_data(rng, "s"))
        tgt = src if rng.random() < 0.3 else Graph(*random_graph_data(rng, "t"))
        if tgt is src and rng.random() < 0.5:
            f = {v: v for v in src.vertices}
        else:
            f = {v: rng.choice(tgt.vertices) for v in src.vertices}
        c = rng.choice((0.5, 1, 1.5, 2, 3, 4))
        paths = [root / f"{name}{i}.json" for name in ("s", "t", "m")]
        for path, obj in zip(paths, (graph_to_json_dict(src), graph_to_json_dict(tgt),
                                     {"f": f, "c": c})):
            path.write_text(json.dumps(obj))
        argv = ["qi-check", "--map", paths[2], "--source", paths[0], "--target", paths[1]]
        if rng.random() < 0.5:
            argv += ["--c", rng.choice(C_SWEEP)]
        runs.append(cli(*argv))
    return runs


def random_partition_reports():
    """check_partqi_tight on random partitions of corpus graphs, or its error."""
    rng = random.Random(MAP_SEED)
    reports = []
    for e in generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES)[::8]:
        g = evaluate(e).graph
        for _ in range(3):
            try:
                p = Partition(random_groups(rng, g.vertices))
                reports.append(check_partqi_tight(g, p).to_json_dict())
            except InputError as exc:
                reports.append(f"InputError: {exc}")
    return reports


def test_qi_check_output_matches_golden(metric_files):
    got = {"qi_check": digest(cli("qi-check", f, "--exhaustive") for f in metric_files),
           "qi_check_c_sweep": digest(cli("qi-check", f, "--c", c, "--exhaustive")
                                      for f in metric_files[::3] for c in C_SWEEP)}
    assert got == {k: METRIC_GOLDEN[k] for k in got}


def projection_pairs(path):
    """The (r, r') pairs of the projection that qi-check builds from path, by plain BFS."""
    e = read_cwx(path)
    g = evaluate(e).graph
    part = {v: pid for pid, members in decompose(e).partition for v in members}
    crossing = {(part[u], part[w]) for u, w in g.edges if part[u] != part[w]}
    return naive_distance_pairs((g.vertices, g.edges), (set(part.values()), crossing), part)


def test_certified_qi_check_agrees_with_the_exhaustive_scan(metric_files):
    """The default qi-check against --exhaustive: the same verdicts, witnesses and
    upper margins, and lower bounds that hold in exact arithmetic on every pair."""
    attained = 0  # exact bounds met where the scan's float lies above the printed one
    for f in metric_files:
        pairs = projection_pairs(f)
        for extra in [()] + [("--c", c) for c in C_SWEEP]:
            code, out, err = cli("qi-check", f, *extra)
            want_code, want_out, want_err = cli("qi-check", f, *extra, "--exhaustive")
            assert (code, err) == (want_code, want_err)
            got, want = json.loads(out), json.loads(want_out)
            certificate = got.pop("certificate")
            if not certificate["applied"]:
                assert got == want, (f, extra)
                continue
            d, c = certificate["D"], got["c"]
            printed = (got["qi"]["distance_bounds"].pop("lower_margin_bound"),
                       got["tight_projection_bounds"]["lower"].pop("margin_bound"))
            scanned = (want["qi"]["distance_bounds"].pop("worst_lower_margin"),
                       want["tight_projection_bounds"]["lower"].pop("worst_margin"))
            assert got == want, (f, extra)  # every ok, witness, c, upper margin, density
            # r/a - b - r' over the pairs; the tight window also has x == y, at -1
            windows = ((c, c, False), (d + 1, 1, True))
            bounds = (Fraction(d) / Fraction(c) - Fraction(c), Fraction(-1, d + 1))
            for (a, b, diagonal), bound, shown, scan in zip(windows, bounds, printed, scanned):
                assert abs(shown - float(bound)) <= 2 * math.ulp(shown), (f, extra)
                exact = ([Fraction(r) / Fraction(a) - Fraction(b) - rp for r, rp in pairs]
                         + [Fraction(-1)] * diagonal)
                floats = [r / a - b - rp for r, rp in pairs] + [-1.0] * diagonal
                assert scan == max(floats, default=None), (f, extra)
                if exact:
                    assert bound >= max(exact), (f, extra)
                    attained += max(exact) == bound and scan > shown
    assert attained  # where a float comparison would call a true bound broken


def test_qi_check_random_maps_match_golden(tmp_path):
    got = digest(random_map_runs(tmp_path))
    assert got == METRIC_GOLDEN["qi_check_random_maps"]


def exact_components_cover(path, out):
    """Write to out a cover file of path's quotient by its components, at the widest one's
    exact weak diameter (Floyd-Warshall): the bound the default cover claimed when the
    cover_pullback digest was recorded.  Components lie infinitely far apart."""
    e = read_cwx(path)
    q, _ = quotient(evaluate(e).graph, decompose(e).partition)
    dist = floyd_warshall(q.vertices, q.edges)
    comps = {frozenset(dist[v]) for v in q.vertices}
    bound = max(naive_weak_diameter(q.vertices, q.edges, comp) for comp in comps)
    out.write_text(json.dumps({"collections": [[sorted(comp) for comp in comps]],
                               "r": "infinite", "bound": bound}))
    return out


def test_cover_pullback_output_matches_golden(metric_files, tmp_path):
    # the digest was recorded when the default cover claimed the exact weak diameter; a
    # cover file at that bound gives the same bytes, where the default's 2e may not
    runs = []
    for i, f in enumerate(metric_files):
        cover = exact_components_cover(f, tmp_path / f"cover{i}.json")
        runs += [cli("cover-pullback", f, "--cover", cover, *extra)
                 for extra in ((), ("--r", "2"))]
    assert digest(runs) == METRIC_GOLDEN["cover_pullback"]


def test_minor_model_output_matches_golden():
    runs = [cli("minor-model", "--n", n, "--times", t, "--c", c)
            for n in (3, 4, 5) for t in (3, 5, 7, 9) for c in ("1", "2")]
    assert digest(runs) == METRIC_GOLDEN["minor_model"]


def test_tight_bounds_on_random_partitions_match_golden():
    got = digest(random_partition_reports())
    assert got == METRIC_GOLDEN["tight_random_partitions"]


# ------------------------------------------------------------------- DOT

# Each subcommand run is [exit code, stdout, stderr] on every acceptance-corpus
# expression ("corpus_") and every non-strict mutant ("mutant_").  The graph
# digests were recorded from `eval F --dot` and the decomposition digests from
# `export-dot F --kind decomposition`, before `export-dot F` and
# `decompose F --dot` became the one route to each.
DOT_GOLDEN = {
    "corpus_graph_dot":
        "cf217b8f29fa0695b9e4736ee30607b6510c4ca2b634d7317cf33d0d8221bcee",
    "corpus_decomposition_dot":
        "ed377ba8e96db3e09edfaf670fdb945d55056a53c49530885a5f7dfcaf8fc65d",
    "mutant_graph_dot":
        "8bda62025fa35232199ac67b92f6cd0cb1aa2ce001782aa3f6d8184ad3048e21",
    "mutant_decomposition_dot":
        "c305912441079f6fcc89f90ae66486f1785b9088a039991fba9eeb01261cbdd1",
}


def test_dot_output_matches_golden(tmp_path):
    sets = {"corpus": generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES),
            "mutant": [e for _, e in mutants()]}
    got = {}
    for name, exprs in sets.items():
        files = [tmp_path / f"{name}{i:04d}.cwx" for i in range(len(exprs))]
        for path, e in zip(files, exprs):
            write_cwx(path, e)
        got[f"{name}_graph_dot"] = digest(cli("export-dot", f) for f in files)
        got[f"{name}_decomposition_dot"] = digest(cli("decompose", f, "--dot") for f in files)
    assert got == DOT_GOLDEN


# ------------------------------------------------------------- decompose

# [exit code, stdout, stderr] of `decompose F` on the metric-layer files, on
# the non-strict mutants written as .cwx, and on the character-level text
# mutants written as files.  Recorded from the implementation that parsed
# every file into an AST before folding it; they pin the printed JSON and
# which error wins when a file has more than one, such as a non-strict node
# before a cut or a stray character.
DECOMPOSE_GOLDEN = {
    "metric_decompose":
        "b7f8aa1718bfbfa45f59ff8911aa30405d45cc69ff7cad6605715d30deb19c8b",
    "mutant_decompose":
        "c305912441079f6fcc89f90ae66486f1785b9088a039991fba9eeb01261cbdd1",
    "text_decompose":
        "7a3d99c48e2ac1da7af1bde87dbbea6b2ae7661bcde84e56061f68eb1d9cce4d",
}


def test_decompose_output_matches_golden(metric_files, tmp_path):
    mutant_files = [tmp_path / f"mutant{i:04d}.cwx" for i in range(MUTANT_COUNT)]
    for path, (_, e) in zip(mutant_files, mutants()):
        write_cwx(path, e)
    text_files = [tmp_path / f"text{i:04d}.cwx" for i in range(TEXT_COUNT)]
    for path, text in zip(text_files, text_mutants()):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    runs = {name: [cli("decompose", f) for f in files] for name, files in (
        ("metric_decompose", metric_files), ("mutant_decompose", mutant_files),
        ("text_decompose", text_files))}
    assert {code for code, _, _ in runs["text_decompose"]} == {0, 2, 3}
    assert {name: digest(outcomes) for name, outcomes in runs.items()} == DECOMPOSE_GOLDEN
