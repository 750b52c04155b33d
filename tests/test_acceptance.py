"""Seven batch guarantees over a 520-expression corpus and every generator.

Each test prints one ACCEPTANCE line (PASS or FAIL) and then asserts.
Expected values are recomputed from scratch where it matters: distances
with the plain Floyd-Warshall from tests/helpers.py, treewidth with the
exact oracle, cover properties with raw set arithmetic.
"""

import math

import pytest

from cwkit import (CoverFamily, DecompositionResult, Graph, Partition, QiMap,
                   TreeDecomposition, brute_treewidth, build_minor_model,
                   check_partqi_tight, check_qi, complete_graph,
                   cover_by_components, decompose, evaluate, gen_path,
                   gen_spider, gen_subdivided_clique, generate_corpus,
                   parse, projection_map, pullback_cover, quotient,
                   subdivide, subdivision_path, validate_strict,
                   verify_result, width)

from helpers import floyd_warshall, has_minor, spider_graph

SEED = 20260815
COUNT = 520
MAX_K = 6
MAX_LEAVES = 40

INF = float("inf")


def announce(capsys, number, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"


@pytest.fixture(scope="module")
def corpus():
    out = []
    for e in generate_corpus(SEED, COUNT, MAX_K, MAX_LEAVES):
        cg = evaluate(e)
        out.append((e, cg, decompose(e)))
    return out


def path_cases():
    for length in range(1, 21):
        for palette, xc, yc, ic in ((3, 1, 2, 1), (4, 1, 2, 3)):
            e = gen_path("x", "y", length, palette, xc, yc, ic)
            seq = subdivision_path("x", "y", length - 1)
            want = Graph(seq, list(zip(seq, seq[1:])))
            colors = {v: ic for v in seq[1:-1]}
            colors["x"], colors["y"] = xc, yc
            yield (f"path length={length} palette={palette}",
                   e, want, colors, palette)


def spider_cases():
    for t in (3, 4, 5):
        shapes = [[n] * t for n in (1, 2, 3, 4)]
        shapes.append([(i % 4) + 1 for i in range(t)])
        for legs in shapes:
            e = gen_spider(t, legs)
            colors = {"c": t + 1}
            for ell, n in enumerate(legs, start=1):
                colors[str(ell)] = ell
                for m in range(1, n):
                    colors[f"{ell}.{m}"] = t + 1
            yield (f"spider t={t} legs={legs}",
                   e, spider_graph(t, legs), colors, t + 3)


def clique_cases():
    for n in (4, 5):
        for times in (0, 1, 7):
            e = gen_subdivided_clique(n, times)
            want = subdivide(complete_graph(n), times)
            colors = {str(i): i for i in range(1, n + 1)}
            for v in want.vertices:
                colors.setdefault(v, n)
            yield f"clique n={n} times={times}", e, want, colors, n + 2


@pytest.fixture(scope="module")
def witnesses():
    return list(path_cases()) + list(spider_cases()) + list(clique_cases())


def test_criterion_1_every_construction_verifies(capsys, corpus, witnesses):
    failures = []
    for idx, (e, cg, result) in enumerate(corpus):
        report = verify_result(cg, result)
        if not report.ok:
            failures.append(
                f"corpus[{idx}]: {[c.name for c in report.failed()]}")
    for label, e, _, _, _ in witnesses:
        cg = evaluate(e)
        report = verify_result(cg, decompose(e))
        if not report.ok:
            failures.append(f"{label}: {[c.name for c in report.failed()]}")
    announce(capsys, 1, "every decomposition verifies", failures)


def test_criterion_2_projection_bounds(capsys, corpus):
    failures = []
    for idx, (e, cg, result) in enumerate(corpus):
        tight = check_partqi_tight(cg.graph, result.partition)
        if not tight.ok:
            failures.append(f"corpus[{idx}]: projection bounds violated")
            continue
        # parts have weak diameter at most 2, so the verified bound
        # r/(c+1) - 1 <= r' <= r subsumes r/3 - 1 <= r' <= r
        if tight.c > 2:
            failures.append(f"corpus[{idx}]: part weak diameter {tight.c} > 2")
        qi = check_qi(projection_map(cg.graph, result.partition).with_c(3))
        if not qi.ok:
            failures.append(f"corpus[{idx}]: projection is no 3-quasi-isometry")
    announce(capsys, 2, "projections are 3-quasi-isometries with tight bounds",
             failures)


def test_criterion_3_quotient_treewidth(capsys, corpus):
    failures = []
    checked = 0
    for idx, (e, cg, result) in enumerate(corpus):
        q, _ = quotient(cg.graph, result.partition)
        if len(q) > 12:
            continue
        checked += 1
        tw = brute_treewidth(q)
        if tw > e.k - 1:
            failures.append(f"corpus[{idx}]: treewidth {tw} > k-1 = {e.k - 1}")
    if checked < 300:
        failures.append(f"only {checked} quotients fit the exact oracle")
    announce(capsys, 3, "quotient treewidth stays below the palette size",
             failures)


def test_criterion_4_generator_fidelity(capsys, witnesses):
    failures = []
    for label, e, want, colors, palette in witnesses:
        if e.k != palette:
            failures.append(f"{label}: palette {e.k} != {palette}")
            continue
        if not validate_strict(e).strict_valid:
            failures.append(f"{label}: not strict")
            continue
        cg = evaluate(e)
        if cg.graph != want:
            failures.append(f"{label}: evaluates to the wrong graph")
        elif cg.colors != colors:
            failures.append(f"{label}: wrong final colouring")
    announce(capsys, 4, "generators hit their graphs on the stated palettes",
             failures)


def test_criterion_5_deep_clique_pipeline(capsys):
    failures = []
    e = gen_subdivided_clique(4, 7)
    cg = evaluate(e)
    if e.k != 6:
        failures.append(f"palette is {e.k}, expected 6")
    if max(cg.used_colors()) > 6:
        failures.append(f"colours used: {sorted(cg.used_colors())}")

    result = decompose(e)
    report = verify_result(cg, result)
    if not report.ok:
        failures.append(f"verification: {[c.name for c in report.failed()]}")
    if width(result.tree) > 5:
        failures.append(f"decomposition width {width(result.tree)} > 5")
    m = projection_map(cg.graph, result.partition)
    if m.c != 3:
        failures.append(f"projection parameter {m.c}, expected 3")
    if not check_qi(m).ok:
        failures.append("projection fails its own parameter")
    if not check_partqi_tight(cg.graph, result.partition).ok:
        failures.append("tight projection bounds fail")

    # minor model through the identity embedding; the separations the
    # construction needs are re-derived with an independent distance table
    k4 = complete_graph(4)
    sub = subdivide(k4, 7)
    dist = floyd_warshall(list(sub.vertices), list(sub.edges))
    branch = ["1", "2", "3", "4"]
    for i, u in enumerate(branch):
        for v in branch[i + 1:]:
            if dist[u].get(v) != 8:
                failures.append(f"dist({u},{v}) = {dist[u].get(v)}, expected 8")
    balls = {b: {v for v in sub.vertices if dist[b].get(v, INF) <= 2}
             for b in branch}
    for i, u in enumerate(branch):
        for v in branch[i + 1:]:
            sep = min(dist[x].get(y, INF)
                      for x in balls[u] for y in balls[v])
            if sep != 4:
                failures.append(f"balls at {u},{v} separated by {sep}, not 4")
    ident = QiMap(sub, sub, {v: v for v in sub.vertices}, 1.0)
    model = build_minor_model(k4, ident)
    if sorted(len(s) for s in model.branch_sets.values()) != [10] * 4:
        failures.append("branch set sizes changed")
    if sorted(len(s) for s in model.edge_paths.values()) != [7] * 6:
        failures.append("edge path sizes changed")

    # exact oracle agreement on both ends of the pipeline
    if not has_minor(sub, k4):
        failures.append("subdivision lost its clique minor")
    q, _ = quotient(cg.graph, result.partition)
    if not has_minor(q, k4):
        failures.append("quotient has no K4 minor")
    if brute_treewidth(k4) != 3:
        failures.append("oracle disagrees on K4 itself")
    announce(capsys, 5, "deep subdivided clique pipeline", failures)


def test_criterion_6_cover_pullbacks(capsys, corpus):
    failures = []
    triples = 0
    graphs_used = 0
    for idx, (e, cg, result) in enumerate(corpus[:20]):
        g = cg.graph
        m = projection_map(g, result.partition).with_c(3)
        dist = floyd_warshall(list(g.vertices), list(g.edges))
        graphs_used += 1
        for r in (1, 2, 5):
            r_target = 3 * r + 3
            cover = cover_by_components(m.target, r_target)
            slope = max(1, math.ceil(cover.diameter_bound / r_target))
            pulled = pullback_cover(m, CoverFamily(cover.collections, r_target, slope * r_target), r)
            triples += 1
            want_bound = 3 * slope * (6 * r) + 9 * r
            if pulled.diameter_bound != want_bound:
                failures.append(f"corpus[{idx}] r={r}: bound "
                                f"{pulled.diameter_bound} != {want_bound}")
                continue
            covered = set()
            for coll in pulled.collections:
                sets = list(coll)
                for s in sets:
                    covered |= s
                    diam = max((dist[x].get(y, INF) for x in s for y in s),
                               default=0)
                    if diam > want_bound:
                        failures.append(f"corpus[{idx}] r={r}: weak diameter "
                                        f"{diam} > {want_bound}")
                for i, a in enumerate(sets):
                    for b in sets[i + 1:]:
                        sep = min(dist[x].get(y, INF)
                                  for x in a for y in b)
                        if sep <= r:
                            failures.append(f"corpus[{idx}] r={r}: sets "
                                            f"{sep} apart at scale {r}")
            if covered != set(g.vertices):
                failures.append(f"corpus[{idx}] r={r}: not a cover")
    if triples < 50:
        failures.append(f"only {triples} pullbacks exercised")
    if graphs_used < 18:
        failures.append(f"only {graphs_used} graphs exercised")
    announce(capsys, 6, "cover pullbacks meet the linear bound exactly",
             failures)


THREE_TEXT = """cw k=2
(join 1 2
  (union
    (join 1 2
      (union
        (v a 1)
        (v b 2)))
    (v c 2)))
"""

FLAT_TEXT = """cw k=2
(union
  (union
    (v a 1)
    (v b 2))
  (v c 2))
"""


def test_criterion_7_planted_defects_caught(capsys):
    e = parse(THREE_TEXT)
    cg, result = evaluate(e), decompose(e)
    flat = parse(FLAT_TEXT)
    fg, fresult = evaluate(flat), decompose(flat)

    def retree(res, tree=None, bags=None):
        td = TreeDecomposition(tree if tree is not None else res.tree.tree,
                               bags if bags is not None else dict(res.tree.bags))
        return DecompositionResult(res.partition, res.part_colors, td, res.rainbow_node)

    pruned = Graph(list(result.tree.tree.vertices),
                   [ed for ed in result.tree.tree.edges if set(ed) != {3, 4}])
    stripped = dict(result.tree.bags)
    stripped[2] = frozenset({"a"})
    oversized = dict(fresult.tree.bags)
    oversized[fresult.rainbow_node] = frozenset({"a", "b", "c"})

    split = Partition({"a": ["a"], "merge(2,0)": ["b"], "strand": ["c"]})
    mutations = [
        ("bag element removed", "bag_subtrees", cg, retree(result, bags=stripped)),
        ("part split", "part_colors_match", cg,
         DecompositionResult(split, result.part_colors, result.tree, result.rainbow_node)),
        ("colour flipped", "part_colors_match", cg, DecompositionResult(
            result.partition, {"a": 1, "merge(2,0)": 1}, result.tree, result.rainbow_node)),
        ("tree edge removed", "tree_valid", cg, retree(result, tree=pruned)),
        ("rainbow node reassigned", "rainbow_bag", cg,
         DecompositionResult(result.partition, result.part_colors, result.tree, 0)),
        ("oversized bag", "width_bound", fg, retree(fresult, bags=oversized)),
    ]

    failures = []
    for label, name, graph, broken in mutations:
        report = verify_result(graph, broken)
        chk = report.check(name)
        if report.ok:
            failures.append(f"{label}: planted defect not caught at all")
        elif chk.ok:
            failures.append(f"{label}: {name} did not catch it")
        elif chk.witness is None:
            failures.append(f"{label}: caught without a witness")
    announce(capsys, 7, "verifier pins every planted defect", failures)
