"""The three workloads: seeded inputs, the CLI calls of one verdict, checks.

Each workload builds its inputs from the seed alone (build, in the parent
process, timing its work with the stopwatch it is given), then a fresh
process turns them into rounds of items with their expected answers
(prepare) and drives the CLI one verdict at a time (verdict).  A round is
the smallest mix of inputs the workload repeats, so every run measures
whole rounds and the same mix.  None of them touches the exact oracles
(brute_treewidth, has_minor, --oracle): those are graders.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil

import oracle


class Verdict:
    """One input carried through its CLI calls to a checked answer."""

    __slots__ = ("seconds", "invocations", "failures", "instances", "problems")

    def __init__(self, instances=1):
        self.seconds = 0.0
        self.invocations = 0
        self.failures = 0
        self.instances = instances
        self.problems = []

    def call(self, cli, argv, check):
        """Run one CLI invocation and judge it with check(stdout)."""
        rc, out, seconds = cli(argv)
        self.seconds += seconds
        self.invocations += 1
        if rc != 0:
            found = [f"exit code {rc!r}"]
        else:
            try:
                found = check(out)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                found = [f"unreadable output: {exc!r}"]
        if found:
            self.failures += 1
            self.problems.append(f"{argv[0]}: {found[0]}")


def digest(manifest, files=()):
    """sha256 over the manifest and the bytes of every input file."""
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rng(workload, seed, scale):
    return random.Random(f"{workload}/{seed}/{scale}")


def _name(rng, prefix):
    return f"{prefix}{rng.randrange(1000):03d}"


#: (x, y, interior) colours for gen_path on palette 4.  The choice moves the
#: cost of a 480-edge decompose by up to a fifth, so each path slot keeps a
#: fixed entry and only vertex names vary with the seed.
PATH_COLORS = ((1, 2, 3), (3, 2, 3), (1, 4, 2), (2, 1, 2), (4, 3, 1), (1, 2, 1))
PALETTE = 4


def _scaled(n, scale):
    return max(1, round(n * scale))


def _rounds(manifest, expect):
    """(warm-up items, rounds of items), each item passed through expect."""
    return ([expect(i) for i in manifest["warmup"]],
            [[expect(i) for i in r] for r in manifest["rounds"]])


# ------------------------------------------------------------- deep-path


def compact_text(e):
    """One-line .cwx text of an expression, O(size) long, built iteratively."""
    from cwkit.expressions import Join, Leaf, Recolor, Union

    out = [f"cw k={e.k}\n"]
    todo = [e.root]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Leaf):
            out.append(f"(v {node.vertex} {node.color})")
        elif isinstance(node, Union):
            out.append("(union ")
            todo += [")", node.right, " ", node.left]
        elif isinstance(node, Recolor):
            out.append(f"(recolor {node.old_color} {node.new_color} ")
            todo += [")", node.child]
        elif isinstance(node, Join):
            out.append(f"(join {node.color_a} {node.color_b} ")
            todo += [")", node.child]
        else:
            raise TypeError(f"unknown node {node!r}")
    return "".join(out) + "\n"


class DeepPath:
    """`decompose` on long paths and long-leg spiders given as compact text.

    The text stays O(L), so the expression core (evaluate, validate_strict,
    decompose) and verify_result, all quadratic today, do most of the work.
    """

    name = "deep-path"
    LENGTH = 360                 # edges per path, and per spider in total
    SPIDER_LEGS = (90, 120, 150)
    # A round: six paths and two spiders of LENGTH, and two LONG paths.  The
    # long paths are a fifth of the verdicts and clearly slower, so the p90
    # lands in the middle of them rather than on their fastest one or on
    # the host's passing slowdowns.
    LONG = 480
    ROUNDS = 3                   # distinct rounds built; runs cycle them
    trace_rounds = 3
    mem_rounds = 1

    def build(self, seed, scale, workdir, watch):
        from cwkit.generators import gen_path, gen_spider

        rng = _rng(self.name, seed, scale)
        length = _scaled(self.LENGTH, scale)
        legs = [_scaled(n, scale) for n in self.SPIDER_LEGS]
        rounds, files, problems = [], [], []

        def emit(item, e, graph):
            name = f"{item['kind']}-{len(files):03d}.cwx"
            path = os.path.join(workdir, name)
            text = compact_text(e)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if oracle.interpret_cwx(text) != (e.k, *graph):
                problems.append(f"{name}: generated text does not denote the {item['kind']}")
            files.append(path)
            return {**item, "file": name, "k": e.k}

        def path_item(length, colors):
            x, y = _name(rng, "a"), _name(rng, "b")
            item = {"kind": "path", "x": x, "y": y, "length": length}
            return emit(item, gen_path(x, y, length, PALETTE, *colors),
                        oracle.path_graph(x, y, length))

        def spider_item(spider_legs):
            return emit({"kind": "spider", "legs": spider_legs},
                        gen_spider(len(spider_legs), spider_legs),
                        oracle.spider_graph(spider_legs))

        # Each input is timed on its own, so the host's drift cancels better.
        warmup = watch(path_item, 8, PATH_COLORS[0])
        for _ in range(self.ROUNDS):
            items = [watch(path_item, length, colors) for colors in PATH_COLORS]
            items += [watch(spider_item, legs), watch(spider_item, legs[::-1])]
            items += [watch(path_item, _scaled(self.LONG, scale), PATH_COLORS[0])
                      for _ in range(2)]
            rng.shuffle(items)
            rounds.append(items)
        manifest = {"workload": self.name, "warmup": [warmup], "rounds": rounds}
        return manifest, digest(manifest, files), problems

    def prepare(self, manifest, workdir):
        def expect(item):
            graph = (oracle.path_graph(item["x"], item["y"], item["length"])
                     if item["kind"] == "path" else oracle.spider_graph(item["legs"]))
            return {**item, "file": os.path.join(workdir, item["file"]), "graph": graph}
        return _rounds(manifest, expect)

    def verdict(self, item, cli):
        v = Verdict()
        k, (vertices, edges) = item["k"], item["graph"]
        v.call(cli, ["decompose", item["file"]],
               lambda out: oracle.check_decompose(oracle.strict_json(out),
                                                  k, vertices, edges))
        return v


# ------------------------------------------------------- witness-pipeline


class WitnessPipeline:
    """generate -> qi-check -> cover-pullback (-> minor-model) per witness.

    Canonical text I/O and the verifiers do the work; the expression core
    does little.  format_expr's memory grows quadratically with the path
    length, so canonical paths and spiders stay at or below 300 edges.
    """

    name = "witness-pipeline"
    CLIQUES = ((5, 7), (6, 7), (7, 7))
    # Nine witnesses whose chain costs are well apart around the median
    # (clique 5) and the p90 (path 150), so both land inside one kind.
    PATHS = (20, 40, 60, 150)
    SPIDERS = ((15, 20, 25), (30, 40, 50))
    ROUNDS = 4
    trace_rounds = 2
    mem_rounds = 1

    def build(self, seed, scale, workdir, watch):
        del workdir  # generate writes the witness files during the run
        manifest = watch(self._manifest, seed, scale)
        return manifest, digest(manifest), []

    def _manifest(self, seed, scale):
        rng = _rng(self.name, seed, scale)
        counter = itertools.count()

        def out_file():
            return f"witness-{next(counter):03d}.cwx"

        def path(length, colors):
            xc, yc, ic = colors
            return {"kind": "path", "x": _name(rng, "a"), "y": _name(rng, "b"),
                    "length": length, "palette": PALETTE, "x_color": xc,
                    "y_color": yc, "inner_color": ic, "file": out_file()}

        warmup = [{"kind": "clique", "n": 4, "times": 7, "file": out_file()}]
        rounds = []
        for _ in range(self.ROUNDS):
            items = [{"kind": "clique", "n": n, "times": t, "file": out_file()}
                     for n, t in self.CLIQUES]
            items += [path(_scaled(n, scale), colors)
                      for n, colors in zip(self.PATHS, PATH_COLORS)]
            items += [{"kind": "spider", "legs": [_scaled(n, scale) for n in legs],
                       "file": out_file()}
                      for legs in self.SPIDERS]
            rng.shuffle(items)
            rounds.append(items)
        return {"workload": self.name, "warmup": warmup, "rounds": rounds}

    def prepare(self, manifest, workdir):
        def expect(item):
            return {**item, "file": os.path.join(workdir, item["file"]),
                    "graph": oracle.witness_graph(item)}
        return _rounds(manifest, expect)

    @staticmethod
    def _generate_argv(item):
        if item["kind"] == "path":
            return ["generate", "path", "--x", item["x"], "--y", item["y"],
                    "--length", str(item["length"]), "--palette", str(item["palette"]),
                    "--x-color", str(item["x_color"]), "--y-color", str(item["y_color"]),
                    "--inner-color", str(item["inner_color"])]
        if item["kind"] == "spider":
            return ["generate", "spider", "--legs", ",".join(map(str, item["legs"]))]
        return ["generate", "subdivided-clique", "--n", str(item["n"]),
                "--times", str(item["times"])]

    def verdict(self, item, cli):
        v = Verdict()
        vertices, edges = item["graph"]
        path = item["file"]

        def check_text(out):
            with open(path, encoding="utf-8") as fh:
                _, got_v, got_e = oracle.interpret_cwx(fh.read())
            if out or (got_v, got_e) != (vertices, edges):
                return ["canonical text does not denote the witness"]
            return []

        v.call(cli, self._generate_argv(item) + ["--out", path], check_text)
        v.call(cli, ["qi-check", path],
               lambda out: oracle.check_qi(oracle.strict_json(out)))
        v.call(cli, ["cover-pullback", path],
               lambda out: oracle.check_cover(oracle.strict_json(out), vertices))
        if item["kind"] == "clique":
            n = item["n"]
            v.call(cli, ["minor-model", "--n", str(n), "--times", str(item["times"])],
                   lambda out: oracle.check_minor_model(oracle.strict_json(out),
                                                        n, vertices, edges))
        return v


# ---------------------------------------------------------- corpus-batch


class CorpusBatch:
    """`corpus` with the acceptance shape, one batch per verdict.

    Many small, dense, shallow instances: per-instance overhead and the
    .cwx writes dominate, and no stage takes much more than a fifth.
    """

    name = "corpus-batch"
    COUNT = 40
    # A round: four batches of COUNT and one of LONG_COUNT.  Batches differ
    # in cost, so the p90 should sit in the middle of the larger batches, not
    # on their cheapest one or on passing slowdowns.  A short round keeps a
    # run's overshoot past --seconds small.
    BATCHES = 4
    LONG_COUNT = 80
    MAX_K = 6
    MAX_LEAVES = 40
    ROUNDS = 80                  # distinct rounds built; runs cycle them
    trace_rounds = 4
    mem_rounds = 1

    def build(self, seed, scale, workdir, watch):
        del workdir  # corpus writes its batches during the run
        manifest = watch(self._manifest, seed, scale)
        return manifest, digest(manifest), []

    def _manifest(self, seed, scale):
        rng = _rng(self.name, seed, scale)
        leaves = _scaled(self.MAX_LEAVES, scale)
        counter = itertools.count()

        def batch(count):
            return {"seed": rng.randrange(10 ** 9), "count": count, "max_k": self.MAX_K,
                    "max_leaves": leaves, "out_dir": f"corpus-{next(counter):03d}"}

        warmup = [batch(2)]
        rounds = []
        for _ in range(self.ROUNDS):
            items = [batch(self.COUNT) for _ in range(self.BATCHES)] + [batch(self.LONG_COUNT)]
            rng.shuffle(items)
            rounds.append(items)
        return {"workload": self.name, "warmup": warmup, "rounds": rounds}

    def prepare(self, manifest, workdir):
        return _rounds(manifest, lambda item: {
            **item, "out_dir": os.path.join(workdir, item["out_dir"])})

    def verdict(self, item, cli):
        v = Verdict(instances=item["count"])
        out_dir = item["out_dir"]

        def check(out):
            summary = oracle.strict_json(out)
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
                if oracle.strict_json(fh.read()) != summary:
                    return ["summary.json differs from stdout"]
            if not summary["all_pass"] or len(summary["instances"]) != item["count"]:
                return ["batch did not pass, or has the wrong instance count"]
            for inst in summary["instances"]:
                with open(os.path.join(out_dir, inst["file"]), encoding="utf-8") as fh:
                    k, vertices, edges = oracle.interpret_cwx(fh.read())
                if (k, len(vertices), len(edges)) != (inst["k"], inst["vertices"],
                                                      inst["edges"]):
                    return [f"{inst['file']}: counts differ from the interpreter's"]
            return []

        v.call(cli, ["corpus", "--seed", str(item["seed"]), "--count", str(item["count"]),
                     "--max-k", str(item["max_k"]), "--max-leaves", str(item["max_leaves"]),
                     "--out-dir", out_dir], check)
        shutil.rmtree(out_dir, ignore_errors=True)
        return v


WORKLOADS = {w.name: w for w in (DeepPath(), WitnessPipeline(), CorpusBatch())}
