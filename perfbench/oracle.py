"""Independent answers the benchmark checks cwkit's CLI output against.

Nothing here imports cwkit.  Witness graphs come from their closed forms,
.cwx text is evaluated by a small interpreter of its own, and decomposition
and minor-model outputs are checked against the definitions.  Graphs and
JSON are compared, never expression ASTs: AST equality recurses and fails
on deep inputs.
"""

from __future__ import annotations

import json

# ------------------------------------------------------------ closed forms


def _chain(a, b, count):
    """a, the count interior vertices "<u>-<v>.<m>" of edge ab, then b.

    u is the smaller endpoint and m counts from u's side, as the generator
    docstrings specify.
    """
    u, v = (a, b) if a < b else (b, a)
    names = [f"{u}-{v}.{m}" for m in range(1, count + 1)]
    return [a] + (names if a == u else names[::-1]) + [b]


def _from_chains(chains):
    vertices, edges = set(), set()
    for seq in chains:
        vertices.update(seq)
        edges.update(frozenset(e) for e in zip(seq, seq[1:]))
    return frozenset(vertices), frozenset(edges)


def path_graph(x, y, length):
    """The path gen_path(x, y, length, ...) denotes."""
    return _from_chains([_chain(x, y, length - 1)])


def spider_graph(legs):
    """The spider gen_spider(len(legs), legs) denotes: centre "c"."""
    chains = []
    for ell, n in enumerate(legs, start=1):
        chains.append(["c"] + [f"{ell}.{m}" for m in range(1, n)] + [str(ell)])
    return _from_chains(chains)


def clique_graph(n, times):
    """K_n on "1".."n" with every edge subdivided times times."""
    names = [str(i) for i in range(1, n + 1)]
    return _from_chains([_chain(a, b, times)
                         for i, a in enumerate(names) for b in names[i + 1:]])


def witness_graph(spec):
    if spec["kind"] == "path":
        return path_graph(spec["x"], spec["y"], spec["length"])
    if spec["kind"] == "spider":
        return spider_graph(spec["legs"])
    return clique_graph(spec["n"], spec["times"])


# ------------------------------------------------------- .cwx interpreter


def interpret_cwx(text):
    """(k, vertices, edges) of a .cwx document, evaluated from scratch.

    State per subexpression is colour -> set of vertices; edges go into one
    set of frozenset pairs.  Unions merge the smaller state into the larger.
    """
    header, _, body = text.lstrip().partition("\n")
    key, _, value = header.replace(" ", "").partition("=")
    if key != "cwk":
        raise ValueError(f"bad header {header!r}")
    k = int(value)
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    edges = set()
    stack = []  # frames: [operator, atoms, child states]
    result = None
    for tok in tokens:
        if tok == "(":
            stack.append([None, [], []])
        elif tok == ")":
            op, atoms, kids = stack.pop()
            if op == "v":
                state = {int(atoms[1]): {atoms[0]}}
            elif op == "union":
                small, big = sorted(kids, key=lambda st: sum(map(len, st.values())))
                for c, members in small.items():
                    big.setdefault(c, set()).update(members)
                state = big
            else:
                a, b = int(atoms[0]), int(atoms[1])
                (state,) = kids
                if op == "recolor":
                    moved = state.pop(a, set())
                    state.setdefault(b, set()).update(moved)
                elif op == "join":
                    for u in state.get(a, ()):
                        for w in state.get(b, ()):
                            edges.add(frozenset((u, w)))
                else:
                    raise ValueError(f"unknown operator {op!r}")
            if stack:
                stack[-1][2].append(state)
            else:
                result = state
        elif stack[-1][0] is None:
            stack[-1][0] = tok
        else:
            stack[-1][1].append(tok)
    if result is None or stack:
        raise ValueError("unbalanced expression")
    vertices = frozenset(v for members in result.values() for v in members)
    return k, vertices, frozenset(edges)


# ------------------------------------------------------------ JSON checks


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(text):
    """Parse CLI stdout as strict JSON (no NaN or Infinity)."""
    return json.loads(text, parse_constant=_reject_constant)


def _adjacency(vertices, edges):
    adj = {v: {v} for v in vertices}
    for e in edges:
        u, w = tuple(e)
        adj[u].add(w)
        adj[w].add(u)
    return adj


def _connected(members, adj):
    members = set(members)
    start = next(iter(members))
    seen, todo = {start}, [start]
    while todo:
        for w in adj[todo.pop()]:
            if w in members and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen == members


def check_decompose(obj, k, vertices, edges):
    """Problems with a `decompose` output, judged on the known graph."""
    problems = []
    verification = obj["verification"]
    if not verification["ok"] or len(verification["checks"]) != 10:
        problems.append("verification did not pass all 10 checks")
    parts = obj["result"]["parts"]
    seen = [v for members in parts.values() for v in members]
    if len(seen) != len(set(seen)) or set(seen) != vertices:
        problems.append("parts do not partition the vertex set")
        return problems
    adj = _adjacency(vertices, edges)
    for pid, members in parts.items():
        # a dominating vertex is a member or a neighbour of one
        cands = set().union(*(adj[v] for v in members))
        if not any(set(members) <= adj[w] for w in cands):
            problems.append(f"part {pid!r} is not dominated")
            break
    if max(len(b) for b in obj["result"]["tree"]["bags"].values()) > k:
        problems.append("a bag holds more than k parts")
    return problems


def check_qi(obj):
    if not obj["qi"]["ok"] or not obj["tight_projection_bounds"]["ok"]:
        return ["quasi-isometry checks did not pass"]
    return []


def check_cover(obj, vertices):
    problems = []
    if not obj["validation"]["ok"]:
        problems.append("pulled-back cover failed validation")
    covered = {v for coll in obj["cover"]["collections"] for s in coll for v in s}
    if covered != vertices:
        problems.append("pulled-back cover does not cover exactly the vertex set")
    return problems


def check_minor_model(obj, n, vertices, edges):
    """A K_n minor model in the closed-form host, checked by definition."""
    names = [str(i) for i in range(1, n + 1)]
    pairs = [f"{a}--{b}" for i, a in enumerate(names) for b in names[i + 1:]]
    branch, paths = obj["branch_sets"], obj["edge_paths"]
    if sorted(branch) != sorted(names) or sorted(paths) != sorted(pairs):
        return [f"expected {n} branch sets and {len(pairs)} edge paths"]
    adj = _adjacency(vertices, edges)
    sets = {**{("b", v): set(s) for v, s in branch.items()},
            **{("p", e): set(s) for e, s in paths.items()}}
    problems = []
    for key, s in sets.items():
        if not s or not s <= vertices or not _connected(s, adj):
            problems.append(f"model set {key} is empty, foreign or disconnected")
    for group in ("b", "p"):
        keys = [key for key in sets if key[0] == group]
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if sets[a] & sets[b]:
                    problems.append(f"model sets {a} and {b} intersect")
    for v in names:
        if v not in branch[v]:
            problems.append(f"branch set of {v} misses {v}")
    for e in pairs:
        for v in e.split("--"):
            if not sets[("p", e)] & sets[("b", v)]:
                problems.append(f"edge path {e} misses branch set {v}")
    return problems
