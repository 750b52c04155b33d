"""Self-contained oracles for the tests.

Everything here is implemented from scratch against the definitions, on
purpose: expected values come from these, never from the code under test.
Only the expression node classes, ParseError and Graph come from cwkit, so
that a reference parse can be compared with parse's result and errors, and
a reference graph with evaluate's, directly.
"""

import itertools
import math
import re

from cwkit import CwExpr, Graph, Join, Leaf, ParseError, Recolor, Union


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    return adj


def floyd_warshall(vertices, edges):
    """All-pairs distances; missing key means unreachable."""
    dist = {v: {v: 0} for v in vertices}
    for u, w in edges:
        dist[u][w] = 1
        dist[w][u] = 1
    for mid in vertices:
        dmid = dist[mid]
        for a in vertices:
            da = dist[a]
            if mid not in da:
                continue
            through = da[mid]
            for b, rest in dmid.items():
                cand = through + rest
                if cand < da.get(b, float("inf")):
                    da[b] = cand
    return dist


def bfs_table(vertices, edges):
    """All-pairs distances by one plain BFS per vertex; missing key means unreachable."""
    adj = adjacency(vertices, edges)
    table = {}
    for v in vertices:
        dist, layer = {v: 0}, [v]
        while layer:
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            layer = nxt
        table[v] = dist
    return table


def naive_distance_pairs(source, target, mapping):
    """The distinct (dist(x, y), dist(f(x), f(y))) over x != y with both finite.

    source and target are (vertices, edges) pairs, mapping is f.
    """
    sd, td = bfs_table(*source), bfs_table(*target)
    return {(r, td[mapping[x]][mapping[y]]) for x in source[0] for y, r in sd[x].items()
            if x != y and mapping[y] in td[mapping[x]]}


def perm_treewidth(vertices, edges):
    """Exact treewidth by trying every elimination order.  Tiny graphs only."""
    vertices = list(vertices)
    best = len(vertices)
    for order in itertools.permutations(vertices):
        adj = adjacency(vertices, edges)
        width = 0
        for v in order:
            nb = adj.pop(v)
            width = max(width, len(nb))
            if width >= best:
                break
            for a in nb:
                adj[a].discard(v)
                adj[a].update(nb - {a})
        best = min(best, width)
    return best


def naive_dominated(vertices, edges, members):
    """(True, the smallest w whose closed neighborhood holds members), else (False, None)."""
    adj = adjacency(vertices, edges)
    members = set(members)
    for w in sorted(vertices):
        if members <= (adj[w] | {w}):
            return True, w
    return False, None


def naive_connected(edges, nodes):
    """Whether nodes is nonempty and connected by the edges that stay inside it."""
    nodes = set(nodes)
    if not nodes:
        return False
    seen = {min(nodes)}
    grew = True
    while grew:
        grew = False
        for a, b in edges:
            if a in nodes and b in nodes and (a in seen) != (b in seen):
                seen.update((a, b))
                grew = True
    return seen == nodes


def naive_verify_result(g, result):
    """verify_result's report as a JSON dict, with one scan of every bag per question.

    Same checks, order and witness strings as cwkit's verify_result, but
    domination, connectivity and the quotient come from the oracles above.
    """
    vertices = set(g.graph.vertices)
    edges = list(g.graph.edges)
    parts = {pid: set(members) for pid, members in result.partition.items()}
    ids = sorted(parts)
    bags = result.tree.bags
    tree_nodes = list(result.tree.tree.vertices)
    tree_edges = list(result.tree.tree.edges)
    checks = []

    def check(name, witnesses):
        witnesses = list(witnesses)
        checks.append({"name": name, "ok": not witnesses,
                       "witness": witnesses[0] if witnesses else None})

    covered = set().union(*parts.values())
    missing, extra = sorted(vertices - covered), sorted(covered - vertices)
    check("partition_covers",
          [f"missing={missing[:3]} extra={extra[:3]}"] if missing or extra else [])

    actual = {}
    mixed = []
    for pid in ids:
        cols = sorted({g.colors[v] for v in parts[pid] if v in vertices})
        actual[pid] = cols[0] if len(cols) == 1 else None
        if len(cols) != 1:
            mixed.append(f"part {pid!r} has colours {cols}")
    check("parts_monochromatic", mixed)

    if set(result.part_colors) != set(ids):
        check("part_colors_match", ["part_colors keys do not match the partition"])
    else:
        check("part_colors_match", [
            f"part {pid!r} labelled {result.part_colors[pid]} but its "
            f"vertices are coloured {actual.get(pid)}"
            for pid in ids if actual.get(pid) != result.part_colors[pid]])

    undominated = []
    for pid in ids:
        if not parts[pid] <= vertices:
            undominated.append(f"part {pid!r} has vertices outside the graph")
        elif not naive_dominated(vertices, edges, parts[pid])[0]:
            undominated.append(f"part {pid!r} fits in no closed neighborhood")
    check("parts_dominated", undominated)

    if not (tree_nodes and len(tree_edges) == len(tree_nodes) - 1
            and naive_connected(tree_edges, tree_nodes)):
        bad_tree = [f"not a tree: {len(tree_nodes)} nodes, {len(tree_edges)} edges"]
    else:
        stray = sorted({pid for b in bags.values() for pid in b} - set(ids))
        bad_tree = [f"bags mention unknown part ids {stray[:3]}"] if stray else []
    check("tree_valid", bad_tree)
    if bad_tree or missing or extra:
        for name in ("bag_subtrees", "edges_covered", "width_bound", "rainbow_bag",
                     "color_subtrees"):
            checks.append({"name": name, "ok": False,
                           "witness": "not evaluated: tree or partition invalid"})
        return {"ok": False, "checks": checks}

    scattered_parts = []
    for pid in ids:
        nodes = {t for t, b in bags.items() if pid in b}
        if not nodes:
            scattered_parts.append(f"part {pid!r} appears in no bag")
        elif not naive_connected(tree_edges, nodes):
            scattered_parts.append(f"bags holding part {pid!r} are disconnected")
    check("bag_subtrees", scattered_parts)

    owner = {v: pid for pid in ids for v in parts[pid]}
    quotient_edges = sorted({tuple(sorted((owner[u], owner[w]))) for u, w in edges
                             if owner[u] != owner[w]})
    check("edges_covered", [f"quotient edge ({u!r}, {w!r}) in no bag"
                            for u, w in quotient_edges
                            if not any(u in b and w in b for b in bags.values())])

    big = max(len(b) for b in bags.values())
    check("width_bound", [f"bag of {big} parts exceeds palette {g.k}"] if big > g.k else [])

    used = sorted(set(g.colors.values()))
    if result.rainbow_node not in bags:
        check("rainbow_bag", [f"rainbow node {result.rainbow_node!r} not in the tree"])
    else:
        bag = bags[result.rainbow_node]
        check("rainbow_bag", [f"rainbow bag holds no part of colour {color}" for color in used
                              if not any(actual.get(pid) == color for pid in bag)])

    scattered_colors = []
    for color in used:
        nodes = {t for t, b in bags.items() if any(actual.get(pid) == color for pid in b)}
        if not nodes:
            scattered_colors.append(f"no bag holds a part of colour {color}")
        elif not naive_connected(tree_edges, nodes):
            scattered_colors.append(f"bags holding colour {color} are disconnected")
    check("color_subtrees", scattered_colors)
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def naive_validate_td(graph_vertices, graph_edges, tree_edges, bags):
    """validate_td's report as a JSON dict, checked directly on raw data.

    Vertices and edges are taken in sorted order, and each check's witness is
    its first failure in validate_td's words; connectivity is naive_connected.
    """
    scattered = []
    for v in sorted(graph_vertices):
        holding = {t for t, b in bags.items() if v in b}
        if not holding:
            scattered.append(f"vertex {v!r} appears in no bag")
        elif not naive_connected(tree_edges, holding):
            scattered.append(f"bags holding vertex {v!r} are disconnected")
    uncovered = [f"edge ({u!r}, {w!r}) in no bag"
                 for u, w in sorted({tuple(sorted(e)) for e in graph_edges})
                 if not any(u in b and w in b for b in bags.values())]
    checks = [{"name": name, "ok": not found, "witness": found[0] if found else None}
              for name, found in (("bag_subtrees", scattered), ("edges_covered", uncovered))]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _first_max(values):
    """The largest value, the earliest one on ties (so int or float as it came)."""
    best = float("-inf")
    for x in values:
        if x > best:
            best = x
    return best


def _finite_or_none(x):
    return x if x not in (float("inf"), float("-inf")) else None


def naive_check_qi(source, target, mapping, c):
    """check_qi's report as a JSON dict, from two Floyd-Warshall tables.

    source and target are (vertices, edges) pairs.  Pairs x < y are taken in
    sorted order; the witness is the first pair outside the window
    dist/c - c <= dist' <= c*dist + c, or the first whose two distances are
    not both finite or both infinite.
    """
    svs, tvs = sorted(source[0]), sorted(target[0])
    sd = floyd_warshall(svs, source[1])
    td = floyd_warshall(tvs, target[1])
    lows, ups, bad = [], [], []
    for i, x in enumerate(svs):
        for y in svs[i + 1:]:
            r, rp = sd[x].get(y), td[mapping[x]].get(mapping[y])
            if r is None or rp is None:
                if (r is None) != (rp is None):
                    bad.append((x, y, "one side disconnected, the other not"))
                continue
            lows.append(r / c - c - rp)
            ups.append(rp - c * r - c)
            if lows[-1] > 0 or ups[-1] > 0:
                bad.append((x, y, f"dist {r} maps to {rp}"))
    image = {mapping[v] for v in svs}
    near = [min((td[w][u] for u in image if u in td[w]), default=float("inf"))
            for w in tvs]
    far = [w for w, d in zip(tvs, near) if d > c]
    bounds_ok, density_ok = not bad, not far
    return {"ok": bounds_ok and density_ok, "c": c,
            "distance_bounds": {"ok": bounds_ok,
                                "witness": list(bad[0]) if bad else None,
                                "worst_lower_margin": _finite_or_none(_first_max(lows)),
                                "worst_upper_margin": _finite_or_none(_first_max(ups))},
            "density": {"ok": density_ok, "witness": far[0] if far else None,
                        "worst": _finite_or_none(_first_max([0] + near))}}


def naive_check_partqi_tight(vertices, edges, parts):
    """check_partqi_tight's report as a JSON dict, or None when a part spans components.

    c is the largest weak diameter of a part; every pair x <= y at finite
    distance r, with quotient distance r', must satisfy r/(c+1) - 1 <= r' <= r.
    A quotient map never lengthens a distance, so r' is finite wherever r is.
    """
    vs = sorted(vertices)
    dist = floyd_warshall(vs, edges)
    diameters = [max(dist[a].get(b, float("inf")) for a in members for b in members)
                 for members in parts.values()]
    c = max(diameters)
    if c == float("inf"):
        return None
    owner = {v: pid for pid, members in parts.items() for v in members}
    qedges = {(owner[u], owner[w]) for u, w in edges if owner[u] != owner[w]}
    qdist = floyd_warshall(sorted(parts), qedges)
    lows, ups, lower_bad, upper_bad = [], [], [], []
    for i, x in enumerate(vs):
        for y in vs[i:]:
            r = dist[x].get(y)
            if r is None:
                continue
            rp = qdist[owner[x]][owner[y]]
            lows.append(r / (c + 1) - 1 - rp)
            ups.append(rp - r)
            if lows[-1] > 0:
                lower_bad.append((x, y, f"dist {r} maps to {rp}"))
            if ups[-1] > 0:
                upper_bad.append((x, y, f"dist {r} maps to {rp}"))
    return {"ok": not lower_bad and not upper_bad, "c": c,
            "lower": {"ok": not lower_bad,
                      "witness": list(lower_bad[0]) if lower_bad else None,
                      "worst_margin": _finite_or_none(_first_max(lows))},
            "upper": {"ok": not upper_bad,
                      "witness": list(upper_bad[0]) if upper_bad else None,
                      "worst_margin": _finite_or_none(_first_max(ups))}}


def naive_weak_diameter(vertices, edges, members):
    """max over pairs of members of their distance in the whole graph, from Floyd-Warshall."""
    dist = floyd_warshall(sorted(vertices), edges)
    return _first_max(dist[a].get(b, float("inf")) for a in members for b in members)


def naive_set_distance(vertices, edges, s, t):
    """min over a in s, b in t of their distance, from Floyd-Warshall."""
    dist = floyd_warshall(sorted(vertices), edges)
    return min(dist[a].get(b, float("inf")) for a in s for b in t)


def naive_closest_sets(vertices, edges, sets):
    """min over two of sets of their distance (0 when they meet), INFINITE for fewer than two."""
    dist = bfs_table(vertices, edges)
    return min((dist[a].get(b, float("inf")) for i, s in enumerate(sets) for t in sets[i + 1:]
                for a in s for b in t), default=float("inf"))


def pair_scan_cover_separation(vertices, edges, collections, r):
    """validate_cover's separation witness by a scan of every pair of sets in each
    collection: for the first collection whose least distance between two sets
    is at most r, that distance (0, an overlap, when two sets meet), or None."""
    dist = bfs_table(vertices, edges)
    for idx, coll in enumerate(collections):
        pairs = [(a, b) for i, a in enumerate(coll) for b in coll[i + 1:]]
        if not pairs:
            continue
        d = min(dist[x].get(y, float("inf")) for a, b in pairs for x in a for y in b)
        if d == 0:
            return f"collection {idx} has overlapping sets"
        if d <= r:
            return f"collection {idx}: sets at distance {d} <= scale {r}"
    return None


def pair_scan_minor_model(edges, h_vertices, h_edges, branch_sets, edge_paths):
    """The first failure of a minor model by the checks of every pair, or None.

    edges are the host's edges; branch_sets maps each vertex of h to its set,
    edge_paths each edge (u, v) of h, u < v, to its path.  Sets must be
    connected, branch sets pairwise disjoint and paths too, and each path must
    meet the sets of its ends and no other set, checked in that order.
    """
    hv, he = sorted(h_vertices), sorted(h_edges)
    for v in hv:
        if not naive_connected(edges, branch_sets[v]):
            return f"model set of {v!r} is disconnected in the host"
    for e in he:
        if not naive_connected(edges, edge_paths[e]):
            return f"model path of {e!r} is disconnected in the host"
    for v, w in itertools.combinations(hv, 2):
        if set(branch_sets[v]) & set(branch_sets[w]):
            return f"model sets of {v!r} and {w!r} intersect"
    for e, f in itertools.combinations(he, 2):
        if set(edge_paths[e]) & set(edge_paths[f]):
            return f"model paths of {e!r} and {f!r} intersect"
    for e in he:
        for v in hv:
            meets = bool(set(edge_paths[e]) & set(branch_sets[v]))
            if v in e and not meets:
                return f"model path of {e!r} misses the set of endpoint {v!r}"
            if v not in e and meets:
                return f"model path of {e!r} touches non-endpoint {v!r}"
    return None


def naive_fibre_width(source, target, mapping):
    """The projection lemma's D for mapping, or None when a premise fails.

    The premises: the map is onto, every source edge joins two vertices of
    one fibre or lands on a target edge, and every target edge is hit.  D is
    the largest weak diameter of a fibre; None if it is infinite.
    """
    (svs, ses), (tvs, tes) = source, target
    if {mapping[v] for v in svs} != set(tvs):
        return None
    crossing = {frozenset((mapping[u], mapping[w])) for u, w in ses if mapping[u] != mapping[w]}
    if crossing != {frozenset(e) for e in tes}:
        return None
    dist = floyd_warshall(sorted(svs), ses)
    d = max(dist[a].get(b, float("inf")) for a in svs for b in svs if mapping[a] == mapping[b])
    return None if d == float("inf") else d


# ------------------------------------------------------------ minor search

def has_minor(g, h):
    """Whether h is a minor of g, by exhaustive branch-set backtracking.

    g and h are graphs (anything with vertices and edges).  Searches for
    pairwise disjoint connected vertex sets of g, one per vertex of h, with
    an edge of g between the sets of every edge of h.  Demand-driven: the
    search always extends the assignment toward the first broken
    requirement, so each branch grows one branch set by one vertex.
    Complete and exponential, with no size cap: desk-sized inputs only.
    """
    adj = adjacency(g.vertices, g.edges)
    hadj = adjacency(h.vertices, h.edges)
    if not hadj:
        return True
    if len(hadj) > len(adj) or len(h.edges) > len(g.edges):
        return False

    hs = sorted(hadj, key=lambda v: (-len(hadj[v]), v))
    hidx = {v: i for i, v in enumerate(hs)}
    hedges = [tuple(sorted((hidx[u], hidx[v]))) for u, v in h.edges]
    gv = list(g.vertices)

    visited = set()

    def components(nodes):
        left, comps = set(nodes), []
        for start in sorted(nodes):
            if start in left:
                left.discard(start)
                comp, stack = {start}, [start]
                while stack:
                    for w in adj[stack.pop()]:
                        if w in left:
                            left.discard(w)
                            comp.add(w)
                            stack.append(w)
                comps.append(comp)
        return comps

    def reachable_through(passable, seeds):
        """Vertices reachable from seeds along paths whose interior is passable."""
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    if w in passable:
                        stack.append(w)
        return seen

    def solve(assign):
        key = frozenset(assign.items())
        if key in visited:
            return False
        visited.add(key)

        classes = [set() for _ in hs]
        for v, i in assign.items():
            classes[i].add(v)
        unassigned = {v for v in gv if v not in assign}

        if sum(1 for c in classes if not c) > len(unassigned):
            return False

        # Broken connectivity first: grow the smallest component.
        for i, cls in enumerate(classes):
            if not cls:
                continue
            comps = components(cls)
            if len(comps) == 1:
                continue
            # feasibility: every component reachable from the first through
            # vertices the final class may still contain
            whole = reachable_through(unassigned | cls, comps[0])
            if any(c.isdisjoint(whole) for c in comps[1:]):
                return False
            comp = min(comps, key=lambda c: (len(c), min(c)))
            for u in sorted({w for x in comp for w in adj[x] if w in unassigned}):
                if solve({**assign, u: i}):
                    return True
            return False

        # Unrealized pattern edges next.
        for a, b in hedges:
            ca, cb = classes[a], classes[b]
            if not ca and not cb:
                continue
            if ca and cb:
                if any(w in cb for x in ca for w in adj[x]):
                    continue
                # feasibility: some path from ca to cb through unassigned
                if cb.isdisjoint(reachable_through(unassigned, ca)):
                    return False
            side, other = (a, b) if ca else (b, a)
            if classes[other] and len(classes[other]) < len(classes[side]):
                side, other = other, side
            cands = sorted({w for x in classes[side] for w in adj[x] if w in unassigned})
            if not cands:
                return False
            for u in cands:
                for target in (other, side):
                    if solve({**assign, u: target}):
                        return True
            return False

        # Finally seed any pattern vertex not yet placed.
        for i, cls in enumerate(classes):
            if cls:
                continue
            for u in sorted(unassigned):
                if solve({**assign, u: i}):
                    return True
            return False

        return True

    return solve({})


# ---------------------------------------------------------- graph builders

def path_data(n, prefix="p"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return vs, [(vs[i], vs[i + 1]) for i in range(n - 1)]


def cycle_data(n, prefix="c"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)]


def clique_data(n, prefix="k"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]


def star_data(leaves):
    vs = ["s"] + [f"l{i}" for i in range(leaves)]
    return vs, [("s", f"l{i}") for i in range(leaves)]


def spider_graph(t, leg_lengths):
    """The spider gen_spider(t, leg_lengths) names: centre "c", and on leg l the
    vertices "l.1", "l.2", ... counting from the centre, ending at the tip "l"."""
    assert len(leg_lengths) == t
    edges = []
    for leg, n in enumerate(leg_lengths, start=1):
        seq = ["c"] + [f"{leg}.{m}" for m in range(1, n)] + [str(leg)]
        edges += zip(seq, seq[1:])
    return Graph({v for e in edges for v in e}, edges)


def grid_data(rows, cols):
    vs = [f"g{i}.{j}" for i in range(rows) for j in range(cols)]
    es = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                es.append((f"g{i}.{j}", f"g{i + 1}.{j}"))
            if j + 1 < cols:
                es.append((f"g{i}.{j}", f"g{i}.{j + 1}"))
    return vs, es


def random_graph_data(rng, prefix):
    """1 to 9 vertices with edges at a random density, often disconnected."""
    vs = [f"{prefix}{i}" for i in range(rng.randint(1, 9))]
    p = rng.choice((0.2, 0.4, 0.7))
    return vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < p]


def random_groups(rng, vertices):
    """A random partition of vertices into at most half as many groups, keyed 0, 1, ..."""
    k = rng.randint(1, max(1, len(vertices) // 2))
    groups = {}
    for v in vertices:
        groups.setdefault(rng.randrange(k), set()).add(v)
    return groups


# ------------------------------------------------------------------ parsing

_NAIVE_BLANK_LINES_RE = re.compile(r"(?:[^\S\n]*\n)*")
_NAIVE_HEADER_RE = re.compile(r"\s*cw\s+k\s*=\s*([0-9]+)\s*$")
_NAIVE_TOKEN_RE = re.compile(r"\s*([()]|[A-Za-z0-9_.-]+)")  # blanks, then the token as group 1
_NAIVE_STRAY_RE = re.compile(r"[^\s()A-Za-z0-9_.-]")

# operator -> (which of its arguments are atoms, the error when they are not)
_NAIVE_SHAPES = {
    "v": ((True, True), "leaf takes a vertex id and a colour"),
    "union": ((False, False), "union takes exactly two subexpressions"),
    "recolor": ((True, True, False), "recolor takes two colours and one subexpression"),
    "join": ((True, True, False), "join takes two colours and one subexpression"),
}


def _naive_error(message, text, at):
    """A ParseError at offset at of text; only "\\n" starts a line."""
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _naive_read_int(digits):
    """int(digits), or infinity past int()'s digit limit; leading zeros do not count."""
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        return math.inf


def _naive_node(op, args, k, text):
    """The node an operator token and its arguments (atom tokens or nodes) make."""
    kind = op[1]
    shape, message = _NAIVE_SHAPES[kind]
    if tuple(isinstance(a, re.Match) for a in args) != shape:
        raise _naive_error(message, text, op.start(1))
    if kind == "union":
        return Union(*args)
    what = "leaf" if kind == "v" else kind
    colors = []
    for atom in (args[1:] if kind == "v" else args[:2]):
        value, at = atom[1], atom.start(1)
        if not value.isdigit():
            raise _naive_error(f"{what} colour must be an integer, got {value!r}", text, at)
        colors.append(_naive_read_int(value))
        if not 1 <= colors[-1] <= k:  # one too long to read is above every readable k
            raise _naive_error(f"{what} colour {value.lstrip('0') or 0} out of range 1..{k}",
                               text, at)
    if kind == "v":
        return Leaf(args[0][1], colors[0])
    if colors[0] == colors[1]:
        raise _naive_error(f"{kind} colours must differ, both are {colors[0]}", text,
                           args[1].start(1))
    return (Recolor if kind == "recolor" else Join)(*colors, args[2])


def naive_parse(text):
    """A .cwx document read one token at a time: the reference for parse's results and errors."""
    start = _NAIVE_BLANK_LINES_RE.match(text).end()  # the header's line is the first nonblank
    end = text.find("\n", start)
    end = len(text) if end < 0 else end
    if not text[start:end].strip():
        raise ParseError("empty input, expected a 'cw k=<int>' header", 1, 1)
    m = _NAIVE_HEADER_RE.match(text, start, end)
    if not m:
        raise _naive_error("expected header 'cw k=<int>'", text, start)
    k = _naive_read_int(m.group(1))
    if k == math.inf:
        raise _naive_error("palette size k has too many digits", text, m.start(1))
    if k < 1:
        raise _naive_error("palette size k must be >= 1", text, start)
    stray = _NAIVE_STRAY_RE.search(text, end)
    if stray:
        raise _naive_error(f"unexpected character {stray.group()!r}", text, stray.start())

    frames = []  # (operator token, its arguments so far)
    root = tok = None
    tokens = _NAIVE_TOKEN_RE.finditer(text, end, len(text.rstrip()))
    for tok in tokens:
        if root is not None:
            raise _naive_error("unexpected trailing input after expression", text, tok.start(1))
        if tok[1] == "(":
            paren, tok = tok, next(tokens, None)
            if tok is None or tok[1] in "()":
                raise _naive_error("expected an operator after '('", text, paren.start(1))
            if tok[1] not in _NAIVE_SHAPES:
                raise _naive_error(f"unknown operator {tok[1]!r}", text, tok.start(1))
            frames.append((tok, []))
        elif tok[1] == ")":
            if not frames:
                raise _naive_error("unmatched ')'", text, tok.start(1))
            node = _naive_node(*frames.pop(), k, text)
            if frames:
                frames[-1][1].append(node)
            else:
                root = node
        elif not frames:
            raise _naive_error(f"unexpected atom {tok[1]!r} outside an expression", text,
                               tok.start(1))
        else:
            frames[-1][1].append(tok)
    if tok is None:
        raise _naive_error("missing expression after header", text, start)
    if root is None:
        raise _naive_error("unexpected end of input, unclosed '('", text, tok.start(1))
    return CwExpr(k, root)


def one_line_text(e):
    """The .cwx text of e with its whole expression on one line, written without recursion."""
    out, todo = [f"cw k={e.k}\n"], [e.root]
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
        else:
            out.append(f"(join {node.color_a} {node.color_b} ")
            todo += [")", node.child]
    return "".join(out) + "\n"


def legacy_layout(text):
    """Canonical text re-indented by each line's full depth, as format_expr once wrote it.

    A line's depth is the count of '(' still open before it; vertex ids hold no
    parentheses, so the count is exact.
    """
    head, *body = text.splitlines()
    out, depth = [head], 0
    for line in body:
        line = line.lstrip(" ")
        out.append("  " * depth + line)
        depth += line.count("(") - line.count(")")
    return "\n".join(out) + "\n"
