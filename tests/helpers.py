"""Self-contained oracles for the tests.

Everything here is implemented from scratch against the definitions, on
purpose: expected values come from these, never from the code under test.
"""

import itertools


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


def naive_td_ok(graph_vertices, graph_edges, tree_edges, bags):
    """Both tree decomposition properties, checked directly on raw data."""
    for v in graph_vertices:
        holding = {t for t, b in bags.items() if v in b}
        if not holding:
            return False
        seen = {next(iter(holding))}
        grew = True
        while grew:
            grew = False
            for a, b in tree_edges:
                if a in seen and b in holding and b not in seen:
                    seen.add(b)
                    grew = True
                if b in seen and a in holding and a not in seen:
                    seen.add(a)
                    grew = True
        if seen != holding:
            return False
    for u, w in graph_edges:
        if not any(u in b and w in b for b in bags.values()):
            return False
    return True


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
