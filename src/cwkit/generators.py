"""Constructive witnesses: low-palette expressions for paths, spiders, and
subdivided cliques, plus minor models pulled through a quasi-isometric
embedding.

The expression builders follow one inductive scheme: grow a path from its
far end with a temporary colour, join, then retire the temporary colour
into the interior colour.  They are strict by construction: a colour is
recoloured or joined only while it is in use, and a recolor targets a
colour already in use, so no repair pass follows.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ContractError, InputError
from .expressions import CwExpr, Join, Leaf, Recolor, Union
from .graphs import INFINITE, Graph, _connected_within, _owners, closed_r_neighborhood
from .quasiiso import QiMap, _bounds_witness
from .records import Record, _set
from .treedecomp import VerificationReport, _verdict


# ------------------------------------------------------------ subdivisions

def subdivision_path(a, b, count: int) -> list:
    """Vertex sequence from a to b once the edge is subdivided count times.

    Fresh vertices are named "<u>-<v>.<m>" with u the smaller endpoint and
    m counting from u's side, so both directions name the same vertices.
    """
    u, v = (a, b) if a < b else (b, a)
    names = [f"{u}-{v}.{m}" for m in range(1, count + 1)]
    return [a] + (names if a == u else names[::-1]) + [b]


def subdivide(base: Graph, count: int) -> Graph:
    """Replace every edge of base by a path through count fresh vertices."""
    if not isinstance(count, int) or count < 0:
        raise InputError(f"subdivision count must be an int >= 0, got {count!r}")
    vertices = list(base.vertices)
    edges = []
    for u, v in base.edges:
        seq = subdivision_path(u, v, count)
        for w in seq[1:-1]:
            if base.has_vertex(w):
                raise InputError(f"subdivision vertex name {w!r} collides with the base")
        vertices.extend(seq[1:-1])
        edges.extend(zip(seq, seq[1:]))
    return Graph(vertices, edges)


def complete_graph(n: int) -> Graph:
    """K_n on vertices named "1".."n"."""
    if n < 0:
        raise InputError(f"K_n needs n >= 0, got {n}")
    names = [str(i) for i in range(1, n + 1)]
    return Graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])


# ------------------------------------------------------------------ paths

def _path_node(seq, x_color: int, y_color: int, inner_color: int):
    """Strict expression for the path along seq.

    seq[0] ends with x_color, seq[-1] with y_color, everything between with
    inner_color.  Temporary far-end colours alternate between two spares,
    each the least colour outside x_color, inner_color and the one after it:
    at most len({x_color, y_color, inner_color}) + 1, inside every caller's
    palette.  seq[1] takes inner_color at once unless x_color is inner_color,
    so every recolor targets a colour already in use.
    """
    length = len(seq) - 1
    temp = [None] * (length + 1)
    temp[length] = y_color
    for m in range(length - 1, 0, -1):
        temp[m] = min({1, 2, 3, 4} - {x_color, temp[m + 1], inner_color})
    if length > 1 and x_color != inner_color:
        temp[1] = inner_color
    node = Join(x_color, temp[1], Union(Leaf(seq[0], x_color), Leaf(seq[1], temp[1])))
    for m in range(2, length + 1):
        node = Join(temp[m], temp[m - 1], Union(node, Leaf(seq[m], temp[m])))
        if temp[m - 1] != inner_color:
            node = Recolor(temp[m - 1], inner_color, node)
    return node


def gen_path(x, y, length: int, palette: int, x_color: int, y_color: int,
             inner_color: int) -> CwExpr:
    """Express the path of the given length from x to y on a small palette.

    Needs palette >= 3, y's colour distinct from both others, and a fourth
    colour left over; x's colour may equal the interior colour.  Interior
    vertices get the subdivision naming of the edge xy.
    """
    if length < 1:
        raise InputError("path length must be >= 1")
    if palette < 3:
        raise InputError("palette must have at least 3 colours")
    for c in (x_color, y_color, inner_color):
        if not 1 <= c <= palette:
            raise InputError(f"colour {c} out of range 1..{palette}")
    if y_color in (x_color, inner_color):
        raise InputError("the far endpoint colour must differ from the near and interior colours")
    if palette <= len({x_color, y_color, inner_color}):
        raise InputError("no spare colour: the palette must keep one colour unused by the endpoints "
                         "and interior")
    if x == y:
        raise InputError("path endpoints must differ")
    for end in (x, y):  # a bad id is named as given, not inside an interior name made from it
        Leaf(end, 1)
    seq = subdivision_path(x, y, length - 1)
    return CwExpr(palette, _path_node(seq, x_color, y_color, inner_color))


# ----------------------------------------------------------------- spiders

def _spider_root(center, legs, t: int):
    """Strict spider expression.

    legs[i] is the vertex list of leg i+1 from the centre outward, ending
    at the leaf.  Leaf of leg i gets colour i, every other vertex ends with
    colour t+1; colours t+2 and t+3 are temporary.  The centre waits under
    t+3 only while some leg of three or more edges already holds colour
    t+1, which its joins must not reach; otherwise it starts with t+1.
    Colour t+2 marks the centre's neighbours on legs of two or more edges,
    so it is joined and retired only when such a leg exists.
    """
    hub = t + 3 if any(len(leg) > 2 for leg in legs) else t + 1
    inner_neighbours = any(len(leg) > 1 for leg in legs)
    parts = [Leaf(center, hub)]
    for ell, leg in enumerate(legs, start=1):
        leaf = leg[-1]
        if len(leg) == 1:
            parts.append(Leaf(leaf, ell))
        else:
            toward_center = list(reversed(leg))  # leaf first, centre neighbor last
            parts.append(_path_node(toward_center, ell, t + 2, t + 1))
    node = parts[0]
    for p in parts[1:]:
        node = Union(node, p)
    if inner_neighbours:
        node = Join(hub, t + 2, node)
    for ell, leg in enumerate(legs, start=1):
        if len(leg) == 1:
            node = Join(hub, ell, node)
    if hub != t + 1:
        node = Recolor(hub, t + 1, node)
    if inner_neighbours:
        node = Recolor(t + 2, t + 1, node)
    return node


def gen_spider(t: int, leg_lengths) -> CwExpr:
    """A spider with t legs of the given lengths on palette t+3.

    The centre is named "c", the leaf of leg i is named "<i>" and carries
    colour i, interior vertices of leg i are named "<i>.<m>" counting from
    the centre and end up coloured t+1.
    """
    if t < 3:
        raise InputError("a spider needs at least 3 legs")
    leg_lengths = list(leg_lengths)
    if len(leg_lengths) != t:
        raise InputError(f"expected {t} leg lengths, got {len(leg_lengths)}")
    if any(not isinstance(n, int) or n < 1 for n in leg_lengths):
        raise InputError("leg lengths must be ints >= 1")
    legs = []
    for ell, n in enumerate(leg_lengths, start=1):
        legs.append([f"{ell}.{m}" for m in range(1, n)] + [str(ell)])
    return CwExpr(t + 3, _spider_root("c", legs, t))


# ------------------------------------------------------- subdivided cliques

def gen_subdivided_clique(n: int, times: int) -> CwExpr:
    """An expression for K_n with every edge subdivided times times, on palette n+2.

    Branch vertex i is named "<i>" and coloured i;
    subdivision vertices use the "<u>-<v>.<m>" naming and end coloured n.

    Builds the star at vertex n first (a spider with n-1 legs), then adds
    the remaining subdivided edges one at a time with two scratch colours.
    """
    if n < 4:
        raise InputError("need n >= 4 branch vertices")
    if not isinstance(times, int) or times < 0:
        raise InputError("subdivision counts must be ints >= 0")

    t = n - 1  # spider legs; t+1 == n, t+2 == n+1, t+3 == n+2
    center = str(n)
    legs = [subdivision_path(center, str(ell), times)[1:] for ell in range(1, n)]
    node = _spider_root(center, legs, t)

    for j in range(2, n):
        for i in range(1, j):
            interiors = subdivision_path(str(i), str(j), times)[1:-1]
            if times == 0:
                node = Join(i, j, node)
            elif times == 1:
                node = Union(node, Leaf(interiors[0], n + 1))
                node = Join(i, n + 1, node)
                node = Join(j, n + 1, node)
                node = Recolor(n + 1, n, node)
            else:
                path = _path_node(interiors, n + 1, n + 2, n)
                node = Union(node, path)
                node = Join(i, n + 1, node)
                node = Join(j, n + 2, node)
                node = Recolor(n + 1, n, node)
                node = Recolor(n + 2, n, node)
    return CwExpr(n + 2, node)


# ------------------------------------------------------------ minor models

class MinorModel(Record):
    """Disjoint connected branch sets plus one connecting set per edge."""

    __slots__ = ("branch_sets",  # pattern vertex -> frozenset of host vertices
                 "edge_paths")   # (u, v) with u < v -> frozenset of host vertices

    def __init__(self, branch_sets: Mapping, edge_paths: Mapping):
        _set(self, "branch_sets", {v: frozenset(s) for v, s in dict(branch_sets).items()})
        _set(self, "edge_paths", {tuple(e): frozenset(s) for e, s in dict(edge_paths).items()})


def _subdivision_structure(source: Graph, pattern: Graph) -> dict:
    """Recognize source as a subdivision of pattern; map each edge to its path.

    Branch vertices must exist by name with matching degrees, every other
    vertex must be an interior vertex of degree two, and following the
    paths must realize each pattern edge exactly once.
    """
    branch = set(pattern.vertices)
    for v in branch:
        if not source.has_vertex(v):
            raise InputError(f"branch vertex {v!r} missing from the subdivision")
        if source.degree(v) != pattern.degree(v):
            raise InputError(f"branch vertex {v!r} has degree {source.degree(v)}, "
                             f"pattern needs {pattern.degree(v)}")
    for v in source.vertices:
        if v not in branch and source.degree(v) != 2:
            raise InputError(f"interior vertex {v!r} has degree {source.degree(v)}, expected 2")

    paths = {}
    for u in sorted(branch):
        for first in source.neighbors(u):
            prev, cur = u, first
            seq = [u]
            while cur not in branch:
                seq.append(cur)
                prev, cur = cur, next(w for w in source.neighbors(cur) if w != prev)
            seq.append(cur)
            if cur == u:
                raise InputError(f"subdivided loop at {u!r}")
            key = (u, cur) if u < cur else (cur, u)
            if u < cur:
                if key in paths:
                    raise InputError(f"two parallel paths between {key[0]!r} and {key[1]!r}")
                paths[key] = seq
    pattern_edges = set(pattern.edges)
    if set(paths) != pattern_edges:
        raise InputError("subdivision paths do not realize exactly the pattern's edges")
    interior_total = sum(len(p) - 2 for p in paths.values())
    if len(source) != len(pattern) + interior_total:
        raise InputError("subdivision has vertices belonging to no path")
    return paths


def build_minor_model(h: Graph, f: QiMap) -> MinorModel:
    """Pull a model of h through the embedding f of a deep subdivision of h.

    f must run from a (4c(c+1)-1)-or-deeper subdivision of h into the host
    g = f.target and satisfy the distance bounds at its parameter c = f.c,
    which must be >= 1.  Around every branch vertex a ball of radius c(c+1)
    is taken; the middle stretch of every subdivision path, cut at the floor
    of c(c+1) from each end, connects two balls.  Images of those sets,
    fattened by radius c in g, form the model.  The inputs are checked here;
    the model is checked only by validate_minor_model, against the definition
    of a minor in g, and its first failed witness is raised as a ContractError.
    """
    source, g, c = f.source, f.target, f.c
    if c < 1:
        raise InputError("parameter c must be >= 1")
    paths = _subdivision_structure(source, h)
    need = 4 * c * (c + 1)
    need_text = int(need) if need < INFINITE and need == int(need) else need
    for (u, v), seq in sorted(paths.items()):
        if len(seq) - 1 < need:
            raise InputError(f"subdivision too shallow: path {u!r}..{v!r} has length "
                             f"{len(seq) - 1}, need >= {need_text}")
    witness = _bounds_witness(f)
    if witness is not None:
        raise InputError(f"map violates the distance bounds at c={c}: {witness}")

    z = c * (c + 1)
    # floor of z; z is below every path's length, so it overflows only without paths
    cut = int(min(z, len(source)))
    balls = {v: closed_r_neighborhood(source, [v], z) for v in h.vertices}
    stretches = {e: frozenset(seq[cut:len(seq) - cut]) for e, seq in sorted(paths.items())}

    def fatten(s):
        return closed_r_neighborhood(g, {f(v) for v in s}, c)

    model = MinorModel({v: fatten(b) for v, b in balls.items()},
                       {e: fatten(s) for e, s in stretches.items()})
    if failed := validate_minor_model(h, g, model).failed():
        raise ContractError(failed[0].witness)
    return model


def validate_minor_model(h: Graph, g: Graph, model: MinorModel) -> VerificationReport:
    """Check model against the definition of an h minor in g, in O(|V| + |E| + the sets' sizes).

    connected: every set induces a nonempty connected subgraph of g.  disjoint:
    the branch sets are pairwise disjoint, and so are the edge paths.  incident:
    each edge path meets its ends' branch sets and no other.  Witnesses name the
    first failing set or pair in sorted order.  Sets keyed other than by h's
    vertices and edges, or naming a vertex outside g, raise InputError.

    These give an h minor: the path P of an edge uv holds a shortest path Q from
    B_u to B_v in G[P], whose interior misses every branch set (B_u and B_v as Q
    is shortest, the others as P does) and every other edge's P; adding it to
    B_u joins B_u to B_v and keeps the branch sets disjoint and connected.
    """
    hv, he = sorted(h.vertices), sorted(h.edges)
    if model.branch_sets.keys() != set(hv) or model.edge_paths.keys() != set(he):
        raise InputError("model sets must be keyed by exactly the pattern's vertices and edges")
    branch, paths = [model.branch_sets[v] for v in hv], [model.edge_paths[e] for e in he]
    for s in (*branch, *paths):
        if foreign := [v for v in s if v not in g._adj]:
            raise InputError(f"model mentions unknown vertex {min(foreign, key=repr)!r}")
    owners, index = _owners(branch), {v: i for i, v in enumerate(hv)}

    def first_pair(keys, held):  # the least pair of indices that share a vertex
        shared = [ids[:2] for ids in held.values() if len(ids) > 1]
        return [tuple(keys[i] for i in min(shared))] if shared else []

    def misplaced():
        for e, path in zip(he, paths):
            met = {i for x in path for i in owners.get(x, ())}
            if wrong := met.symmetric_difference(map(index.get, e)):
                v = hv[min(wrong)]
                yield (f"model path of {e!r} misses the set of endpoint {v!r}" if v in e else
                       f"model path of {e!r} touches non-endpoint {v!r}")

    return VerificationReport((
        _verdict("connected", [f"model {kind} of {key!r} is disconnected in the host"
                               for kind, keys, sets in (("set", hv, branch), ("path", he, paths))
                               for key, s in zip(keys, sets) if not _connected_within(g, s)]),
        _verdict("disjoint", [f"model {kind}s of {a!r} and {b!r} intersect"
                              for kind, keys, held in (("set", hv, owners),
                                                       ("path", he, _owners(paths)))
                              for a, b in first_pair(keys, held)]),
        _verdict("incident", misplaced())))


def model_to_json_dict(model: MinorModel) -> dict:
    return {
        "branch_sets": {str(v): sorted(s) for v, s in sorted(model.branch_sets.items())},
        "edge_paths": {f"{u}--{v}": sorted(s)
                       for (u, v), s in sorted(model.edge_paths.items())},
    }
