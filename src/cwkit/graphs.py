"""Immutable graphs, colourings, partitions, and metric helpers.

Vertex ids are opaque sortable values (strings in practice, small ints for
tree nodes).  Every iteration order below derives from their total order, so
identical inputs give byte-identical outputs everywhere in the library.
Graph(...) checks every edge and sorts; Graph._built takes a graph a fold has
already built, its vertices sorted and each neighbour tuple sorted, as built.
The evaluated graph and the quotient tree are built so; whatever a verifier
does not trust, the quotient included, goes through Graph(...).

Every metric search is one BFS, _walk.  A set search walks the vertex-keyed
adjacency with dict labels, so it costs O(explored); only the pair scan's
rows (_distance_row) walk the integer adjacency into a list.  The metric
checks take a bounded number of searches: weak_diameter stops by iFUB's rule
or by eccentricity bounds (its docstring has the argument), and set_distance
and a family of sets that must lie apart take one labelled multi-source BFS
(_closest_sets), which both decides and names the least distance between
two of the sets.  _diameter_bound bounds a set's width by one BFS.
Every component search is one DFS, _components_within: connected_components,
is_connected and the validators' subtree and branch-set checks all use it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .errors import InputError

#: Distance value for vertex pairs with no connecting path.  Kept as a
#: distinguished float so finite distances stay plain ints.
INFINITE: float = math.inf


class Graph:
    """A finite simple undirected graph with sorted adjacency."""

    __slots__ = ("_vertices", "_adj", "_edges", "_int_adj")

    def __init__(self, vertices: Iterable, edges: Iterable = ()):
        vs = sorted(set(vertices))
        vset = set(vs)
        adj = {v: set() for v in vs}
        for e in edges:
            u, v = e
            if u == v:
                raise InputError(f"loop at vertex {u!r}")
            if u not in vset or v not in vset:
                raise InputError(f"edge ({u!r}, {v!r}) has an endpoint outside the vertex set")
            adj[u].add(v)
            adj[v].add(u)
        self._fill(tuple(vs), {v: tuple(sorted(adj[v])) for v in vs})

    @classmethod
    def _built(cls, vertices: tuple, adj: dict) -> Graph:
        """The graph on vertices, sorted and distinct, whose adj maps each vertex, in
        that order, to its sorted neighbour tuple: taken as built, with no check or sort."""
        return cls.__new__(cls)._fill(vertices, adj)

    def _fill(self, vertices: tuple, adj: dict) -> Graph:
        self._vertices, self._adj = vertices, adj
        self._edges = tuple((u, w) for u in vertices for w in adj[u] if u < w)
        self._int_adj = None
        return self

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        """Edges as (u, v) pairs with u < v, sorted."""
        return self._edges

    def neighbors(self, v) -> tuple:
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def _int_adjacency(self) -> tuple:
        """The adjacency over indices into vertices, as sorted tuples; built once."""
        if self._int_adj is None:
            pos = _positions(self)
            self._int_adj = tuple(tuple(map(pos.__getitem__, ns)) for ns in self._adj.values())
        return self._int_adj

    def closed_neighborhood(self, v) -> frozenset:
        return frozenset(self.neighbors(v)) | {v}

    def has_vertex(self, v) -> bool:
        return v in self._adj

    def has_edge(self, u, v) -> bool:
        return v in set(self.neighbors(u))

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self)} vertices, {len(self._edges)} edges)"


def bfs_distances(g: Graph, sources: Iterable) -> dict:
    """Multi-source BFS; returns distances for reached vertices only."""
    dist = {}
    for _ in _walk(g._adj, _known(g, dict.fromkeys(sources)), dist):
        pass
    return dist


def _positions(g: Graph) -> dict:
    """vertex -> its index in g.vertices."""
    return dict(zip(g.vertices, range(len(g))))


def _known(g: Graph, vertices) -> list:
    """vertices as a list; InputError names the first that is not a vertex of g."""
    vertices = list(vertices)
    for v in vertices:
        if not g.has_vertex(v):
            raise InputError(f"unknown vertex {v!r}")
    return vertices


def _walk(adj, layer: list, dist):
    """BFS from the vertices in layer: yields (d, the vertices at distance d),
    labelling dist, a dict or (with adj over indices) a list of None as long as adj."""
    full = isinstance(dist, list)
    for v in layer:
        dist[v] = 0
    d = 0
    while layer:
        yield d, layer
        d += 1
        nxt = []
        for u in layer:
            for w in adj[u]:
                if (dist[w] is None) if full else (w not in dist):
                    dist[w] = d
                    nxt.append(w)
        layer = nxt


def _distance_row(g: Graph, sources) -> list:
    """Distances from the vertex indices in sources, in g.vertices order, INFINITE if unreached."""
    row = [None] * len(g)
    for _ in _walk(g._int_adjacency(), list(sources), row):
        pass
    return row if None not in row else [INFINITE if d is None else d for d in row]


def set_distance(g: Graph, s: Iterable, t: Iterable):
    """min over a in s, b in t of distance(a, b), 0 when the sets meet: _closest_sets of the two."""
    s, t = set(s), set(t)
    if not s or not t:
        raise InputError("set_distance needs two nonempty sets")
    return _closest_sets(g, [s, t], INFINITE)


def _eccentricity_in(adj, a, s: set) -> tuple:
    """(labels, max distance from a to s or INFINITE), by a BFS from a stopped once s is."""
    left, dist = len(s), {}
    for d, layer in _walk(adj, [a], dist):
        left -= len(s.intersection(layer))
        if not left:
            return dist, d
    return dist, INFINITE


def weak_diameter(g: Graph, s: Iterable):
    """max over pairs in s of their distance measured in the whole graph.

    Exact.  A one-member set is 0 with no search.  Each BFS stops once s is
    labelled, so a dominated part costs local work.  Below, ecc(w) is max
    over x in s of dist(w, x).

    The search starts as iFUB (Crescenzi et al., TCS 514, 2013): a double
    sweep gives a lower bound best, and its middle is a centre u with
    e_u = ecc(u).  Members within i of u are within 2i of each other, so
    best >= 2*e_u ends it after three BFS runs, the common case on parts.
    Otherwise each member w gets Takes-Kosters bounds lo[w] <= ecc(w) <= hi[w]
    (CIKM 2011): a BFS from a member v with ecc(v) = e and d = dist(v, w)
    gives max(e - d, d) <= ecc(w) <= e + d, and u's gives
    e_u - du[w] <= ecc(w) <= e_u + du[w].  A member w is dropped once
    hi[w] <= best or 2*du[w] <= best, and the search ends when none is left.
    That is exact: take a farthest pair w, x.  If either was a source, best
    >= its ecc >= dist(w, x).  If either left by hi, dist(w, x) <= ecc(w) <=
    hi[w] <= best.  Else both left by du, and dist(w, x) <= du[w] + du[x] <=
    best.  Sources alternate between the largest hi, a likely end of a far
    pair, and the smallest lo, a central member whose BFS tightens every hi.
    """
    s = set(s)
    if not s:
        raise InputError("weak_diameter of an empty set")
    members = _known(g, sorted(s))
    return 0 if len(s) == 1 else _weak_diameter(g._adj, members, s)


def _diameter_bound(g: Graph, s):
    """weak_diameter(g, s) or more, s a nonempty set of vertices of g, by one search: 2e,
    with e the eccentricity in s of its least member, as any two members lie within e of
    it.  So it is at most twice the weak diameter."""
    return 2 * _eccentricity_in(g._adj, min(s), s)[1]


def _weak_diameter(adj, members, s: set):
    """weak_diameter of the set s of 2 or more members, sorted in members, over adj."""
    da, ea = _eccentricity_in(adj, members[0], s)
    if ea == INFINITE or len(s) <= 2:
        return ea
    # b, the member farthest from the first, has eccentricity at least ea
    db, best = _eccentricity_in(adj, max(members, key=da.__getitem__), s)
    eb, u = best, max(members, key=db.__getitem__)
    for _ in range(best - best // 2):  # walk back from the far end to the middle
        u = next(w for w in adj[u] if db.get(w) == db[u] - 1)
    du, eu = _eccentricity_in(adj, u, s)
    if best >= 2 * eu:
        return best
    lo, hi = {}, {}
    for w in members:
        lo[w] = max(da[w], ea - da[w], db[w], eb - db[w], eu - du[w])
        hi[w] = min(ea + da[w], eb + db[w], eu + du[w])
    left, by_hi = [w for w in members if hi[w] > best and 2 * du[w] > best], True
    while left:  # ties by du: 41 BFS runs in all on subdivide(K_12, 48), 102 without
        v = (max(left, key=lambda w: (hi[w], du[w])) if by_hi
             else min(left, key=lambda w: (lo[w], du[w])))
        dv, e = _eccentricity_in(adj, v, s)
        best, by_hi = max(best, e), not by_hi
        for w in left:
            lo[w], hi[w] = max(lo[w], e - dv[w], dv[w]), min(hi[w], e + dv[w])
        left = [w for w in left if hi[w] > best and 2 * du[w] > best]
    return best


def _closest_sets(g: Graph, sets, reach):
    """The least distance between two of sets if it is at most reach, else INFINITE.

    One multi-source BFS from every set at once labels each vertex with the
    set it was reached from, a nearest one (a graph Voronoi partition;
    Erwig, Networks 36(3), 2000).  Two sets that share a vertex give 0 at
    once.  An edge x, y with different labels closes a walk of length
    d(x) + 1 + d(y) between two sets, and on a shortest path between the two
    closest sets the labels change along some edge whose two ends are
    within half its length of the sets, where that sum is at most the
    length.  So the least sum is the answer.  The edges seen at layer d, the
    ones back to layers d - 1 and d, have sums 2d or 2d + 1, and later ones
    at least 2d + 2: the search stops at the first layer that sees one, or
    once 2d + 2 passes reach.
    """
    owner = {v: i for i, s in enumerate(sets) for v in s}
    layer = _known(g, owner)
    if len(owner) < sum(map(len, sets)):  # two sets share a vertex
        return 0
    adj, dist, best = g._adj, {}, INFINITE
    for d, layer in _walk(adj, layer, dist):
        for w in layer:
            if d:  # a nearest set of w is one of a neighbour one layer in
                owner[w] = owner[next(x for x in adj[w] if dist.get(x) == d - 1)]
            for x in adj[w]:
                if x in owner and owner[x] != owner[w]:
                    best = min(best, d + 1 + dist[x])
        if best < INFINITE or 2 * d + 2 > reach:
            break
    return best if best <= reach else INFINITE


def _owners(sets) -> dict:
    """Each vertex in one of sets -> the indices of the sets holding it, ascending."""
    owners = {}
    for i, s in enumerate(sets):
        for x in s:
            owners.setdefault(x, []).append(i)
    return owners


def closed_r_neighborhood(g: Graph, s: Iterable, r) -> frozenset:
    """All vertices at distance <= r from the set s (closed ball); the search stops at r."""
    if r < 0:
        raise InputError("neighborhood radius must be nonnegative")
    dist = {}
    for d, _ in _walk(g._adj, _known(g, dict.fromkeys(s)), dist):
        if d + 1 > r:  # stop before labelling the layer past r
            break
    return frozenset(v for v, d in dist.items() if d <= r)


def connected_components(g: Graph) -> tuple:
    """Vertex sets of the components, sorted by their smallest vertex."""
    return tuple(map(frozenset, _components_within(g, g.vertices)))


def is_connected(g: Graph) -> bool:
    return len(_components_within(g, g.vertices)) <= 1


def _components_within(g: Graph, nodes) -> list:
    """The vertex sets of the components of the subgraph of g induced by nodes (a
    collection of vertices of g), in the order of their first member in nodes."""
    adj, left, comps = g._adj, set(nodes), []
    for start in nodes:
        if start in left:
            left.discard(start)
            comps.append(comp := {start})
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w in left:
                        left.discard(w)
                        comp.add(w)
                        stack.append(w)
    return comps


def _connected_within(g: Graph, nodes) -> bool:
    """Whether nodes is nonempty and induces a connected subgraph of g."""
    return len(_components_within(g, nodes)) == 1


def is_dominated(g: Graph, s: Iterable) -> tuple:
    """Whether some vertex w has s inside its closed neighborhood.

    Returns (True, w) with the smallest such witness, or (False, None).
    Every witness lies in the closed neighborhood of each member, so the
    witnesses are the intersection of those neighborhoods, started from the
    member of smallest degree: O(sum of the members' degrees).
    """
    s = frozenset(s)
    if not s:
        raise InputError("is_dominated of an empty set")
    v0 = min(s, key=g.degree)
    common = set(g.closed_neighborhood(v0))
    for v in s:
        if not common:
            break
        common &= g.closed_neighborhood(v)
    return (True, min(common)) if common else (False, None)


class ColoredGraph:
    """A graph together with a total colouring into 1..k."""

    __slots__ = ("graph", "k", "_colors")

    def __init__(self, graph: Graph, k: int, colors: Mapping):
        if k < 1:
            raise InputError("palette size k must be >= 1")
        colors = dict(colors)
        if set(colors) != set(graph.vertices):
            raise InputError("colouring must assign every vertex exactly once")
        for v, c in colors.items():
            if not isinstance(c, int) or not 1 <= c <= k:
                raise InputError(f"vertex {v!r} has colour {c!r}, outside 1..{k}")
        self.graph = graph
        self.k = k
        self._colors = colors

    @property
    def colors(self) -> dict:
        return self._colors

    def color_of(self, v) -> int:
        try:
            return self._colors[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def used_colors(self) -> frozenset:
        return frozenset(self._colors.values())

    def color_class(self, color: int) -> tuple:
        return tuple(v for v in self.graph.vertices if self._colors[v] == color)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return (self.graph == other.graph and self.k == other.k
                and self._colors == other._colors)

    def __hash__(self) -> int:
        return hash((self.graph, self.k, tuple(sorted(self._colors.items()))))

    def __repr__(self) -> str:
        return f"ColoredGraph(k={self.k}, {self.graph!r})"


class Partition:
    """A named partition, from a mapping of part ids to disjoint nonempty vertex sets."""

    __slots__ = ("_parts", "_vertex_to_part")

    def __init__(self, parts: Mapping):
        if not isinstance(parts, Mapping):
            raise InputError(f"a partition maps part ids to members, not a {type(parts).__name__}")
        store = {}
        v2p = {}
        for pid, members in parts.items():
            members = frozenset(members)
            if not members:
                raise InputError(f"part {pid!r} is empty")
            for v in members:
                if v in v2p:
                    raise InputError(f"vertex {v!r} appears in parts {v2p[v]!r} and {pid!r}")
                v2p[v] = pid
            store[pid] = members
        if not store:
            raise InputError("partition must have at least one part")
        self._parts = {pid: store[pid] for pid in sorted(store)}
        self._vertex_to_part = v2p

    @property
    def ids(self) -> tuple:
        return tuple(self._parts)

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._vertex_to_part)

    def part(self, pid) -> frozenset:
        try:
            return self._parts[pid]
        except KeyError:
            raise InputError(f"unknown part id {pid!r}") from None

    def part_of(self, v):
        try:
            return self._vertex_to_part[v]
        except KeyError:
            raise InputError(f"vertex {v!r} is in no part") from None

    def items(self) -> tuple:
        return tuple(self._parts.items())

    def as_dict(self) -> dict:
        return dict(self._parts)

    def __iter__(self):
        return iter(self._parts.items())

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(tuple(self._parts.items()))

    def __repr__(self) -> str:
        return f"Partition({len(self._parts)} parts over {len(self._vertex_to_part)} vertices)"


def quotient(g: Graph, p: Partition) -> tuple:
    """Contract each part to one vertex; returns (graph, vertex -> part id map).

    Quotient vertices are the part ids; two parts are adjacent when any edge
    of g runs between them.  No loops, no multiplicities.
    """
    if p.vertices != set(g.vertices):
        raise InputError("partition does not cover exactly the graph's vertices")
    proj = {v: p.part_of(v) for v in g.vertices}
    qedges = set()
    for u, v in g.edges:
        pu, pv = proj[u], proj[v]
        if pu != pv:
            qedges.add((pu, pv) if pu < pv else (pv, pu))
    return Graph(p.ids, qedges), proj


def graph_to_json_dict(g: Graph, colors: Mapping | None = None) -> dict:
    """Canonical interchange form: sorted vertices, sorted (min,max) edges."""
    obj = {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.edges],
    }
    if colors is not None:
        obj["colors"] = {str(v): colors[v] for v in g.vertices}
    return obj


def _is_vertex_id(x) -> bool:
    """Whether a JSON value may be a vertex id: true and 1.0 equal 1, lists do not hash,
    and null is no name."""
    return not isinstance(x, (bool, float, list, dict, type(None)))


def graph_from_json_dict(obj: Mapping) -> tuple:
    """Inverse of graph_to_json_dict; returns (graph, colors or None).

    Every way a graph object can be malformed raises InputError.  Colour
    keys are strings in JSON, so they name vertices through str(vertex).
    """
    try:
        vertices, edges, colors = obj["vertices"], obj["edges"], obj.get("colors")
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed graph object: {exc}") from None
    for key, value in (("vertices", vertices), ("edges", edges)):
        if not isinstance(value, list):  # a string or an object reads as its characters or keys
            raise InputError(f"malformed graph object: {key} must be a list, not a "
                             f"{type(value).__name__}")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise InputError(f"malformed graph object: edge {e!r} is not a pair")
    try:
        g = Graph(vertices, edges)
    except TypeError as exc:  # unhashable ids, or ids of kinds that do not sort together
        raise InputError(f"malformed graph object: vertex ids must be hashable "
                         f"and mutually ordered: {exc}") from None
    for v in (*vertices, *(x for e in edges for x in e)):
        if not _is_vertex_id(v):
            raise InputError(f"malformed graph object: vertex id {v!r} is a {type(v).__name__}")
    if colors is None:
        return g, None
    if not isinstance(colors, Mapping):
        raise InputError("malformed graph object: colors must be an object")
    by_str = {str(v): v for v in g.vertices}
    out = {}
    for key, c in colors.items():
        if key not in by_str:
            raise InputError(f"malformed graph object: colour key {key!r} names no vertex")
        try:
            if isinstance(c, bool) or isinstance(c, float) and not c.is_integer():
                raise TypeError  # int() would truncate 2.7 to 2 and read true as 1
            out[by_str[key]] = int(c)
        except (TypeError, ValueError):
            raise InputError(f"malformed graph object: colour {c!r} of vertex {key!r} "
                             f"is not an integer") from None
    if len(out) != len(g):
        missing = next(v for v in g.vertices if v not in out)
        raise InputError(f"malformed graph object: vertex {missing!r} has no colour")
    return g, out


def _dot_quote(x) -> str:
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(g: Graph, name: str, label) -> str:
    """GraphViz text for g with label(v) shown on each vertex v."""
    lines = [f"graph {name} {{"]
    lines += [f"  {_dot_quote(v)} [label={_dot_quote(label(v))}];" for v in g.vertices]
    lines += [f"  {_dot_quote(u)} -- {_dot_quote(v)};" for u, v in g.edges]
    return "\n".join(lines + ["}"]) + "\n"


def graph_to_dot(g: Graph, colors: Mapping | None = None) -> str:
    """GraphViz text for the graph; colour shown in the vertex label."""
    return _dot(g, "G", str if colors is None else lambda v: f"{v}:{colors[v]}")
