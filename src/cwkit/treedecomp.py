"""Tree decompositions, an exact treewidth oracle, and a clique-minor bound.

brute_treewidth, the O*(2^n) subset recurrence of Bodlaender, Fomin, Koster,
Kratsch and Thilikos, is exponential: it refuses graphs above its size cap or ceiling.
_clique_minor_bound gives min(tw, 3) in linear time.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from .errors import InputError, SizeCapError
from .graphs import Graph, _components_within, _dot, is_connected
from .records import Record, _set

DEFAULT_TREEWIDTH_CAP = 12
#: brute_treewidth refuses more vertices whatever its cap: its table of 2^20 entries is 8 MiB.
TREEWIDTH_CEILING = 20


class TreeDecomposition:
    """A tree of nodes plus one bag per node.

    Bag members are opaque ids (graph vertices, or part ids when the
    decomposed graph is a quotient).  The tree field is only required to be
    a tree by the validators, so that broken instances can be represented
    and reported on.
    """

    __slots__ = ("tree", "bags")

    def __init__(self, tree: Graph, bags: Mapping):
        if set(bags) != set(tree.vertices):
            raise InputError("bags must be keyed by exactly the tree nodes")
        self.tree = tree
        self.bags = {t: frozenset(bags[t]) for t in tree.vertices}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return self.tree == other.tree and self.bags == other.bags

    def __hash__(self) -> int:
        return hash((self.tree, tuple(sorted(self.bags.items()))))

    def __repr__(self) -> str:
        return f"TreeDecomposition({len(self.tree)} nodes)"


def is_tree(g: Graph) -> bool:
    return len(g) >= 1 and g.num_edges() == len(g) - 1 and is_connected(g)


def width(td: TreeDecomposition) -> int:
    """max bag size minus one."""
    if not td.tree.vertices:
        raise InputError("width of an empty decomposition")
    return max(len(b) for b in td.bags.values()) - 1


class CheckResult(Record):
    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: str | None = None):
        _set(self, "name", name)
        _set(self, "ok", ok)
        _set(self, "witness", witness)


class VerificationReport(Record):
    """Named checks, each with its first witness; validate_td, verify_result,
    validate_cover and validate_minor_model all report this way."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        _set(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> tuple:
        return tuple(c for c in self.checks if not c.ok)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise InputError(f"no check named {name!r}")

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                       for c in self.checks],
        }


def _verdict(name: str, witnesses) -> CheckResult:
    """The check called name: failed, with the first witness, if there is one."""
    witness = next(iter(witnesses), None)
    return CheckResult(name, witness is None, witness)


def validate_td(g: Graph, td: TreeDecomposition) -> VerificationReport:
    """Check the two decomposition properties of td against g.

    bag_subtrees: for every vertex, the nodes whose bags contain it induce
    a nonempty subtree.  edges_covered: every edge of g lies inside some
    bag.  Raises InputError when the tree field is not a tree.
    """
    if not is_tree(td.tree):
        raise InputError("decomposition tree is not a tree")
    return VerificationReport(tuple(_td_checks(g, td, _holding(td, g.vertices),
                                               "vertex", "edge")))


def _td_checks(g: Graph, td: TreeDecomposition, holding: dict, vertex_noun: str,
               edge_noun: str) -> list:
    """The bag_subtrees and edges_covered checks of td against g, whose witnesses
    call g's vertices and edges vertex_noun and edge_noun."""
    split, uncovered = _td_witnesses(g, td, holding)
    return [_verdict("bag_subtrees", [] if split is None else [
                f"{vertex_noun} {split!r} appears in no bag" if not holding[split]
                else f"bags holding {vertex_noun} {split!r} are disconnected"]),
            _verdict("edges_covered", [] if uncovered is None else [
                f"{edge_noun} ({uncovered[0]!r}, {uncovered[1]!r}) in no bag"])]


def _td_witnesses(g: Graph, td: TreeDecomposition, holding: dict) -> tuple:
    """(the first vertex of g whose nodes induce no subtree, the first edge of g whose
    ends share no node), each None when there is none; holding maps each vertex of g
    to its nodes of td.tree, a tree.  Nodes of a tree induce a subtree iff there are
    some and they span one tree edge fewer than their number."""
    at = {t: set() for t in td.tree.vertices}  # tree node -> the vertices holding puts there
    for v in g.vertices:
        for t in holding[v]:
            at[t].add(v)
    spanned = Counter(v for s, t in td.tree.edges for v in at[s] & at[t])
    split = next((v for v in g.vertices if spanned[v] != len(holding[v]) - 1), None)
    uncovered = next(((u, v) for u, v in g.edges if holding[u].isdisjoint(holding[v])), None)
    return split, uncovered


def _holding(td: TreeDecomposition, ids) -> dict:
    """Each of ids -> the set of tree nodes whose bags hold it; one pass over the bags."""
    holding = {x: set() for x in ids}
    for t, bag in td.bags.items():
        for x in bag:
            if x in holding:
                holding[x].add(t)
    return holding


# --------------------------------------------------------------- treewidth

def brute_treewidth(g: Graph, cap: int | None = None) -> int:
    """tw(g) = TW(V) by the recurrence of Bodlaender, Fomin, Koster, Kratsch and Thilikos
    ("On exact algorithms for treewidth", ACM TALG 9(1), 2012), in time O*(2^n):

        TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|),  TW({}) = -1,

    where Q(S, v), the vertices outside S + v that v reaches through S, are v's
    neighbours once S is eliminated.  The time is the whole point of the cap, and the
    table of 2^n entries that of the ceiling, TREEWIDTH_CEILING, which no cap lifts.
    """
    n = len(g)
    if n == 0:
        raise InputError("treewidth of the empty graph")
    cap = DEFAULT_TREEWIDTH_CAP if cap is None else cap
    if cap < 0:
        raise InputError(f"treewidth cap must be >= 0, got {cap}")
    limit = min(cap, TREEWIDTH_CEILING)
    if n > limit:
        raise SizeCapError(f"graph has {n} vertices, exact treewidth capped at {limit}")

    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    adj = dict.fromkeys(bit.values(), 0)  # a vertex's bit -> its neighbours' bits
    for u, v in g.edges:
        adj[bit[u]] |= bit[v]
        adj[bit[v]] |= bit[u]

    def around(mask: int) -> int:
        """The union of the neighbourhoods of mask's members."""
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low]
            mask ^= low
        return out

    def q_size(s: int, v: int) -> int:  # |Q(s, v)|, v a bit outside s
        reached = frontier = v
        while frontier:
            frontier = around(frontier) & s & ~reached
            reached |= frontier
        return (around(reached) & ~(s | v)).bit_count()

    tw = [-1] * (1 << n)  # by subset; each S - v precedes S
    for s in range(1, 1 << n):
        tw[s] = min(max(tw[s ^ v], q_size(s ^ v, v)) for v in adj if s & v)
    return tw[-1]


# ------------------------------------------------------------ minor bound

def _clique_minor_bound(g: Graph) -> int:
    """min(tw(g), 3): one less than the largest m <= 4 such that g has a K_m minor.

    K_2 is an edge and K_3 a cycle, which a forest (|E| = |V| - #components)
    lacks.  g has no K_4 minor iff deleting vertices of degree <= 1 and
    suppressing those of degree 2 (joining their two neighbours) empties it
    (Duffin 1965); neither step raises a degree, so one worklist pass does.
    """
    m = g.num_edges()
    if m == len(g) - len(_components_within(g, g.vertices)):
        return min(m, 1)
    adj = {v: set(ws) for v, ws in g._adj.items()}
    low = [v for v, ws in adj.items() if len(ws) <= 2]
    while low:
        v = low.pop()
        if v in adj:
            ws = adj.pop(v)
            for w in ws:
                adj[w].discard(v)
                adj[w].update(ws - {w})
            low.extend(w for w in ws if len(adj[w]) <= 2)
    return 3 if adj else 2


# ---------------------------------------------------------------- interop

def td_to_json_dict(td: TreeDecomposition) -> dict:
    return {
        "nodes": list(td.tree.vertices),
        "edges": [[u, v] for u, v in td.tree.edges],
        "bags": {str(t): sorted(td.bags[t]) for t in td.tree.vertices},
    }


def td_to_dot(td: TreeDecomposition) -> str:
    return _dot(td.tree, "decomposition",
                lambda t: "{" + ", ".join(str(x) for x in sorted(td.bags[t])) + "}")
