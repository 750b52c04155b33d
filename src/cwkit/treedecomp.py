"""Tree decompositions, an exact treewidth oracle, and minor containment.

Both oracles are exponential and exist to cross-check the constructive code
on desk-sized instances.  brute_treewidth runs the elimination-ordering DP
over vertex subsets; has_minor backtracks over partial branch-set
assignments.  The CWQ_ORACLE_CAP environment variable overrides both size
caps when set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Mapping

from .errors import InputError, SizeCapError
from .graphs import Graph, _components_within, _connected_within, _dot, is_connected

DEFAULT_TREEWIDTH_CAP = 12
DEFAULT_MINOR_HOST_CAP = 50
DEFAULT_MINOR_PATTERN_CAP = 6


def _effective_cap(explicit, default):
    if explicit is not None:
        return explicit
    env = os.environ.get("CWQ_ORACLE_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"CWQ_ORACLE_CAP must be an integer, got {env!r}") from None
    return default


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Named checks, each with its first witness; validate_td, verify_result and
    validate_cover all report this way."""

    checks: tuple

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
    """(the first vertex of g whose bags induce no subtree, the first edge of g in
    no bag), each None when there is none; holding inverts td's bags."""
    split = next((v for v in g.vertices if not _connected_within(td.tree, holding[v])), None)
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
    """Exact treewidth by DP over elimination prefixes.

    For an eliminated set S and next victim v, the bag size contribution is
    the number of vertices outside S reachable from v through S.  Memoizing
    over subsets gives O(2^n poly) which is the whole point of the cap.
    """
    n = len(g)
    if n == 0:
        raise InputError("treewidth of the empty graph")
    cap = _effective_cap(cap, DEFAULT_TREEWIDTH_CAP)
    if n > cap:
        raise SizeCapError(f"graph has {n} vertices, exact treewidth capped at {cap}")

    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]

    def back_degree(prefix: int, v: int) -> int:
        allowed = prefix | (1 << v)
        comp = 1 << v
        frontier = comp
        while frontier:
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            frontier = reach & allowed & ~comp
            comp |= frontier
        boundary = 0
        m = comp
        while m:
            low = m & -m
            boundary |= adj[low.bit_length() - 1]
            m ^= low
        return bin(boundary & ~allowed).count("1")

    full = (1 << n) - 1
    dp = {0: -1}
    subsets = sorted(range(1 << n), key=lambda s: bin(s).count("1"))
    for s in subsets:
        if s == 0:
            continue
        best = n
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            prev = s ^ low
            cand = max(dp[prev], back_degree(prev, v))
            if cand < best:
                best = cand
            m ^= low
        dp[s] = best
    return dp[full]


# ------------------------------------------------------------ minor search

def has_minor(g: Graph, h: Graph, g_cap: int | None = None,
              h_cap: int = DEFAULT_MINOR_PATTERN_CAP) -> bool:
    """Whether h is a minor of g, by exhaustive branch-set backtracking.

    Searches for pairwise disjoint connected vertex sets of g, one per
    vertex of h, with an edge of g between the sets of every edge of h.
    Demand-driven: the search always extends the assignment toward the
    first broken requirement, so each branch grows one branch set by one
    vertex.  Complete, exponential, desk scale only.
    """
    g_cap = _effective_cap(g_cap, DEFAULT_MINOR_HOST_CAP)
    if len(g) > g_cap:
        raise SizeCapError(f"host graph has {len(g)} vertices, minor search capped at {g_cap}")
    if len(h) > h_cap:
        raise SizeCapError(f"pattern graph has {len(h)} vertices, minor search capped at {h_cap}")
    if len(h) == 0:
        return True
    if len(h) > len(g) or h.num_edges() > g.num_edges():
        return False

    hs = sorted(h.vertices, key=lambda v: (-h.degree(v), v))
    hidx = {v: i for i, v in enumerate(hs)}
    hedges = [(hidx[u], hidx[v]) for u, v in h.edges]
    hedges = [(min(a, b), max(a, b)) for a, b in hedges]
    gv = list(g.vertices)

    visited = set()

    def reachable_through(passable: set, seeds: set) -> set:
        """Vertices reachable from seeds along paths whose interior is passable."""
        seen = set(seeds)
        stack = list(seeds)
        out = set(seeds)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in seen:
                    continue
                seen.add(w)
                out.add(w)
                if w in passable:
                    stack.append(w)
        return out

    def solve(assign: dict) -> bool:
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
            comps = _components_within(g, cls)
            if len(comps) == 1:
                continue
            # feasibility: every component reachable from the first through
            # vertices the final class may still contain
            whole = reachable_through(unassigned | cls, comps[0])
            if any(c.isdisjoint(whole) for c in comps[1:]):
                return False
            comp = min(comps, key=lambda c: (len(c), sorted(c)[0]))
            cands = sorted({w for u in comp for w in g.neighbors(u) if w in unassigned})
            for u in cands:
                child = dict(assign)
                child[u] = i
                if solve(child):
                    return True
            return False

        # Unrealized pattern edges next.
        for a, b in hedges:
            ca, cb = classes[a], classes[b]
            if not ca and not cb:
                continue
            if ca and cb:
                if any(w in cb for u in ca for w in g.neighbors(u)):
                    continue
                # feasibility: some path from ca to cb through unassigned
                if cb.isdisjoint(reachable_through(unassigned, ca)):
                    return False
            side, other = (a, b) if ca else (b, a)
            if classes[other] and len(classes[other]) < len(classes[side]):
                side, other = other, side
            cands = sorted({w for u in classes[side] for w in g.neighbors(u) if w in unassigned})
            if not cands:
                return False
            for u in cands:
                for target in (other, side):
                    child = dict(assign)
                    child[u] = target
                    if solve(child):
                        return True
            return False

        # Finally seed any pattern vertex not yet placed.
        for i, cls in enumerate(classes):
            if cls:
                continue
            for u in sorted(unassigned):
                child = dict(assign)
                child[u] = i
                if solve(child):
                    return True
            return False

        return True

    return solve({})


# ---------------------------------------------------------------- interop

def td_to_json_dict(td: TreeDecomposition) -> dict:
    return {
        "nodes": list(td.tree.vertices),
        "edges": [[u, v] for u, v in td.tree.edges],
        "bags": {str(t): sorted(td.bags[t]) for t in td.tree.vertices},
    }


def td_from_json_dict(obj: Mapping) -> TreeDecomposition:
    try:
        nodes = obj["nodes"]
        edges = [tuple(e) for e in obj["edges"]]
        raw_bags = obj["bags"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed tree decomposition object: {exc}") from None
    tree = Graph(nodes, edges)
    by_str = {str(t): t for t in tree.vertices}
    bags = {}
    for key, members in raw_bags.items():
        if key not in by_str:
            raise InputError(f"bag key {key!r} is not a tree node")
        bags[by_str[key]] = frozenset(members)
    return TreeDecomposition(tree, bags)


def td_to_dot(td: TreeDecomposition, name: str = "decomposition") -> str:
    return _dot(td.tree, name, lambda t: "{" + ", ".join(str(x) for x in sorted(td.bags[t])) + "}")
