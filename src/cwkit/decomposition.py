"""From a strict expression to a dominated monochromatic partition.

decompose() runs one structural recursion over the expression and maintains,
for every subexpression, a partition of its vertices into single-coloured
dominated parts plus a tree decomposition of the quotient.  Two invariants
carry the induction: a distinguished "rainbow" node whose bag holds a part
of every colour in use, and, per colour, connectedness of the tree nodes
whose bags meet that colour.  The recursion is one fold step; it folds an
AST, or the parser's events straight from a .cwx file's text, which builds
no AST.

verify_result() re-derives every claimed property from the evaluated graph
alone, so tests can mutate results and watch the right check fail.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Mapping

from .errors import ContractError, CwkitError
from .expressions import (LEAF, RECOLOR, UNION, CwExpr, _fields, _find, _graph_of,
                          _Semantics, _Text, fold_postorder, parse, read_text,
                          validate_strict)
from .graphs import ColoredGraph, Graph, Partition, is_dominated, quotient
from .records import Record, _set
from .treedecomp import (CheckResult, TreeDecomposition, VerificationReport, _holding,
                         _td_checks, _td_witnesses, _verdict, is_tree, td_to_dot,
                         td_to_json_dict)

# Why each strictness rule matters to the construction below; quoted in the
# error raised on non-strict input.
_RULE_WHY = {
    "DUP_VERTEX": "parts are keyed by leaf vertex ids, which must be unique",
    "COLOR_RANGE": "bag size is bounded by the palette, so colours must stay in 1..k",
    "OP2_I_UNUSED": "a recolor must change something or the recursion makes no progress",
    "OP2_J_UNUSED": "the rainbow bag must already hold a part of the target colour",
    "OP3_NO_NEW_EDGE": "a join must add an edge so both colour classes are nonempty "
                       "and each merged part gains a domination witness",
}


class DecompositionResult(Record):
    """Partition, induced part colours, quotient tree decomposition, rainbow node."""

    __slots__ = ("partition", "part_colors", "tree", "rainbow_node")

    def __init__(self, partition: Partition, part_colors: Mapping, tree: TreeDecomposition,
                 rainbow_node: int):
        _set(self, "partition", partition)
        _set(self, "part_colors", part_colors)
        _set(self, "tree", tree)
        _set(self, "rainbow_node", rainbow_node)


def decompose(e: CwExpr) -> DecompositionResult:
    """The partition plus quotient tree decomposition for a strict expression.

    Deterministic: tree nodes are numbered in left-to-right postorder, merged
    parts are named merge(<colour>,<counter>) in join order, and the rainbow
    bag prefers parts from the left operand's bag and then the smallest part
    id.  One fold over the expression; it stops at the first broken strict
    rule and raises with validate_strict's first violation.
    """
    return _decompose(e)[0]


class _NotStrict(ContractError):
    """A broken strict rule, met by a fold step, which cannot name the node's path."""


def _decompose(e: CwExpr, tree: bool = True) -> tuple:
    """(decompose(e), the coloured graph e denotes), in one fold; with tree false,
    (its partition, the graph), built without the tree decomposition."""
    try:
        return _folded(e.k, lambda step: fold_postorder(
            e.root, lambda node, kids: step(*_fields(node), kids)), tree)
    except _NotStrict:
        v = validate_strict(e).first()
        why = _RULE_WHY.get(v.rule, "required by the construction")
        raise ContractError(f"expression is not strict: {v} ({why})") from None


def _decompose_cwx(path, tree: bool = True) -> tuple:
    """_decompose(read_cwx(path), tree), folded straight from the parser's events; on
    any error the text is parsed and its AST folded, so the error that wins is theirs."""
    text = read_text(path)
    try:
        body = _Text(text)
        return _folded(body.k, body.fold, tree)
    except CwkitError:
        return _decompose(parse(text), tree)


def _folded(k: int, fold, tree: bool = True) -> tuple:
    """(the result, the coloured graph) of fold(step), a fold of step(kind, x, y, kids)
    over an expression on palette k; step raises _NotStrict at a broken strict rule.
    With tree false the result is the partition alone: no bag, tree edge or rainbow bag
    is kept, only what names the parts."""
    core = _Semantics(k)
    names = {}       # part -> part id
    bags = []        # tree node -> parts, resolved to part ids at the end
    tree_edges = []  # (a union's node, an operand's node), in the order of the unions
    merge_counter = itertools.count()

    # Each folded value is (state, rainbow node, colour -> the rainbow bag's part of it);
    # a recolor keeps the least id, which changes only at a join that resets the colour.
    def step(kind, x, y, kids):
        if kind == LEAF:
            st, broken = core.step(kind, x, y, ())
            if broken:
                raise _NotStrict
            part = st[y][0]
            names[part] = x
            if not tree:
                return st, None, None
            bags.append([part])
            return st, len(bags) - 1, {y: part}
        if kind == UNION:
            (left_st, left, rb), (right_st, right, right_rb) = kids
            st, _ = core.step(kind, x, y, (left_st, right_st))  # a union breaks no rule
            if not tree:
                return st, None, None
            q = len(bags)
            tree_edges.extend(((q, left), (q, right)))
            rb = right_rb | rb  # a colour both operands hold keeps the left one's part
            bags.append(list(rb.values()))
            return st, q, rb
        st, rainbow, rb = kids[0]
        colors = (x, y)
        sizes = [len(st.get(c, ())) for c in colors]
        if core.step(kind, x, y, (st,))[1]:
            raise _NotStrict
        if kind == RECOLOR:
            if tree:
                rb[y] = min(rb[y], rb.pop(x), key=names.get)
            return st, rainbow, rb
        # The core fused each of the two colour classes, both nonempty as the join added
        # an edge, into one part; rb holds every colour in use, so both of them.
        for color, size in zip(colors, sizes):
            if size > 1:
                fused = st[color][0]
                names[fused] = f"merge({color},{next(merge_counter)})"
                if tree:
                    rb[color] = fused
        return st, rainbow, rb

    final, rainbow, _ = fold(step)

    parts, part_colors = {}, {}
    for color, bucket in final.items():
        for part in bucket:
            pid = names[part]  # a leaf's id, distinct by DUP_VERTEX, or a merge(...) name
            parts[pid] = frozenset(core.names[v] for v in part.members)
            part_colors[pid] = color
    if not tree:
        return Partition(parts), _graph_of(core, final)
    adj = [[] for _ in bags]
    for q, kid in tree_edges:  # kid's own operands come first and its union's node last
        adj[q].append(kid)
        adj[kid].append(q)
    nodes = Graph._built(tuple(range(len(bags))), dict(enumerate(map(tuple, adj))))
    resolved = {t: frozenset(names[_find(p)] for p in bag) for t, bag in enumerate(bags)}
    result = DecompositionResult(Partition(parts), part_colors,
                                 TreeDecomposition(nodes, resolved), rainbow)
    return result, _graph_of(core, final)


# ------------------------------------------------------------ verification

def verify_result(g: ColoredGraph, result: DecompositionResult) -> VerificationReport:
    """Re-check every property of a decomposition against the graph itself.

    Nothing from the constructor is trusted: part colours are recomputed,
    the quotient is rebuilt, and the two tree decomposition properties, the
    width bound, the rainbow bag, and per-colour subtree connectivity are
    all established from scratch.  Each failed check carries a witness.
    The bags are inverted once, so no check rescans every bag.
    """
    p = result.partition
    td = result.tree
    vertices = set(g.graph.vertices)
    missing, extra = sorted(vertices - p.vertices), sorted(p.vertices - vertices)
    checks = [_verdict("partition_covers", [f"missing={missing[:3]} extra={extra[:3]}"]
                       if missing or extra else [])]

    actual_colors, mixed = {}, []
    for pid, members in p:
        cols = sorted({g.color_of(v) for v in members if g.graph.has_vertex(v)})
        actual_colors[pid] = cols[0] if len(cols) == 1 else None
        if len(cols) != 1:
            mixed.append(f"part {pid!r} has colours {cols}")
    checks.append(_verdict("parts_monochromatic", mixed))

    if set(result.part_colors) != set(p.ids):
        mislabelled = ["part_colors keys do not match the partition"]
    else:
        mislabelled = (f"part {pid!r} labelled {result.part_colors[pid]} but its "
                       f"vertices are coloured {actual_colors.get(pid)}"
                       for pid in p.ids if actual_colors.get(pid) != result.part_colors[pid])
    checks.append(_verdict("part_colors_match", mislabelled))

    def undominated():
        for pid, members in p:
            if not all(g.graph.has_vertex(v) for v in members):
                yield f"part {pid!r} has vertices outside the graph"
            elif not is_dominated(g.graph, members)[0]:
                yield f"part {pid!r} fits in no closed neighborhood"
    checks.append(_verdict("parts_dominated", undominated()))

    if not is_tree(td.tree):
        bad_tree = [f"not a tree: {len(td.tree)} nodes, {td.tree.num_edges()} edges"]
    else:
        stray = sorted({pid for b in td.bags.values() for pid in b} - set(p.ids))
        bad_tree = [f"bags mention unknown part ids {stray[:3]}"] if stray else []
    checks.append(_verdict("tree_valid", bad_tree))
    if bad_tree or missing or extra:
        why = "not evaluated: tree or partition invalid"
        checks.extend(CheckResult(name, False, why) for name in (
            "bag_subtrees", "edges_covered", "width_bound", "rainbow_bag", "color_subtrees"))
        return VerificationReport(tuple(checks))

    holding = _holding(td, p.ids)
    checks.extend(_td_checks(quotient(g.graph, p)[0], td, holding, "part", "quotient edge"))

    big = max(len(b) for b in td.bags.values())
    checks.append(_verdict("width_bound",
                           [f"bag of {big} parts exceeds palette {g.k}"] if big > g.k else []))

    used = sorted(g.used_colors())
    if result.rainbow_node not in td.bags:
        no_rainbow = [f"rainbow node {result.rainbow_node!r} not in the tree"]
    else:
        bag = td.bags[result.rainbow_node]
        no_rainbow = (f"rainbow bag holds no part of colour {color}" for color in used
                      if not any(actual_colors.get(pid) == color for pid in bag))
    checks.append(_verdict("rainbow_bag", no_rainbow))

    holding_color = defaultdict(set)  # colour -> the tree nodes whose bags hold it
    for pid in p.ids:
        holding_color[actual_colors[pid]].update(holding[pid])
    # each colour holds a subtree: the subtree property of an edgeless graph on the colours
    color, _ = _td_witnesses(Graph(used), td, holding_color)
    checks.append(_verdict("color_subtrees", [] if color is None else [
        f"no bag holds a part of colour {color}" if not holding_color[color]
        else f"bags holding colour {color} are disconnected"]))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------- interop

def result_to_json_dict(result: DecompositionResult) -> dict:
    return {
        "parts": {str(pid): sorted(members) for pid, members in result.partition},
        "part_colors": {str(pid): result.part_colors[pid] for pid in result.partition.ids},
        "tree": td_to_json_dict(result.tree),
        "rainbow_node": result.rainbow_node,
    }


def result_to_dot(result: DecompositionResult) -> str:
    return td_to_dot(result.tree)
