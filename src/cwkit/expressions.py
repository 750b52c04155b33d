"""Clique-width expression ASTs, the .cwx text format, and their semantics.

Grammar (parenthesized prefix form, whitespace-insensitive):

    file    := header expr
    header  := "cw k=" INT
    expr    := leaf | union | recolor | join
    leaf    := "(v" ID INT ")"
    union   := "(union" expr expr ")"
    recolor := "(recolor" INT INT expr ")"
    join    := "(join" INT INT expr ")"

Vertex ids match [A-Za-z0-9_.-]+.  The canonical printer writes one node per
line, indented two spaces a level up to depth 32; parse(format_expr(e)) == e.

The semantics is one step, _Semantics.step(kind, x, y, kids), folded over an
AST or over a text's events, which complete nodes in the same postorder;
parse is the text fold with a step that builds the nodes.

Strict validity adds the side conditions the decomposition algorithm leans
on: leaf vertex ids globally distinct, every colour within 1..k, both
recolor colours present in the child's colouring, and every join adding at
least one new edge.
"""

from __future__ import annotations

import heapq
import itertools
import re

from .errors import CwkitError, InputError, ParseError
from .graphs import INFINITE, ColoredGraph, Graph
from .records import Record, _set

# Rule ids reported by validate_strict.
RULE_DUP_VERTEX = "DUP_VERTEX"
RULE_COLOR_RANGE = "COLOR_RANGE"
RULE_OP2_I_UNUSED = "OP2_I_UNUSED"
RULE_OP2_J_UNUSED = "OP2_J_UNUSED"
RULE_OP3_NO_NEW_EDGE = "OP3_NO_NEW_EDGE"
RULE_EMPTY_OPERAND = "EMPTY_OPERAND"

_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _positive(what: str, *values) -> None:
    """InputError unless each value is an int, not a bool, and at least 1, so that
    parse reads what format_expr writes of it back as the same value."""
    for value in values:
        if type(value) is not int or value < 1:
            raise InputError(f"{what} must be a positive int, got {value!r}")


def _nodes(what: str, *values) -> None:
    """InputError unless each value is a Leaf, Union, Recolor or Join."""
    for value in values:
        if not isinstance(value, _Node):
            raise InputError(f"{what} must be an expression node, not {type(value).__name__}")


class _Node(Record):
    """Leaf, Union, Recolor and Join.  == and hash walk the trees with one explicit
    stack, and repr shows at most 20 nodes, so none of the three recurses, whatever
    the depth."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if type(a) is not type(b) or _fields(a) != _fields(b):
                    return False
                stack.extend(zip(_children(a), _children(b)))
        return True

    def __hash__(self) -> int:
        return fold_postorder(self, lambda node, kids: hash((*_fields(node), *kids)))

    def __repr__(self) -> str:
        out, todo, budget = [], [self], 20  # the nodes shown; "..." stands for the rest
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
            elif budget:
                budget -= 1
                pieces = [f"{type(item).__qualname__}("]
                for i, name in enumerate(item.__slots__):
                    value = getattr(item, name)
                    pieces += [", " * bool(i) + f"{name}=",
                               value if isinstance(value, _Node) else repr(value)]
                todo += reversed(pieces + [")"])
            else:
                out.append("...")
        return "".join(out)


class Leaf(_Node):
    __slots__ = ("vertex", "color")

    def __init__(self, vertex: str, color: int):
        _positive("leaf colour", color)
        if type(vertex) is not str or not _ID_RE.fullmatch(vertex):
            raise InputError(f"invalid vertex id {vertex!r}")
        _VERTEX(self, vertex)
        _COLOR(self, color)


class Union(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _nodes("union operand", left, right)
        _LEFT(self, left)
        _RIGHT(self, right)


class Recolor(_Node):
    __slots__ = ("old_color", "new_color", "child")

    def __init__(self, old_color: int, new_color: int, child: Node):
        if old_color == new_color:
            raise InputError("recolor colours must differ")
        _positive("recolor colour", old_color, new_color)
        _nodes("recolor child", child)
        _OLD_COLOR(self, old_color)
        _NEW_COLOR(self, new_color)
        _RECOLOR_CHILD(self, child)


class Join(_Node):
    __slots__ = ("color_a", "color_b", "child")

    def __init__(self, color_a: int, color_b: int, child: Node):
        if color_a == color_b:
            raise InputError("join colours must differ")
        _positive("join colour", color_a, color_b)
        _nodes("join child", child)
        _COLOR_A(self, color_a)
        _COLOR_B(self, color_b)
        _JOIN_CHILD(self, child)


Node = Leaf | Union | Recolor | Join

# Each node field's slot setter fills it past the __setattr__ that keeps nodes
# frozen, and faster than _set does: parse fills a node at every ')' and leaf.
_VERTEX, _COLOR = Leaf.vertex.__set__, Leaf.color.__set__
_LEFT, _RIGHT = Union.left.__set__, Union.right.__set__
_OLD_COLOR, _NEW_COLOR = Recolor.old_color.__set__, Recolor.new_color.__set__
_COLOR_A, _COLOR_B = Join.color_a.__set__, Join.color_b.__set__
_RECOLOR_CHILD, _JOIN_CHILD = Recolor.child.__set__, Join.child.__set__
_new = object.__new__  # a node without __init__, for _node to fill


class CwExpr(Record):
    """An expression together with its palette size k."""

    __slots__ = ("k", "root")

    def __init__(self, k: int, root: Node):
        _positive("palette size", k)
        _nodes("expression root", root)
        _set(self, "k", k)
        _set(self, "root", root)


LEAF, UNION, RECOLOR, JOIN = range(4)


def _fields(node: Node) -> tuple:
    """(kind, x, y): LEAF with the vertex and colour, UNION, or RECOLOR or JOIN with the
    two colours; a subclass of a node class reads as that class."""
    if isinstance(node, Leaf):
        return LEAF, node.vertex, node.color
    if isinstance(node, Union):
        return UNION, None, None
    if isinstance(node, Recolor):
        return RECOLOR, node.old_color, node.new_color
    return JOIN, node.color_a, node.color_b


def _children(node: Node) -> tuple:
    if isinstance(node, Leaf):
        return ()
    if isinstance(node, Union):
        return (node.left, node.right)
    return (node.child,)


def fold_postorder(root: Node, fn):
    """fn(node, child_values) folded bottom-up, left to right, with an explicit stack.

    Deep expressions (long paths give linearly deep ASTs) must not hit the
    interpreter recursion limit, so no recursion anywhere in this module.
    Each value goes to exactly one parent, even where one node object
    occurs twice, so fn may consume the values it is given.
    """
    order = []  # (node, its children), preorder
    stack = [root]
    while stack:
        node = stack.pop()
        kids = _children(node)
        order.append((node, kids))
        stack.extend(kids)
    values = []
    for node, kids in reversed(order):
        if kids:  # one or two
            last = values.pop()
            kids = (values.pop(), last) if len(kids) == 2 else (last,)
        values.append(fn(node, kids))
    return values[0]


class _Path:
    """A node's path as a link to its parent's; iterating gives the child indices."""

    __slots__ = ("parent", "index")

    def __init__(self, parent, index: int):
        self.parent, self.index = parent, index

    def __iter__(self):
        steps, link = [], self
        while link:  # the root's path is the empty tuple
            steps.append(link.index)
            link = link.parent
        return reversed(steps)


def walk_with_paths(root: Node):
    """Yield (path, node) preorder; path iterates the child indices from the root.

    Paths are parent links, so the walk takes memory linear in the tree
    whatever its depth; tuple(path) spells one out.
    """
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = _children(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((_Path(path, i), kids[i]))


def render_path(path: tuple) -> str:
    return "root" + "".join(f"[{i}]" for i in path)


# ---------------------------------------------------------------- parsing

_BLANK_LINES_RE = re.compile(r"(?:[^\S\n]*\n)*")
_HEADER_RE = re.compile(r"\s*cw\s+k\s*=\s*([0-9]+)\s*$")
_ALLOWED_RE = re.compile(r"[\s()A-Za-z0-9_.-]*")
_TOKEN_RE = re.compile(r"\s*([()]|[A-Za-z0-9_.-]+)")  # blanks, then the token as group 1
# An event is a run of whole tokens: a whole leaf; a recolor or join with its
# '(' and two colours of up to 15 digits, which int() reads at once; any other
# operator with its '('; or a single token.
_EVENT_RE = re.compile(r"\s*(?:\(\s*v\s+([A-Za-z0-9_.-]+)\s+([0-9]{1,15})\s*\)"
                       r"|\(\s*(?:(recolor|join)\s+([0-9]{1,15})\s+([0-9]{1,15})"
                       r"|(v|union|recolor|join))(?![A-Za-z0-9_.-])|([()]|[A-Za-z0-9_.-]+))")

# operator -> (which of its arguments are atoms, the error when they are not)
_SHAPES = {
    "v": ((True, True), "leaf takes a vertex id and a colour"),
    "union": ((False, False), "union takes exactly two subexpressions"),
    "recolor": ((True, True, False), "recolor takes two colours and one subexpression"),
    "join": ((True, True, False), "join takes two colours and one subexpression"),
}


def _error(message: str, text: str, at: int) -> ParseError:
    """A ParseError at offset at of text; only "\\n" starts a line."""
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _read_int(digits: str):
    """int(digits), or INFINITE past int()'s digit limit; leading zeros do not count."""
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        return INFINITE


class _Text:
    """A .cwx document: its palette size k, the events of its expression, and where
    their tokens start.  Header errors are raised here, expression errors by fold."""

    def __init__(self, text: str):
        start = _BLANK_LINES_RE.match(text).end()  # the header's line is the first nonblank
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        if not text[start:end].strip():
            raise ParseError("empty input, expected a 'cw k=<int>' header", 1, 1)
        m = _HEADER_RE.match(text, start, end)
        if not m:
            raise _error("expected header 'cw k=<int>'", text, start)
        self.k = _read_int(m.group(1))
        if self.k == INFINITE:
            raise _error("palette size k has too many digits", text, m.start(1))
        if self.k < 1:
            raise _error("palette size k must be >= 1", text, start)
        stray = _ALLOWED_RE.match(text, end).end()
        if stray < len(text):
            raise _error(f"unexpected character {text[stray]!r}", text, stray)
        # The scan ends at the last token: in trailing blanks each start would rescan the rest.
        self.text, self.span = text, (end, len(text.rstrip()))
        self.events = _EVENT_RE.findall(text, *self.span)
        if not self.events:
            raise _error("missing expression after header", text, start)

    def error(self, message: str, event: int, nth: int = 0) -> ParseError:
        """A ParseError at the nth token of the event-th event (-1: its last), found by a
        second scan, which only an error pays for."""
        m = next(itertools.islice(_EVENT_RE.finditer(self.text, *self.span), event, None))
        starts = [t.start(1) for t in _TOKEN_RE.finditer(self.text, m.start(), m.end())]
        return _error(message, self.text, starts[nth])

    def fields(self, frame: list) -> tuple:
        """The (kind, x, y, kids) of a frame that failed fold's quick check, or the error
        the token parser raises at its ')'."""
        at, op, a, b, *rest = frame
        # An int in a frame is an atom's event; a whole leaf or a recolor or join head holds two.
        shape, message = _SHAPES[op]
        if (True, True) * bool(a) + tuple(type(x) is int for x in rest) != shape:
            raise self.error(message, at, 1)
        # An atom is read as (token, event, nth token of the event).
        args = [(a, at, 2), (b, at, 3)] if a else []
        args += [(self.events[x][6], x, 0) if type(x) is int else x for x in rest]
        what = "leaf" if op == "v" else op
        colors = []
        for value, event, nth in (args[1:] if op == "v" else args[:2]):
            if not value.isdigit():
                raise self.error(f"{what} colour must be an integer, got {value!r}", event, nth)
            colors.append(_read_int(value))
            if not 1 <= colors[-1] <= self.k:  # one too long to read is above every readable k
                raise self.error(f"{what} colour {value.lstrip('0') or 0} out of range "
                                 f"1..{self.k}", event, nth)
        if op == "v":
            return LEAF, args[0][0], colors[0], ()
        if colors[0] == colors[1]:
            raise self.error(f"{op} colours must differ, both are {colors[0]}", *args[1][1:])
        return (RECOLOR if op == "recolor" else JOIN), *colors, args[2:]

    def fold(self, step):
        """step(kind, x, y, kids) folded over the expression, in time linear in the text
        and in fold_postorder's order; step returns neither None nor an int.  Each node
        is checked once, at its ')'; only one that fails the quick check is checked
        token by token, for its error's message and place."""
        k, events = self.k, self.events
        stack = []  # open operators: [event, operator, colour, colour, arguments so far...]
        root = None
        for i, (vertex, color, op, a, b, bare, token) in enumerate(events):
            if root is not None:
                raise self.error("unexpected trailing input after expression", i)
            if op or bare:
                stack.append([i, op or bare, a, b])
                continue
            if vertex:
                c = int(color)
                value = (step(LEAF, vertex, c, ()) if 0 < c <= k
                         else step(*self.fields([i, "v", vertex, color])))
            elif token == ")":
                if not stack:
                    raise self.error("unmatched ')'", i)
                frame = stack.pop()
                args = frame[4:]
                if frame[2]:  # only a recolor or join has colours here
                    x, y = int(frame[2]), int(frame[3])
                    if (len(args) == 1 and type(args[0]) is not int and x != y
                            and 0 < x <= k and 0 < y <= k):
                        value = step(RECOLOR if frame[1] == "recolor" else JOIN, x, y, args)
                    else:
                        value = step(*self.fields(frame))
                elif (frame[1] == "union" and len(args) == 2 and type(args[0]) is not int
                      and type(args[1]) is not int):
                    value = step(UNION, None, None, args)
                else:
                    value = step(*self.fields(frame))
            elif token == "(":
                after = events[i + 1][6] if i + 1 < len(events) else ""
                if not after or after in "()":
                    raise self.error("expected an operator after '('", i)
                raise self.error(f"unknown operator {after!r}", i + 1)
            elif stack:
                stack[-1].append(i)
                continue
            else:
                raise self.error(f"unexpected atom {token!r} outside an expression", i)
            if stack:
                stack[-1].append(value)
            else:
                root = value
        if root is None:
            raise self.error("unexpected end of input, unclosed '('", len(events) - 1, -1)
        return root


def _node(kind: int, x, y, kids) -> Node:
    """The node a fold step makes from its fields and children, which are checked
    already (parse's events check them, and normalize renames checked colours);
    so it skips __init__ and its checks."""
    if kind == LEAF:
        node = _new(Leaf)
        _VERTEX(node, x)
        _COLOR(node, y)
    elif kind == UNION:
        node = _new(Union)
        _LEFT(node, kids[0])
        _RIGHT(node, kids[1])
    elif kind == RECOLOR:
        node = _new(Recolor)
        _OLD_COLOR(node, x)
        _NEW_COLOR(node, y)
        _RECOLOR_CHILD(node, kids[0])
    else:
        node = _new(Join)
        _COLOR_A(node, x)
        _COLOR_B(node, y)
        _JOIN_CHILD(node, kids[0])
    return node


def parse(text: str) -> CwExpr:
    """Parse a .cwx document (header line plus one expression) in time linear in the text."""
    body = _Text(text)
    return CwExpr(body.k, body.fold(_node))


# --------------------------------------------------------------- printing

_DEEPER = {"  " * d: "  " * min(d + 1, 32) for d in range(33)}  # parent's indent -> child's


def format_expr(e: CwExpr) -> str:
    """Canonical text: header, one node per line, indented by 2*min(depth, 32) spaces.

    The cap keeps the text linear in size.  One preorder pass writes each line
    once; a node's ')' goes on the line of its last descendant, so each child
    carries the count still to close.
    """
    lines = []
    stack = [(e.root, "", 0)]  # (node, indent, parens to close after it)
    while stack:
        node, indent, closes = stack.pop()
        if isinstance(node, Leaf):
            head = f"(v {node.vertex} {node.color}){')' * closes}"
        elif isinstance(node, Union):
            head = "(union"
        elif isinstance(node, Recolor):
            head = f"(recolor {node.old_color} {node.new_color}"
        else:
            head = f"(join {node.color_a} {node.color_b}"
        lines.append(indent + head)
        for i, kid in enumerate(reversed(_children(node))):
            stack.append((kid, _DEEPER[indent], 0 if i else closes + 1))
    return f"cw k={e.k}\n" + "\n".join(lines) + "\n"


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def read_cwx(path) -> CwExpr:
    return parse(read_text(path))


def write_cwx(path, e: CwExpr) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_expr(e))


# -------------------------------------------------------------- semantics

class _Part:
    """Vertices kept together; up is the part a join fused this one into.

    full[q.leaf] = (i, j) records that members[:i] and q.members[:j] are
    fully joined; fusion only appends to members, so the record stays true.
    Records name a part by the vertex of the leaf that made it, not by the
    part, so parts form no reference cycles and are freed with their fold.
    """

    __slots__ = ("members", "up", "full", "leaf")

    def __init__(self, leaf: int):
        self.members = [leaf]
        self.up = None
        self.full = {}
        self.leaf = leaf


def _find(part: _Part) -> _Part:
    """The live part that part has been fused into, halving the path."""
    while part.up is not None:
        if part.up.up is not None:
            part.up = part.up.up
        part = part.up
    return part


def _fuse(parts: list) -> _Part:
    """The largest of parts, grown by the vertices of the others, which point up to it."""
    if len(parts) == 1:
        return parts[0]
    big = max(parts, key=lambda p: len(p.members))
    for p in parts:
        if p is not big:
            big.members.extend(p.members)
            p.up = big
    return big


def _pour(state: dict, color: int, parts: list) -> None:
    """Add parts to the bucket of color, moving the shorter list."""
    have = state.get(color)
    if have is None:
        state[color] = parts
    elif len(have) >= len(parts):
        have.extend(parts)
    else:
        parts.extend(have)
        state[color] = parts


def _outside(k: int, kind: str, *colors) -> tuple:
    """A COLOR_RANGE violation for each colour outside 1..k."""
    return tuple((RULE_COLOR_RANGE, f"{kind} colour {c} outside 1..{k}")
                 for c in colors if not 1 <= c <= k)


class _State(dict):
    """A subexpression: each colour in use maps to its bucket, a list of parts."""

    __slots__ = ("first",)  # the vertex of its leftmost leaf


class _Semantics:
    """The leaf, union, recolor and join steps of one fold.

    Every state of the fold shares one vertex table and one adjacency; the
    parts record which of their vertex pairs a join has already connected.
    Vertices are numbered by leaf, so a vertex id that occurs twice is two
    vertices until the union that meets both copies.  That union raises
    InputError, or with merge_duplicates keeps the right operand's copy,
    which takes over the left copy's edges.  Steps consume their input
    states, so the states must come from one left-to-right fold.
    """

    def __init__(self, k: int, merge_duplicates: bool = False):
        self.k = k
        self.merge_duplicates = merge_duplicates
        self.names = []    # vertex -> vertex id
        self.leaves = []   # vertex -> the part its leaf made
        self.adj = []      # vertex -> set of adjacent vertices
        self.last = {}     # vertex id -> its latest vertex
        self.dups = []     # heap of (-earlier vertex, id) not yet met at a union

    def leaf(self, vertex: str, color: int) -> _State:
        v = len(self.names)
        part = _Part(v)
        self.names.append(vertex)
        self.leaves.append(part)
        self.adj.append(set())
        if vertex in self.last:
            heapq.heappush(self.dups, (-self.last[vertex], vertex))
        self.last[vertex] = v
        state = _State({color: [part]})
        state.first = v
        return state

    def union(self, left: _State, right: _State) -> _State:
        # A pending pair whose earlier copy is in left has its later one in
        # right: a pair inside one operand was met at a union below this one.
        met = []
        while self.dups and -self.dups[0][0] >= left.first:
            met.append(heapq.heappop(self.dups))
        if met and not self.merge_duplicates:
            name = min(name for _, name in met)
            raise InputError(f"duplicate vertex id {name!r} across union operands")
        if met:
            self._merge_copies(left, met)
        for color, parts in right.items():
            _pour(left, color, parts)
        return left

    def _merge_copies(self, state: _State, met: list) -> None:
        """Drop the earlier copy of each met duplicate from state; the latest copy takes its edges."""
        drop = {}  # part -> its vertices to drop
        for neg, name in met:
            v, keep = -neg, self.last[name]
            drop.setdefault(_find(self.leaves[v]), set()).add(v)
            for w in self.adj[v]:
                self.adj[w].discard(v)
                self.adj[w].add(keep)
                self.adj[keep].add(w)
            self.adj[v] = set()
        for part, gone in drop.items():
            part.members = [u for u in part.members if u not in gone]
            for q in part.full:  # the removal shifts the recorded prefixes
                del self.leaves[q].full[part.leaf]
            part.full.clear()
        emptied = {part for part in drop if not part.members}
        if emptied:
            for color, parts in list(state.items()):
                parts[:] = [p for p in parts if p not in emptied]
                if not parts:
                    del state[color]

    def recolor(self, state: _State, old: int, new: int) -> tuple:
        """Repaint old as new; whether old and new were in use before."""
        parts = state.pop(old, None)
        had_new = new in state
        if parts is not None:
            _pour(state, new, parts)
        return parts is not None, had_new

    def new_edges(self, state: _State, a: int, b: int):
        """The vertex pairs a join of a and b would add, lazily; recorded pairs are skipped."""
        adj = self.adj
        for p in state.get(a, ()):
            for q in state.get(b, ()):
                i, j = p.full.get(q.leaf, (0, 0))
                blocks = ((p.members[i:] if i else p.members, q.members),)
                if i and j < len(q.members):
                    blocks += ((p.members[:i], q.members[j:]),)
                for us, ws in blocks:
                    for u in us:
                        near = adj[u]
                        for w in ws:
                            if w not in near:
                                yield u, w

    def join(self, state: _State, a: int, b: int) -> bool:
        """Join a and b and fuse each class into one part; whether an edge is new."""
        added = list(self.new_edges(state, a, b))
        for u, w in added:
            self.adj[u].add(w)
            self.adj[w].add(u)
        if a in state and b in state:
            p, q = _fuse(state[a]), _fuse(state[b])
            state[a], state[b] = [p], [q]
            p.full[q.leaf] = (len(p.members), len(q.members))
            q.full[p.leaf] = (len(q.members), len(p.members))
        return bool(added)

    def step(self, kind: int, x, y, kids) -> tuple:
        """(state after a node, its broken strict rules as (rule, message) pairs).

        kind, x and y are the node's _fields, kids its children's states.  A rule
        is listed only when it breaks.  A duplicated vertex id has no message here:
        its message names a path.
        """
        k = self.k
        if kind == LEAF:
            broken = () if 1 <= y <= k else _outside(k, "leaf", y)
            if x in self.last:
                broken += ((RULE_DUP_VERTEX, None),)
            return self.leaf(x, y), broken
        if kind == UNION:
            return self.union(*kids), ()
        state = kids[0]
        if kind == RECOLOR:
            broken = () if 1 <= x <= k and 1 <= y <= k else _outside(k, "recolor", x, y)
            had_old, had_new = self.recolor(state, x, y)
            if not had_old:
                broken += ((RULE_OP2_I_UNUSED, f"recolor source colour {x} unused below"),)
            if not had_new:
                broken += ((RULE_OP2_J_UNUSED, f"recolor target colour {y} unused below"),)
            return state, broken
        broken = () if 1 <= x <= k and 1 <= y <= k else _outside(k, "join", x, y)
        if not self.join(state, x, y):
            broken += ((RULE_OP3_NO_NEW_EDGE, f"join of colours {x},{y} adds no new edge"),)
        return state, broken


def evaluate(e: CwExpr) -> ColoredGraph:
    """The coloured graph an expression denotes.

    Raises InputError on duplicate leaf vertex ids or colours outside 1..k;
    strictness side conditions are validate_strict's business, not ours.
    """
    core = _Semantics(e.k)
    state = fold_postorder(e.root, lambda node, kids: core.step(*_fields(node), kids)[0])
    return _graph_of(core, state)


def _evaluate_text(text: str) -> ColoredGraph:
    """evaluate(parse(text)) from the parser's events; on an error, from its AST."""
    try:
        body = _Text(text)
        core = _Semantics(body.k)
        return _graph_of(core, body.fold(lambda *node: core.step(*node)[0]))
    except CwkitError:
        return evaluate(parse(text))


def _graph_of(core: _Semantics, state: _State) -> ColoredGraph:
    """The coloured graph of a fold's final state, taken as built: its vertex ids are
    distinct, since no core that merges duplicates (validate_strict's) builds a graph."""
    color = {v: c for c, parts in state.items() for part in parts for v in part.members}
    names, last = core.names, core.last
    colors = {name: color[v] for v, name in enumerate(names)}
    vertices = tuple(sorted(colors))
    adj = {u: tuple(sorted([names[w] for w in core.adj[last[u]]])) for u in vertices}
    return ColoredGraph(Graph._built(vertices, adj), core.k, colors)


# ------------------------------------------------------------- validation

class Violation(Record):
    __slots__ = ("path", "rule", "message")

    def __init__(self, path: tuple, rule: str, message: str):
        _set(self, "path", path)
        _set(self, "rule", rule)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.rule} at {render_path(self.path)}: {self.message}"


class ValidationReport(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple):
        _set(self, "violations", violations)

    @property
    def strict_valid(self) -> bool:
        return not self.violations

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def to_json_dict(self) -> dict:
        return {
            "strict_valid": self.strict_valid,
            "violations": [
                {"path": render_path(v.path), "rule": v.rule, "message": v.message}
                for v in self.violations
            ],
        }


def validate_strict(e: CwExpr) -> ValidationReport:
    """Check every structural rule; reports all violations, raises nothing.

    A vertex id that occurs twice takes the right operand's colour at the
    union that meets both copies.  Violations come in preorder, outermost
    first; the tree is walked for their paths only when there are some.
    """
    core = _Semantics(e.k, merge_duplicates=True)
    found = {}  # id(node) -> its broken rules, the same at every occurrence

    def step(node, kids):
        state, broken = core.step(*_fields(node), kids)
        if broken:
            found[id(node)] = broken
        return state

    fold_postorder(e.root, step)
    if not found:
        return ValidationReport(())
    violations = []
    seen_leaves = {}  # vertex id -> the path of its first leaf
    for path, node in walk_with_paths(e.root):
        violations.extend(Violation(tuple(path), rule, message)
                          for rule, message in found.get(id(node), ())
                          if rule != RULE_DUP_VERTEX)
        if isinstance(node, Leaf):
            first = seen_leaves.setdefault(node.vertex, path)
            if first is not path:
                violations.append(Violation(tuple(path), RULE_DUP_VERTEX,
                                            f"vertex id {node.vertex!r} already introduced at "
                                            f"{render_path(first)}"))
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------- normalization

def normalize(e: CwExpr) -> CwExpr:
    """Rewrite to an equivalent strict-valid expression.

    Bottom-up: joins that add no edge are dropped; recolors whose source
    colour is unused are dropped; recolors whose target colour is unused are
    pure renamings and are realized by swapping the two colours inside the
    subtree instead.  The result evaluates to the same coloured graph, and
    normalize(normalize(e)) == normalize(e).  Each node's fate is decided by
    one fold and its colours are renamed by one preorder pass, in linear time.

    The input must evaluate successfully and keep colours within 1..k.
    """
    core = _Semantics(e.k)
    dropped = {}  # id(node) -> the two colours its removal swaps below, or ()

    def decide(node, kids):
        kind, x, y = _fields(node)
        state, broken = core.step(kind, x, y, kids)
        rules = {rule for rule, _ in broken}
        if RULE_COLOR_RANGE in rules:
            raise InputError(broken[0][1] if kind == LEAF else
                             f"{type(node).__name__.lower()} colour outside the palette")
        if rules & {RULE_OP2_I_UNUSED, RULE_OP3_NO_NEW_EDGE}:
            dropped[id(node)] = ()
        elif RULE_OP2_J_UNUSED in rules:
            dropped[id(node)] = (x, y)
        return state

    fold_postorder(e.root, decide)
    rename, renamed, stack = {}, {}, [e.root]  # rename: colour -> colour, by the swaps above
    while stack:
        node = stack.pop()
        if isinstance(node, dict):  # a swapped subtree is done: restore the renaming above it
            rename.update(node)
            continue
        if swap := dropped.get(id(node)):
            old, new = swap
            stack.append({old: rename.get(old, old), new: rename.get(new, new)})
            rename[old], rename[new] = stack[-1][new], stack[-1][old]
        kind, x, y = _fields(node)  # a leaf's x is its vertex, which no swap renames
        renamed[id(node)] = kind, x if kind == LEAF else rename.get(x, x), rename.get(y, y)
        stack.extend(_children(node))

    def build(node, kids):
        if id(node) in dropped:
            return kids[0]
        kind, x, y = renamed[id(node)]
        return node if kind == LEAF and y == node.color else _node(kind, x, y, kids)

    return CwExpr(e.k, fold_postorder(e.root, build))
