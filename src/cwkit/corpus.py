"""Seeded random expressions, valid by construction.

Every operation is chosen from whatever the strict side conditions allow
in the current state, so the output never needs repair: unions merge
disjoint fragments, joins are only offered where a missing cross edge
exists, recolors only between two colours that both appear.  The states
are the expression core's, so the generator and the validator share one
definition of each operation.
"""

from __future__ import annotations

import random

from .errors import InputError
from .expressions import (JOIN, LEAF, RECOLOR, UNION, CwExpr, Join, Leaf, Recolor, Union,
                          _Semantics)


def random_strict_expr(rng: random.Random, palette: int, max_leaves: int) -> CwExpr:
    """One random expression on the given palette, strict by construction."""
    if palette < 1:
        raise InputError("palette must be >= 1")
    if max_leaves < 1:
        raise InputError("need room for at least one leaf")
    core = _Semantics(palette)
    segments = []  # (fragment, its state)
    for i in range(rng.randint(1, max_leaves)):
        leaf = Leaf(f"v{i}", rng.randint(1, palette))
        segments.append((leaf, core.step(LEAF, leaf.vertex, leaf.color, ())[0]))

    def merge_two():
        i, j = rng.sample(range(len(segments)), 2)
        (left, left_state), (right, right_state) = segments[i], segments[j]
        for idx in sorted((i, j), reverse=True):
            del segments[idx]
        node = Union(left, right)
        segments.append((node, core.step(UNION, None, None, (left_state, right_state))[0]))

    def try_mutate(idx: int) -> bool:
        node, state = segments[idx]
        used = sorted(state)
        if rng.choice(("join", "join", "recolor")) == "join":
            cands = [(a, b) for i, a in enumerate(used) for b in used[i + 1:]
                     if next(core.new_edges(state, a, b), None) is not None]
            if not cands:
                return False
            a, b = rng.choice(cands)
            if rng.random() < 0.5:
                a, b = b, a
            kind, node = JOIN, Join(a, b, node)
        else:
            cands = [(a, b) for a in used for b in used if a != b]
            if not cands:
                return False
            a, b = rng.choice(cands)
            kind, node = RECOLOR, Recolor(a, b, node)
        segments[idx] = (node, core.step(kind, a, b, (state,))[0])
        return True

    while len(segments) > 1:
        move = rng.choices(("union", "mutate"), weights=(2, 3))[0]
        if move == "mutate":
            if not try_mutate(rng.randrange(len(segments))):
                merge_two()
        else:
            merge_two()
    for _ in range(rng.randint(1, 5)):
        if not try_mutate(0):
            break
    return CwExpr(palette, segments[0][0])


def generate_corpus(seed: int, count: int, max_palette: int, max_leaves: int):
    """A deterministic list of strict expressions for the given seed."""
    if count < 0:
        raise InputError("count must be >= 0")
    if max_palette < 1 or max_leaves < 1:
        raise InputError("palette and leaf limits must be >= 1")
    rng = random.Random(seed)
    return [random_strict_expr(rng, rng.randint(1, max_palette), max_leaves)
            for _ in range(count)]
