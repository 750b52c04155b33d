"""Quasi-isometry maps and their exhaustive checks.

A map f between graphs is a c-quasi-isometry when for all x, y

    dist(x, y)/c - c  <=  dist(f(x), f(y))  <=  c * dist(x, y) + c

and every target vertex is within distance c of the image.  Infinite
distances must match: a pair may be disconnected on both sides or neither.
The tight projection bounds r/(c+1) - 1 <= r' <= r have the same shape, so
both checks run one window scan over the source pairs.  It keeps one source
BFS row at a time and one target row per image vertex, O(n + |image|*|target|)
memory, and density is one multi-source BFS from the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Mapping

from .errors import InputError
from .graphs import (Graph, INFINITE, Partition, bfs_distances, quotient,
                     weak_diameter)


@dataclass(frozen=True)
class QiMap:
    """A vertex map between two graphs with a claimed parameter c."""

    source: Graph
    target: Graph
    mapping: Mapping
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c <= 0:
            raise InputError(f"quasi-isometry parameter must be positive and finite, "
                             f"got {self.c}")
        object.__setattr__(self, "mapping", dict(self.mapping))
        if set(self.mapping) != set(self.source.vertices):
            raise InputError("map must be defined on exactly the source vertices")
        for v, w in self.mapping.items():
            if not self.target.has_vertex(w):
                raise InputError(f"map sends {v!r} to unknown target vertex {w!r}")

    def __call__(self, v):
        return self.mapping[v]

    def with_c(self, c: float) -> "QiMap":
        """The same map reinterpreted at a weaker (larger) parameter."""
        return replace(self, c=float(c))


def projection_map(g: Graph, p: Partition, c: float | None = None) -> QiMap:
    """Project g onto its quotient by p.

    The default parameter is one more than the largest weak diameter of a
    part, which is what the projection provably achieves.
    """
    q, proj = quotient(g, p)
    if c is None:
        c = max(weak_diameter(g, members) for _, members in p) + 1
    return QiMap(g, q, proj, c)


def _finite_or_none(x):
    """Strict JSON has no infinities: an unbounded or empty margin is null."""
    return x if math.isfinite(x) else None


def _window(m: QiMap, a, b, g, d) -> tuple:
    """Scan every source pair x < y against r/a - b <= r' <= g*r + d.

    r and r' are the distances of x, y and of their images.  Returns the
    worst lower and upper margins, max of r/a - b - r' and r' - g*r - d over
    the pairs with both finite, then the first pair violating the lower
    bound, the upper bound, and either.  A pair with exactly one of r, r'
    infinite violates the bound that the infinity breaks.
    """
    f, vs = m.mapping, m.source.vertices
    rows = {}  # image vertex -> its target BFS row
    worst_lo = worst_up = -INFINITE
    witnesses = [None, None, None]
    for i, x in enumerate(vs):
        dx = bfs_distances(m.source, [x])
        tx = rows.get(f[x])
        if tx is None:
            tx = rows[f[x]] = bfs_distances(m.target, [f[x]])
        for y in vs[i + 1:]:
            r, rp = dx.get(y, INFINITE), tx.get(f[y], INFINITE)
            if r == INFINITE or rp == INFINITE:
                if r == rp:
                    continue
                hits, why = (r == INFINITE, rp == INFINITE), "one side disconnected, the other not"
            else:
                lo, up = r / a - b - rp, rp - g * r - d
                worst_lo, worst_up = max(worst_lo, lo), max(worst_up, up)
                if lo <= 0 and up <= 0:
                    continue
                hits, why = (lo > 0, up > 0), f"dist {r} maps to {rp}"
            for k, hit in enumerate(hits + (True,)):
                if hit and witnesses[k] is None:
                    witnesses[k] = (x, y, why)
    return (worst_lo, worst_up, *witnesses)


@dataclass(frozen=True)
class QiReport:
    """Outcome of check_qi with the worst slack seen on each bound."""

    c: float
    bounds_ok: bool
    bounds_witness: tuple | None
    density_ok: bool
    density_witness: object
    worst_lower_margin: float
    worst_upper_margin: float
    density_worst: float

    @property
    def ok(self) -> bool:
        return self.bounds_ok and self.density_ok

    def to_json_dict(self) -> dict:
        num = _finite_or_none
        return {
            "ok": self.ok,
            "c": self.c,
            "distance_bounds": {"ok": self.bounds_ok,
                                "witness": list(self.bounds_witness) if self.bounds_witness else None,
                                "worst_lower_margin": num(self.worst_lower_margin),
                                "worst_upper_margin": num(self.worst_upper_margin)},
            "density": {"ok": self.density_ok,
                        "witness": self.density_witness,
                        "worst": num(self.density_worst)},
        }


def check_qi(m: QiMap) -> QiReport:
    """Exhaustive check of both quasi-isometry conditions.

    Margins are how far inside the allowed window the worst pair sits
    (positive means violated): lower margin is max of
    dist(x,y)/c - c - dist(fx,fy), upper margin is max of
    dist(fx,fy) - c*dist(x,y) - c.
    """
    c = m.c
    worst_lower, worst_upper, _, _, witness = _window(m, c, c, c, c)
    near = bfs_distances(m.target, set(m.mapping.values()))  # one BFS: distance is symmetric
    gaps = [near.get(w, INFINITE) for w in m.target.vertices]
    far = [w for w, gap in zip(m.target.vertices, gaps) if gap > c]
    return QiReport(c, witness is None, witness, not far, far[0] if far else None,
                    worst_lower, worst_upper, max([0] + gaps))


@dataclass(frozen=True)
class PartitionQiReport:
    """Outcome of the tight projection bounds r/(c+1) - 1 <= r' <= r."""

    c: float
    lower_ok: bool
    lower_witness: tuple | None
    upper_ok: bool
    upper_witness: tuple | None
    worst_lower_margin: float
    worst_upper_margin: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "c": self.c,
            "lower": {"ok": self.lower_ok,
                      "witness": list(self.lower_witness) if self.lower_witness else None,
                      "worst_margin": _finite_or_none(self.worst_lower_margin)},
            "upper": {"ok": self.upper_ok,
                      "witness": list(self.upper_witness) if self.upper_witness else None,
                      "worst_margin": _finite_or_none(self.worst_upper_margin)},
        }


def check_partqi_tight(g: Graph, p: Partition) -> PartitionQiReport:
    """Verify the projection bounds with c = the largest part weak diameter.

    For every finite-distance pair x, y with quotient distance r',
    r/(c+1) - 1 <= r' <= r must hold.  Parts spanning several components
    have infinite weak diameter and are rejected.
    """
    c = max(weak_diameter(g, members) for _, members in p)
    if c == INFINITE:
        raise InputError("a part has infinite weak diameter (spans components)")
    # The pairs x == y, left out of the scan, give margins -1.0 and 0.
    lo, up, lo_wit, up_wit, _ = _window(projection_map(g, p, c + 1), c + 1, 1, 1, 0)
    return PartitionQiReport(c, lo_wit is None, lo_wit, up_wit is None, up_wit,
                             max(-1.0, lo), max(0, up))


# ---------------------------------------------------------------- interop

def qimap_to_json_dict(m: QiMap) -> dict:
    return {"f": {str(v): m.mapping[v] for v in m.source.vertices}, "c": m.c}


def qimap_from_json_dict(obj: Mapping, source: Graph, target: Graph) -> QiMap:
    try:
        raw = dict(obj["f"])
        c = float(obj["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed quasi-isometry map object: {exc}") from None
    # JSON object keys are strings even when vertex ids are not
    by_str = {str(v): v for v in source.vertices}
    to_str = {str(w): w for w in target.vertices}
    mapping = {}
    for key, val in raw.items():
        if key not in by_str:
            raise InputError(f"map key {key!r} is not a source vertex")
        if isinstance(val, (list, dict)):  # the JSON values that cannot be vertex ids
            raise InputError(f"map sends {key!r} to {val!r}, which is not a vertex id")
        mapping[by_str[key]] = to_str.get(str(val), val)
    return QiMap(source, target, mapping, c)
