"""Quasi-isometry maps and their exhaustive checks.

A map f between graphs is a c-quasi-isometry when for all x, y

    dist(x, y)/c - c  <=  dist(f(x), f(y))  <=  c * dist(x, y) + c

and every target vertex is within distance c of the image.  Infinite
distances must match: a pair may be disconnected on both sides or neither.
All checks below are exhaustive over vertex pairs, which is fine at the
sizes this library works at.
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
        worst = max(weak_diameter(g, members) for _, members in p)
        c = worst + 1
    return QiMap(g, q, proj, c)


def _finite_or_none(x):
    """Strict JSON has no infinities: an unbounded or empty margin is null."""
    return x if math.isfinite(x) else None


def _all_pairs(g: Graph) -> dict:
    return {v: bfs_distances(g, [v]) for v in g.vertices}


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
    sdist = _all_pairs(m.source)
    tdist = _all_pairs(m.target)
    vs = m.source.vertices

    bounds_ok, witness = True, None
    worst_lower = -INFINITE
    worst_upper = -INFINITE
    for i, x in enumerate(vs):
        dx = sdist[x]
        for y in vs[i + 1:]:
            r = dx.get(y, INFINITE)
            rp = tdist[m(x)].get(m(y), INFINITE)
            if r == INFINITE or rp == INFINITE:
                if r != rp and bounds_ok:
                    bounds_ok = False
                    witness = (x, y, "one side disconnected, the other not")
                continue
            lower = r / c - c - rp
            upper = rp - c * r - c
            worst_lower = max(worst_lower, lower)
            worst_upper = max(worst_upper, upper)
            if (lower > 0 or upper > 0) and bounds_ok:
                bounds_ok = False
                witness = (x, y, f"dist {r} maps to {rp}")

    image = {m(v) for v in vs}
    density_ok, dwitness, dworst = True, None, 0
    for w in m.target.vertices:
        dw = bfs_distances(m.target, [w])
        near = min((dw[x] for x in image if x in dw), default=INFINITE)
        dworst = max(dworst, near)
        if near > c and density_ok:
            density_ok = False
            dwitness = w
    return QiReport(c, bounds_ok, witness, density_ok, dwitness,
                    worst_lower, worst_upper, dworst)


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
    diameters = [weak_diameter(g, members) for _, members in p]
    c = max(diameters)
    if c == INFINITE:
        raise InputError("a part has infinite weak diameter (spans components)")
    q, proj = quotient(g, p)
    qdist = _all_pairs(q)
    vs = g.vertices

    lower_ok = upper_ok = True
    lower_wit = upper_wit = None
    worst_lower = worst_upper = -INFINITE
    for i, x in enumerate(vs):
        dx = bfs_distances(g, [x])
        for y in vs[i:]:
            r = dx.get(y, INFINITE)
            if r == INFINITE:
                continue
            rp = qdist[proj[x]].get(proj[y], INFINITE)
            if rp == INFINITE:
                lower_ok, lower_wit = False, (x, y, "quotient disconnects the pair")
                continue
            lo = r / (c + 1) - 1 - rp
            up = rp - r
            worst_lower = max(worst_lower, lo)
            worst_upper = max(worst_upper, up)
            if lo > 0 and lower_ok:
                lower_ok, lower_wit = False, (x, y, f"dist {r} maps to {rp}")
            if up > 0 and upper_ok:
                upper_ok, upper_wit = False, (x, y, f"dist {r} maps to {rp}")
    return PartitionQiReport(c, lower_ok, lower_wit, upper_ok, upper_wit,
                             worst_lower, worst_upper)


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
        mapping[by_str[key]] = to_str.get(str(val), val)
    return QiMap(source, target, mapping, c)
