"""Quasi-isometry maps, their exhaustive checks, and the projection certificate.

A map f between graphs is a c-quasi-isometry when for all x, y

    dist(x, y)/c - c  <=  dist(f(x), f(y))  <=  c * dist(x, y) + c

and every target vertex is within distance c of the image.  Infinite
distances must match: a pair may be disconnected on both sides or neither.
The tight projection bounds r/(c+1) - 1 <= r' <= r have the same shape, so
both are windows of one scan over the source pairs: one source BFS row per
vertex, folded into its distinct (r, r') pairs and searched pair by pair only
where one breaks a bound; O(n * (n + m)) time, O(n + |image|*|target|) memory.

Projections take the projection lemma's certificate (_lemma) instead: it costs
O(|V| + |E|) plus the fibres' weak diameters, and the scan runs only if it fails
or when qi-check asks for the exact margins.  _verify_projection alone decides a
projection for qi-check, corpus and check_partqi_tight; _bounds_witness, any map.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .errors import InputError
from .graphs import (Graph, INFINITE, Partition, _distance_row, _is_vertex_id, _positions,
                     _known, quotient, weak_diameter)
from .records import Record, _set


class QiMap(Record):
    """A vertex map between two graphs with a claimed parameter c."""

    __slots__ = ("source", "target", "mapping", "c")

    def __init__(self, source: Graph, target: Graph, mapping: Mapping, c: float):
        if not math.isfinite(c) or c <= 0:
            raise InputError(f"quasi-isometry parameter must be positive and finite, got {c}")
        mapping = dict(mapping)
        if set(mapping) != set(source.vertices):
            raise InputError("map must be defined on exactly the source vertices")
        for v, w in mapping.items():
            if not target.has_vertex(w):
                raise InputError(f"map sends {v!r} to unknown target vertex {w!r}")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "mapping", mapping)
        _set(self, "c", c)

    def __call__(self, v):
        return self.mapping[v]

    def with_c(self, c: float) -> "QiMap":
        """The same map reinterpreted at a weaker (larger) parameter."""
        return QiMap(self.source, self.target, self.mapping, float(c))


def projection_map(g: Graph, p: Partition, c: float | None = None) -> QiMap:
    """Project g onto its quotient by p.

    The default parameter is one more than D, the largest weak diameter of a
    part, which the projection provably achieves; refused if D is infinite.
    """
    if c is None:
        c = _part_width(g, p) + 1
    q, proj = quotient(g, p)
    return QiMap(g, q, proj, c)


def _part_width(g: Graph, p: Partition):
    """D, the largest weak diameter of a part, in p's order (a one-vertex part's 0 is not
    measured, only its vertex looked up); refused if infinite."""
    d = max(weak_diameter(g, s) if len(s) > 1 else 0 * len(_known(g, s)) for _, s in p)
    if d == INFINITE:
        raise InputError("a part has infinite weak diameter (spans components)")
    return d


def _finite_or_none(x):
    """Strict JSON has no infinities: an unbounded or empty margin is null."""
    return x if math.isfinite(x) else None


def _window(m: QiMap, *windows) -> tuple:
    """Scan every source pair x < y against each window r/a - b <= r' <= g*r + d.

    r and r' are the distances of x, y and of their images.  Returns, per
    window (a, b, g, d), the worst lower and upper margins, max of
    r/a - b - r' and r' - g*r - d over the pairs with both finite, then the
    first pair violating the lower bound, the upper bound, and either.  A
    pair with exactly one of r, r' infinite violates the bound that the
    infinity breaks.

    A margin depends on (r, r') alone, so each row is folded into the pairs no
    earlier row held (an earlier pair that broke a bound gave its witness then),
    and searched pair by pair only when one breaks a bound still without one.
    """
    vs, pos = m.source.vertices, _positions(m.target)
    image = [pos[m.mapping[x]] for x in vs]  # target index of each source vertex's image
    rows = {w: _distance_row(m.target, [w]) for w in set(image)}  # one per image vertex
    seen = set()  # the (r, r') pairs folded so far
    found = [[-INFINITE, -INFINITE, None, None, None] for _ in windows]
    for i, x in enumerate(vs):
        pairs = list(zip(_distance_row(m.source, [i])[i + 1:],
                         map(rows[image[i]].__getitem__, image[i + 1:])))
        new = set(pairs) - seen
        seen |= new
        for (a, b, g, d), out in zip(windows, found):
            bad = set()  # (r, r', k): a new pair that breaks bound k, still without a witness
            for r, rp in new:
                if r < INFINITE and rp < INFINITE:  # its margins count even if they overflow
                    lo, up = r / a - b - rp, rp - g * r - d
                    out[:2] = max(out[0], lo), max(out[1], up)
                    breaks = lo > 0, up > 0
                else:  # a lone infinity breaks the bound on its side
                    breaks = rp < INFINITE, r < INFINITE
                bad |= {(r, rp, k) for k in (0, 1) if breaks[k] and out[k + 2] is None}
            if bad:
                js = [next((j for j, p in enumerate(pairs) if (*p, k) in bad), len(pairs))
                      for k in (0, 1)]
                for k, j in enumerate(js + [min(js)], 2):
                    if j < len(pairs) and out[k] is None:
                        r, rp = pairs[j]
                        out[k] = (x, vs[i + 1 + j], "one side disconnected, the other not"
                                  if INFINITE in (r, rp) else f"dist {r} maps to {rp}")
    return tuple(map(tuple, found))


class QiReport(Record):
    """Outcome of check_qi with the worst slack seen on each bound.

    With lower_is_bound, worst_lower_margin is the projection lemma's upper
    bound on that margin, not the margin itself (_verify_projection).
    """

    __slots__ = ("c", "bounds_ok", "bounds_witness", "density_ok", "density_witness",
                 "worst_lower_margin", "worst_upper_margin", "density_worst", "lower_is_bound")

    def __init__(self, c: float, bounds_ok: bool, bounds_witness: tuple | None,
                 density_ok: bool, density_witness: object, worst_lower_margin: float,
                 worst_upper_margin: float, density_worst: float, lower_is_bound: bool = False):
        _set(self, "c", c)
        _set(self, "bounds_ok", bounds_ok)
        _set(self, "bounds_witness", bounds_witness)
        _set(self, "density_ok", density_ok)
        _set(self, "density_witness", density_witness)
        _set(self, "worst_lower_margin", worst_lower_margin)
        _set(self, "worst_upper_margin", worst_upper_margin)
        _set(self, "density_worst", density_worst)
        _set(self, "lower_is_bound", lower_is_bound)

    @property
    def ok(self) -> bool:
        return self.bounds_ok and self.density_ok

    def to_json_dict(self) -> dict:
        num = _finite_or_none
        lower = "lower_margin_bound" if self.lower_is_bound else "worst_lower_margin"
        return {
            "ok": self.ok,
            "c": self.c,
            "distance_bounds": {"ok": self.bounds_ok,
                                "witness": list(self.bounds_witness) if self.bounds_witness else None,
                                lower: num(self.worst_lower_margin),
                                "worst_upper_margin": num(self.worst_upper_margin)},
            "density": {"ok": self.density_ok,
                        "witness": self.density_witness,
                        "worst": num(self.density_worst)},
        }


def _qi_report(m: QiMap, worst_lower, worst_upper, _lo, _up, witness) -> QiReport:
    """check_qi's report from m's (c, c, c, c) window scan, plus density."""
    pos = _positions(m.target)  # one BFS from the image: distance is symmetric
    gaps = _distance_row(m.target, {pos[w] for w in m.mapping.values()})
    far = [w for w, gap in zip(m.target.vertices, gaps) if gap > m.c]
    return QiReport(m.c, witness is None, witness, not far, far[0] if far else None,
                    worst_lower, worst_upper, max([0] + gaps))


def check_qi(m: QiMap) -> QiReport:
    """Exhaustive check of both quasi-isometry conditions.

    Margins are how far inside the allowed window the worst pair sits
    (positive means violated): lower margin is max of
    dist(x,y)/c - c - dist(fx,fy), upper margin is max of
    dist(fx,fy) - c*dist(x,y) - c.
    """
    return _qi_report(m, *_window(m, (m.c,) * 4)[0])


def _fibres(source: Graph, f: Mapping) -> dict:
    """Image vertex -> the source vertices that f sends to it, in source order."""
    out = {}
    for v in source.vertices:
        out.setdefault(f[v], []).append(v)
    return out


def _lemma(source: Graph, target: Graph, f: Mapping, c, d=None) -> dict:
    """The projection lemma's certificate for the map f at parameter c.

    The premises, checked from scratch: f is "onto", and its source edges
    between two fibres land on exactly the target's edges.  D, the largest
    weak diameter of a fibre f^-1(w), is measured on the fibres of two or
    more vertices unless the caller did so on the same sets.  It "applied"
    if both hold and c >= D + 1 (_bounds_witness).
    """
    fibres = _fibres(source, f)
    crossing = {(f[u], f[v]) if f[u] < f[v] else (f[v], f[u])
                for u, v in source.edges if f[u] != f[v]}
    if d is None:
        d = max((weak_diameter(source, s) for s in fibres.values() if len(s) > 1), default=0)
    onto, exact = len(fibres) == len(target), crossing == set(target.edges)
    return {"D": d, "onto": onto, "crossing_edges_exact": exact,
            "c_at_least_D_plus_1": c >= d + 1, "applied": onto and exact and c >= d + 1}


def _bounds_witness(m: QiMap):
    """check_qi(m).bounds_witness, certified by the projection lemma when it applies.

    Take D from _lemma.  A source path of length r maps to a walk of at most
    r target edges, so r' <= r.  A target path P_0 ... P_r' from f(x) to
    f(y) lifts, through source edges hitting its edges, to r' crossing edges
    plus at most D steps inside each of its r' + 1 fibres, so
    r <= (D+1)*r' + D.  So r is infinite exactly when r' is, and for
    c >= D + 1 (so c >= 1), r <= c*r' + c*c and r' <= r <= c*r + c: there is
    no witness.  The same bounds give check_partqi_tight's window at its c = D,
    and an onto map has density 0.  Otherwise the exact scan decides.
    """
    if _lemma(m.source, m.target, m.mapping, m.c)["applied"]:
        return None
    return _window(m, (m.c,) * 4)[0][4]


class PartitionQiReport(Record):
    """Outcome of the tight projection bounds r/(c+1) - 1 <= r' <= r.

    With lower_is_bound, worst_lower_margin is the projection lemma's upper
    bound on that margin (_verify_projection).
    """

    __slots__ = ("c", "lower_ok", "lower_witness", "upper_ok", "upper_witness",
                 "worst_lower_margin", "worst_upper_margin", "lower_is_bound")

    def __init__(self, c: float, lower_ok: bool, lower_witness: tuple | None, upper_ok: bool,
                 upper_witness: tuple | None, worst_lower_margin: float,
                 worst_upper_margin: float, lower_is_bound: bool = False):
        _set(self, "c", c)
        _set(self, "lower_ok", lower_ok)
        _set(self, "lower_witness", lower_witness)
        _set(self, "upper_ok", upper_ok)
        _set(self, "upper_witness", upper_witness)
        _set(self, "worst_lower_margin", worst_lower_margin)
        _set(self, "worst_upper_margin", worst_upper_margin)
        _set(self, "lower_is_bound", lower_is_bound)

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    def to_json_dict(self) -> dict:
        lower = "margin_bound" if self.lower_is_bound else "worst_margin"
        return {
            "ok": self.ok,
            "c": self.c,
            "lower": {"ok": self.lower_ok,
                      "witness": list(self.lower_witness) if self.lower_witness else None,
                      lower: _finite_or_none(self.worst_lower_margin)},
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
    return _verify_projection(g, p, exhaustive=True)[0]


def _verify_projection(g: Graph, p: Partition, qi_c=None, exhaustive=False) -> tuple:
    """(tight, qi, certificate): check_partqi_tight(g, p), check_qi of the
    projection at qi_c (default D + 1), and the projection lemma's certificate.

    D is measured once, on the parts and before the quotient's cover check, so
    a foreign vertex or a part spanning components is named first.  If the
    certificate applies and exhaustive is false, no pair is scanned (see
    _bounds_witness): r <= (D+1)*r' + D bounds the lower margins by D/c - c
    and -1/(D+1), which the reports carry as bounds; r' <= r with c >= 1 puts
    the worst upper margin r' - c*r - c at r = 1, where r' = 1 if the target
    has an edge, and the tight one is 0, from x == y; an onto map has
    density 0.  Otherwise one scan gives both reports' exact margins.
    """
    d = _part_width(g, p)
    m = projection_map(g, p, d + 1 if qi_c is None else float(qi_c))
    certificate = _lemma(g, m.target, m.mapping, m.c, d)
    if exhaustive or not certificate["applied"]:
        (lo, up, lo_wit, up_wit, _), qi = _window(m, (d + 1, 1, 1, 0), (m.c,) * 4)
        # The pairs x == y, left out of the scan, give margins -1.0 and 0.
        tight = PartitionQiReport(d, lo_wit is None, lo_wit, up_wit is None, up_wit,
                                  max(-1.0, lo), max(0, up))
        return tight, _qi_report(m, *qi), certificate
    # the scan's own expression at r = 1; with no edge, no pair at a finite distance
    upper = (1 if m.target.edges else 0) - m.c * 1 - m.c if g.edges else -INFINITE
    tight = PartitionQiReport(d, True, None, True, None, -1 / (d + 1), 0, True)
    qi = QiReport(m.c, True, None, True, None, d / m.c - m.c, upper, 0, True)
    return tight, qi, certificate


# ---------------------------------------------------------------- interop

def qimap_from_json_dict(obj: Mapping, source: Graph, target: Graph) -> QiMap:
    try:
        if not isinstance(raw := obj["f"], dict):  # dict() would read a list of pairs
            raise TypeError(f"f must be an object, not a {type(raw).__name__}")
        if isinstance(obj["c"], bool) or not isinstance(obj["c"], (int, float)):
            raise TypeError(f"c must be a number, not {obj['c']!r}")  # float() reads true and "2"
        c = float(obj["c"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an int too big for a float
        raise InputError(f"malformed quasi-isometry map object: {exc}") from None
    # JSON object keys are strings even when vertex ids are not
    by_str = {str(v): v for v in source.vertices}
    to_str = {str(w): w for w in target.vertices}
    mapping = {}
    for key, val in raw.items():
        if key not in by_str:
            raise InputError(f"map key {key!r} is not a source vertex")
        if not _is_vertex_id(val):
            raise InputError(f"map sends {key!r} to {val!r}, which is not a vertex id")
        mapping[by_str[key]] = to_str.get(str(val), val)
    return QiMap(source, target, mapping, c)
