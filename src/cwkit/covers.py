"""Scaled covers and their transport along a quasi-isometric embedding.

A cover family at scale r groups subsets of a graph's vertices into
collections; sets in one collection must sit strictly more than r apart,
and every set must have small weak diameter.  Pulling such a family back
through a distance-respecting map yields a family of the same shape at a
linearly rescaled scale and diameter bound, at the slope the target cover's own
bound fixes (_least_slope).  The pullback checks its inputs: the map's distance
bounds, certified by the projection lemma in linear time when the map is a
projection and scanned pair by pair otherwise (quasiiso._bounds_witness), and
the target cover.  validate_cover is the one check of the cover it returns.
The pullback needs a checked bound on the target sets, not their exact width,
so cover_by_components claims each component's one-search bound.
"""

from __future__ import annotations

import math
import sys

from .errors import InputError
from .graphs import (INFINITE, Graph, _closest_sets, _diameter_bound, _is_vertex_id,
                     connected_components, weak_diameter)
from .quasiiso import QiMap, _bounds_witness, _fibres
from .records import Record, _set
from .treedecomp import VerificationReport, _verdict


class CoverFamily(Record):
    """Collections of vertex sets, with the scale and bound they claim."""

    __slots__ = ("collections", "r", "diameter_bound")

    def __init__(self, collections: tuple, r: float, diameter_bound: float):
        canon = tuple(tuple(sorted((frozenset(s) for s in coll), key=sorted))
                      for coll in collections)
        for coll in canon:
            for s in coll:
                if not s:
                    raise InputError("cover sets must be nonempty")
        for what, x in (("scale", r), ("diameter bound", diameter_bound)):
            if isinstance(x, bool) or not isinstance(x, (int, float)) or x != x:
                raise InputError(f"cover {what} must be a number, "
                                 f"got {'NaN' if x != x else repr(x)}")
            if x < 0:
                raise InputError(f"cover {what} must be >= 0, got {x}")
        _set(self, "collections", canon)
        _set(self, "r", r)
        _set(self, "diameter_bound", diameter_bound)

    @property
    def n(self) -> int:
        return len(self.collections) - 1

    def all_sets(self):
        for coll in self.collections:
            yield from coll


def validate_cover(g: Graph, cf: CoverFamily) -> VerificationReport:
    """Check coverage, strict separation at scale r, and the diameter bound.

    Separation is one labelled search per collection (graphs._closest_sets),
    and its witness is the least distance between two of the collection's
    sets, 0 when two of them overlap.  A set whose least member has
    eccentricity e in it has weak diameter at most 2e, so one BFS passes it
    when 2e is within the bound; only a set it does not pass is measured
    exactly, and a failure names that diameter.
    """
    covered = set()
    for s in cf.all_sets():
        for v in s:
            if not g.has_vertex(v):
                raise InputError(f"cover mentions unknown vertex {v!r}")
        covered |= s
    missing = sorted(set(g.vertices) - covered)

    def too_close():
        for idx, coll in enumerate(cf.collections):
            if len(coll) > 1 and (d := _closest_sets(g, coll, cf.r)) <= cf.r:
                yield (f"collection {idx} has overlapping sets" if d == 0 else
                       f"collection {idx}: sets at distance {d} <= scale {cf.r}")

    def too_wide():
        for idx, coll in enumerate(cf.collections):
            for s in coll:
                if (_diameter_bound(g, s) > cf.diameter_bound
                        and (d := weak_diameter(g, s)) > cf.diameter_bound):
                    yield (f"collection {idx}: set of size {len(s)} has weak "
                           f"diameter {d} > bound {cf.diameter_bound}")

    return VerificationReport((
        _verdict("coverage", [f"uncovered vertices {missing[:5]}"] if missing else []),
        _verdict("separation", too_close()),
        _verdict("diameter", too_wide())))


def cover_by_components(g: Graph, r) -> CoverFamily:
    """The one-collection cover by connected components, at scale r, bounded by 2e, e the
    eccentricity of a component's least member (_diameter_bound): within twice the widest
    one's weak diameter, and passed by the same search in validate_cover."""
    comps = connected_components(g)
    return CoverFamily((tuple(comps),), r, max((_diameter_bound(g, s) for s in comps), default=0))


def _target_scale(c, r):
    """c*r + c, the target scale at pullback scale r; InputError unless r >= 1, both finite."""
    if not math.isfinite(r):
        raise InputError(f"pullback scale must be finite, got {r}")
    if r < 1:
        raise InputError("pullback scale must be >= 1")
    if not math.isfinite(r_target := c * r + c):
        raise InputError(f"target scale c*r + c must be finite, got {r_target} at c={c}")
    return r_target


def _least_slope(bound, r_target):
    """The least s >= 1 with s * r_target >= bound; InputError if bound is no finite float."""
    if not abs(bound) <= sys.float_info.max:  # refuses inf, and an int too large for a float
        raise InputError(f"target cover bound must be a finite float, got {bound}")
    slope = max(1.0, bound / r_target)
    if slope * r_target < bound:  # the quotient rounded down: the next float is enough
        slope = math.nextafter(slope, math.inf)
    return slope


def pullback_cover(f: QiMap, cover: CoverFamily, r) -> CoverFamily:
    """Pull a cover of f's target back to f's source at scale r.

    The given collections must cover the target at scale c*r + c, finite, with
    every set's weak diameter at most slope*(c*r + c), slope the least >= 1 for
    which that bounds cover.diameter_bound.  Preimages of the sets (empty ones
    dropped) then cover the source at scale r, with the bound c*slope*(2*c*r) +
    c*c*r, which must be finite.  Only the inputs are checked here: once they
    pass, f's bounds carry coverage, separation and each set's diameter to the
    preimages, and validate_cover checks the result without trusting this.
    """
    c = f.c
    r_target = _target_scale(c, r)
    slope = _least_slope(cover.diameter_bound, r_target)
    if not math.isfinite(bound := c * (slope * (2 * c * r)) + c * c * r):
        raise InputError(f"pulled bound c*slope*(2*c*r) + c*c*r must be finite, "
                         f"got {bound} at c={c}")
    if (witness := _bounds_witness(f)) is not None:
        raise InputError(f"map violates the distance bounds at c={c}: {witness}")
    target_report = validate_cover(
        f.target, CoverFamily(cover.collections, r_target, slope * r_target))
    if not target_report.ok:
        bad = target_report.failed()[0]
        raise InputError(f"cover fails on the target at scale {r_target}: "
                         f"{bad.name}: {bad.witness}")

    fibres = _fibres(f.source, f.mapping)
    pulled = []
    for coll in cover.collections:
        pres = (frozenset(x for w in s for x in fibres.get(w, ())) for s in coll)
        pulled.append(tuple(pre for pre in pres if pre))
    return CoverFamily(tuple(pulled), r, bound)


def _num_to_json(x):
    if isinstance(x, float) and math.isinf(x):
        return "infinite"
    return x


def cover_to_json_dict(cf: CoverFamily) -> dict:
    return {
        "n": cf.n,
        "r": _num_to_json(cf.r),
        "bound": _num_to_json(cf.diameter_bound),
        "collections": [[sorted(s) for s in coll] for coll in cf.collections],
    }


def cover_from_json_dict(obj) -> CoverFamily:
    try:
        sets = obj["collections"]  # a string or an object would pass as its characters or keys
        if not isinstance(sets, list) or not all(
                isinstance(coll, list) and all(isinstance(s, list) for s in coll) for coll in sets):
            raise TypeError("collections and their sets must be lists")
        collections = tuple(tuple(map(frozenset, coll)) for coll in sets)
        for v in (v for coll in sets for s in coll for v in s):
            if not _is_vertex_id(v):
                raise TypeError(f"vertex id {v!r} is a {type(v).__name__}")
        r, bound = (INFINITE if obj[key] == "infinite" else obj[key] for key in ("r", "bound"))
        return CoverFamily(collections, r, bound)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cover object: {exc}") from exc
