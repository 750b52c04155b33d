"""Command line front end.

Every subcommand reads files, runs the library, emits JSON (or DOT, or a
short human summary with --pretty) and exits 0 on success, 2 on malformed
input files, 3 on violated preconditions or failed verification, 4 when an
exact oracle refuses to run above its size cap.  main pauses the cyclic garbage
collector around each subcommand: nothing a command builds forms a reference
cycle, so reference counting frees it all.  Library calls leave it alone.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys

from .corpus import generate_corpus
from .covers import (_least_slope, _target_scale, cover_by_components, cover_from_json_dict,
                     cover_to_json_dict, pullback_cover, validate_cover)
from .decomposition import (_decompose, _decompose_cwx, result_to_dot, result_to_json_dict,
                            verify_result)
from .errors import ContractError, CwkitError, InputError, ParseError, SizeCapError
from .expressions import (_evaluate_text, evaluate, format_expr, normalize, read_cwx,
                          read_text, validate_strict, write_cwx)
from .generators import (build_minor_model, complete_graph, gen_path,
                         gen_spider, gen_subdivided_clique, model_to_json_dict,
                         subdivide)
from .graphs import graph_from_json_dict, graph_to_dot, graph_to_json_dict, quotient
from .quasiiso import (QiMap, _verify_projection, check_qi, projection_map,
                       qimap_from_json_dict)
from .treedecomp import _clique_minor_bound, brute_treewidth, width


def _dump(obj) -> str:
    """Strict JSON: a NaN or an infinity here is a bug, not output."""
    out = []
    try:
        try:
            _json(obj, "\n", out)
        except (KeyError, TypeError):  # what _json does not write, json.dumps writes or refuses
            return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ContractError(f"output is not strict JSON: {exc}") from None
    out.append("\n")
    return "".join(out)


def _finite(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise KeyError(x)  # json.dumps words the error


# What json.dumps writes for each scalar type; a subclass, say of int, is not looked up,
# and the str entry raises TypeError on a key of another type.
_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: _finite,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json(obj, newline: str, out: list) -> None:
    """Append to out the text json.dumps(obj, indent=2, sort_keys=True) gives obj after
    newline, a newline and the indent; KeyError or TypeError on a type it does not
    write.  One list joined once holds no second copy of a large value's text."""
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        return out.append(_SCALARS[kind](obj))
    opening, closing = "{}" if kind is dict else "[]"
    if not obj:
        return out.append(opening + closing)
    inner = newline + "  "
    keys = sorted(obj) if kind is dict else ()
    values = [obj[key] for key in keys] if keys else obj
    heads = [_SCALARS[str](key) + ": " for key in keys] or itertools.repeat("")
    texts = _flat(values, inner)
    if texts is not None:  # one join for the whole container
        texts = ("," + inner).join(map(str.__add__, heads, texts))
        return out.append(opening + inner + texts + newline + closing)
    sep = opening + inner
    for head, value in zip(heads, values):
        out.append(sep + head)
        _json(value, inner, out)
        sep = "," + inner
    out.append(newline + closing)


def _flat(values, newline: str):
    """values' texts after newline if they are scalars, or scalar lists, of one type; or None."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is not list and kind is not tuple:
        return map(_SCALARS[kind], values) if kind in _SCALARS else None
    kinds = set(map(type, itertools.chain.from_iterable(values))) or {str}  # all empty: any
    scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if scalar is None:
        return None
    inner, sep = newline + "  ", "," + newline + "  "
    return ["[" + inner + sep.join(map(scalar, v)) + newline + "]" if v else "[]" for v in values]


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, obj, lines) -> None:
    """The lines with --pretty, else obj as JSON; a str obj is JSON text already."""
    if getattr(args, "pretty", False):
        _write("".join(f"{line}\n" for line in lines), getattr(args, "out", None))
    else:
        _write(obj if isinstance(obj, str) else _dump(obj), getattr(args, "out", None))


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, a too long int
        raise ParseError(f"{path}: {exc}") from exc


def _load_graph(path):
    """A (graph, colors-or-None) pair from a .cwx or a graph JSON file."""
    if str(path).endswith(".cwx"):
        cg = _evaluate_text(read_text(path))
        return cg.graph, cg.colors
    return graph_from_json_dict(_load_json(path))


# ------------------------------------------------------------- subcommands

def cmd_eval(args) -> int:
    e = read_cwx(args.file)
    report = validate_strict(e)
    cg = evaluate(e)
    obj = {"k": e.k,
           "graph": graph_to_json_dict(cg.graph, cg.colors),
           "validation": report.to_json_dict()}
    _emit(args, obj, [f"k = {e.k}",
                      f"vertices = {len(cg.graph)}",
                      f"edges = {cg.graph.num_edges()}",
                      f"strict = {report.strict_valid}"])
    return 0


def cmd_decompose(args) -> int:
    if args.normalize:
        result, cg = _decompose(normalize(read_cwx(args.file)))
    else:
        result, cg = _decompose_cwx(args.file)
    report = verify_result(cg, result)
    if args.dot:
        _write(result_to_dot(result), args.out)
        return 0 if report.ok else 3
    obj = {"result": result_to_json_dict(result),
           "verification": report.to_json_dict()}
    lines = [f"parts = {len(result.partition)}",
             f"tree nodes = {len(result.tree.tree)}",
             f"width = {width(result.tree)}",
             f"verification = {'pass' if report.ok else 'FAIL'}"]
    if args.oracle:
        q, _ = quotient(cg.graph, result.partition)
        try:
            tw = brute_treewidth(q, cap=args.cap)
            obj["quotient_treewidth"] = tw
            lines.append(f"quotient treewidth = {tw}")
        except SizeCapError:
            obj["quotient_treewidth_lower_bound"] = bound = _clique_minor_bound(q)
            obj["oracle_note"] = ("exact oracle above its size cap; "
                                  "bound certified by a complete minor")
            lines.append(f"quotient treewidth >= {bound} (minor bound)")
    _emit(args, obj, lines)
    return 0 if report.ok else 3


def _parse_leg_lengths(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad leg list {text!r}: {exc}") from exc


def cmd_generate(args) -> int:
    if args.kind == "path":
        e = gen_path(args.x, args.y, args.length, args.palette,
                     args.x_color, args.y_color, args.inner_color)
    elif args.kind == "spider":
        legs = _parse_leg_lengths(args.legs)
        e = gen_spider(len(legs), legs)
    else:
        e = gen_subdivided_clique(args.n, args.times)
    _write(format_expr(e), args.out)
    return 0


def cmd_corpus(args) -> int:
    exprs = generate_corpus(args.seed, args.count, args.max_k, args.max_leaves)
    os.makedirs(args.out_dir, exist_ok=True)
    instances = []
    all_pass = True
    for i, e in enumerate(exprs):
        name = f"expr_{i:04d}.cwx"
        write_cwx(os.path.join(args.out_dir, name), e)
        result, cg = _decompose(e)
        report = verify_result(cg, result)
        tight, qi3, _ = _verify_projection(cg.graph, result.partition, 3.0)
        ok = report.ok and tight.ok and qi3.ok
        failed = [c.name for c in report.failed()]
        if not tight.ok:
            failed.append("tight_projection_bounds")
        if not qi3.ok:
            failed.append("qi_at_3")
        all_pass = all_pass and ok
        instances.append({"file": name, "k": e.k, "vertices": len(cg.graph),
                          "edges": cg.graph.num_edges(), "pass": ok,
                          "failed": failed})
    summary = {"seed": args.seed, "count": args.count, "max_k": args.max_k,
               "max_leaves": args.max_leaves, "all_pass": all_pass,
               "instances": instances}
    text = _dump(summary)
    with open(os.path.join(args.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    passed = sum(1 for item in instances if item["pass"])
    _emit(args, text, [f"{passed}/{len(instances)} instances pass",
                       f"written to {args.out_dir}"])
    return 0 if all_pass else 3


def cmd_qi_check(args) -> int:
    if args.map:
        if not (args.source and args.target):
            raise InputError("--map needs --source and --target graphs")
        src, _ = _load_graph(args.source)
        tgt, _ = _load_graph(args.target)
        m = qimap_from_json_dict(_load_json(args.map), src, tgt)
        if args.c is not None:
            m = m.with_c(args.c)
        rep = check_qi(m)
        obj = {"c": m.c, "qi": rep.to_json_dict()}
        _emit(args, obj, [f"c = {m.c}", f"qi = {'pass' if rep.ok else 'FAIL'}"])
        return 0 if rep.ok else 3
    if not args.file:
        raise InputError("give an expression file, or --map with --source/--target")
    partition, cg = _decompose_cwx(args.file, tree=False)
    tight, rep, certificate = _verify_projection(cg.graph, partition, args.c, args.exhaustive)
    obj = {"c": rep.c, "qi": rep.to_json_dict(),
           "tight_projection_bounds": tight.to_json_dict()}
    if not args.exhaustive:
        obj["certificate"] = certificate
    _emit(args, obj, [f"c = {rep.c}",
                      f"qi = {'pass' if rep.ok else 'FAIL'}",
                      f"tight bounds = {'pass' if tight.ok else 'FAIL'}"])
    return 0 if rep.ok and tight.ok else 3


def cmd_minor_model(args) -> int:
    h = complete_graph(args.n)
    host = subdivide(h, args.times)
    model = build_minor_model(h, QiMap(host, host, {v: v for v in host.vertices}, float(args.c)))
    _emit(args, model_to_json_dict(model),
          [f"pattern = K_{args.n}, {args.times}-subdivision ({len(host)} vertices)",
           f"branch sets = {len(model.branch_sets)}",
           f"edge paths = {len(model.edge_paths)}"])
    return 0


def cmd_cover_pullback(args) -> int:
    partition, cg = _decompose_cwx(args.file, tree=False)
    m = projection_map(cg.graph, partition)
    r_target = _target_scale(m.c, args.r)
    target_cover = (cover_from_json_dict(_load_json(args.cover)) if args.cover
                    else cover_by_components(m.target, r_target))
    if target_cover.r < r_target:  # a cover file's: the components cover is at r_target
        raise InputError(f"cover file scale {target_cover.r} is below the target scale "
                         f"c*r + c = {r_target}")
    pulled = pullback_cover(m, target_cover, args.r)
    revalidation = validate_cover(cg.graph, pulled)
    obj = {"c": m.c, "scale": args.r, "target_scale": r_target,
           "slope": _least_slope(target_cover.diameter_bound, r_target),
           "cover": cover_to_json_dict(pulled),
           "validation": revalidation.to_json_dict()}
    _emit(args, obj, [f"c = {m.c}",
                      f"collections = {len(pulled.collections)}",
                      f"bound = {pulled.diameter_bound}",
                      f"validation = {'pass' if revalidation.ok else 'FAIL'}"])
    return 0 if revalidation.ok else 3


def cmd_treewidth(args) -> int:
    g, _ = _load_graph(args.file)
    tw = brute_treewidth(g, cap=args.cap)
    _emit(args, {"treewidth": tw, "vertices": len(g)},
          [f"treewidth = {tw}", f"vertices = {len(g)}"])
    return 0


def cmd_export_dot(args) -> int:
    _write(graph_to_dot(*_load_graph(args.file)), args.out)
    return 0


# ------------------------------------------------------------------ parser

def _arg(*flags, **options) -> tuple:
    """The arguments of one add_argument call."""
    return flags, options


_COMMON = (_arg("--out", help="write output to this file instead of stdout"),)
_PRETTY = _arg("--pretty", action="store_true", help="human summary instead of JSON")

# name -> (help, handler, arguments), in the order the help lists them; a list of
# arguments is a group of which a call may give one
_COMMANDS = {
    "eval": ("evaluate an expression file to a coloured graph", cmd_eval, (_PRETTY, _arg("file"))),
    "decompose": ("partition, quotient tree decomposition, verification", cmd_decompose, (
        [_PRETTY, _arg("--dot", action="store_true", help="emit DOT instead of JSON")],
        _arg("file"),
        _arg("--normalize", action="store_true", help="repair a non-strict expression first"),
        _arg("--oracle", action="store_true",
             help="also compute the quotient's exact treewidth"),
        _arg("--cap", type=int, default=None, help="oracle size cap override"))),
    "generate": ("write a constructive witness expression", cmd_generate, (
        _arg("kind", choices=("path", "spider", "subdivided-clique")),
        _arg("--x", default="x", help="path: first endpoint name"),
        _arg("--y", default="y", help="path: last endpoint name"),
        _arg("--length", type=int, default=3, help="path: edge count"),
        _arg("--palette", type=int, default=3, help="path: colour count"),
        _arg("--x-color", type=int, default=1),
        _arg("--y-color", type=int, default=2),
        _arg("--inner-color", type=int, default=1),
        _arg("--legs", default="1,1,1", help="spider: comma-separated leg lengths"),
        _arg("--n", type=int, default=4, help="clique: branch vertex count"),
        _arg("--times", type=int, default=7, help="clique: subdivisions per edge"))),
    "corpus": ("seeded random expressions plus batch verification", cmd_corpus, (
        _PRETTY,
        _arg("--seed", type=int, required=True),
        _arg("--count", type=int, default=100),
        _arg("--max-k", type=int, default=5),
        _arg("--max-leaves", type=int, default=30),
        _arg("--out-dir", required=True))),
    "qi-check": ("check the quasi-isometry conditions", cmd_qi_check, (
        _PRETTY,
        _arg("file", nargs="?", help="expression file (projection pipeline)"),
        _arg("--c", type=float, default=None, help="parameter override"),
        _arg("--exhaustive", action="store_true",
             help="scan every pair for the exact worst margins (--map always does)"),
        _arg("--map", help="map JSON (needs --source and --target)"),
        _arg("--source", help="source graph for --map"),
        _arg("--target", help="target graph for --map"))),
    "minor-model": ("pull a clique minor model through an embedding", cmd_minor_model, (
        _PRETTY,
        _arg("--n", type=int, default=4, help="pattern clique size"),
        _arg("--times", type=int, default=7, help="subdivisions per edge"),
        _arg("--c", type=float, default=1.0))),
    "cover-pullback": ("pull a cover of the quotient back to the graph", cmd_cover_pullback, (
        _PRETTY,
        _arg("file"),
        _arg("--r", type=float, default=1.0, help="source scale (>= 1)"),
        _arg("--cover", help="target cover JSON (default: by components)"))),
    "treewidth": ("exact treewidth of a small graph", cmd_treewidth, (
        _PRETTY,
        _arg("file", help="graph JSON or .cwx file"),
        _arg("--cap", type=int, default=None, help="size cap override"))),
    "export-dot": ("DOT rendering of a graph JSON or expression file", cmd_export_dot,
                   (_arg("file"),)),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The cwkit parser; with only, it holds just that subcommand's subparser.

    main names the subcommand it runs, so a call pays for one subparser, not
    nine.  The top-level usage line names every subcommand either way, so
    help texts and error messages are the same.
    """
    parser = argparse.ArgumentParser(
        prog="cwkit",
        description="Build, verify, and export structures derived from "
                    "clique-width expressions.")
    # On the full build argparse derives this from the choices itself, and
    # a metavar would also rename the command in its choice errors.
    names = {"metavar": "{" + ",".join(_COMMANDS) + "}"} if only else {}
    sub = parser.add_subparsers(dest="command", required=True, **names)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)
            for item in _COMMON + arguments:
                group = p.add_mutually_exclusive_group() if isinstance(item, list) else p
                for flags, options in item if isinstance(item, list) else [item]:
                    group.add_argument(*flags, **options)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run argv's subcommand with the collector paused, then set back as the caller had it
    (argparse's parser, a call's one cyclic garbage, is built before).  The switch is
    process-wide: with two threads in main, one may re-enable it while the other runs,
    which costs speed, or, in a narrow race, leave it off after both return."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (CwkitError, OSError) as exc:  # an OSError: unreadable input or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 4 if isinstance(exc, SizeCapError) else 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
