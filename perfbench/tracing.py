"""Outside-in tracing of cwkit's layers.

The benchmark wraps cwkit's public functions from its own files: each
wrapper replaces the function in every cwkit module that holds it, so the
CLI's imports, intra-module calls and cross-module imports (for example
decomposition.validate_strict or covers.check_qi) all go through it.
Spans (name, start, end, parent) are kept in memory; a function's self time
is its spans' time minus the time their child spans cover.  uninstall()
puts every original back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc

#: The functions timed as layers, by module.  cli.main is the root span of
#: every invocation; its self time is CLI work outside any other layer.
LAYERS = {
    "expressions": ("parse", "format_expr", "evaluate", "validate_strict",
                    "normalize"),
    "decomposition": ("decompose", "verify_result"),
    "graphs": ("quotient", "is_dominated", "weak_diameter", "set_distance",
               "bfs_distances"),
    "quasiiso": ("projection_map", "check_qi", "check_partqi_tight"),
    "covers": ("cover_by_components", "validate_cover", "pullback_cover"),
    "generators": ("gen_path", "gen_spider", "gen_subdivided_clique",
                   "build_minor_model"),
    "corpus": ("generate_corpus",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

#: The two whole-AST walkers every expression pass goes through; counted,
#: not timed, so their time stays with the pass that called them.
AST_WALKERS = ("expressions.fold_postorder", "expressions.walk_with_paths")

#: Functions whose slope of log(self time) against log(input size) is
#: reported: the expression core, the verifiers and the CLI as a whole.
SLOPE_NAMES = ("expressions.parse", "expressions.format_expr",
               "expressions.evaluate", "expressions.validate_strict",
               "decomposition.decompose", "decomposition.verify_result",
               "graphs.quotient", "graphs.is_dominated", "graphs.bfs_distances",
               "quasiiso.check_qi", "quasiiso.check_partqi_tight", "cli.main")

#: Functions whose peak traced allocation per call is reported.
PEAK_NAMES = ("expressions.format_expr", "expressions.validate_strict",
              "decomposition.decompose", "quasiiso.check_qi",
              "quasiiso.check_partqi_tight")

MB = 1 << 20


def _cwkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cwkit" or name.startswith("cwkit."))]


class _Patch:
    """Replaces functions at every cwkit import site; undo() restores them."""

    def __init__(self):
        self._saved = []
        self._wrappers = []

    def wrap(self, qualname, make_wrapper):
        mod, fn = qualname.split(".")
        original = getattr(sys.modules[f"cwkit.{mod}"], fn)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._wrappers.append(wrapper)
        for module in _cwkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def undo(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        for module in _cwkit_modules():
            for attr, value in vars(module).items():
                if any(value is w for w in self._wrappers):
                    raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")
        self._wrappers.clear()


class Tracer:
    """Records a span per wrapped call, plus a few counters."""

    def __init__(self):
        # One entry per span in each list: name, start, end, parent index
        # (-1 for a root).  Flat lists of strings, floats and ints give the
        # cyclic garbage collector no new objects to track, so tracing does
        # not shift when it runs in the traced program.
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.ast_walks = 0
        self.parse_chars = 0
        self.qi_pairs = 0
        self._stack = []
        self._patch = _Patch()

    def install(self):
        for name in SPAN_NAMES:
            self._patch.wrap(name, functools.partial(self._span, name))
        for name in AST_WALKERS:
            self._patch.wrap(name, self._counted)

    def uninstall(self):
        self._patch.undo()

    def _span(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        on_parse = name == "expressions.parse"
        on_qi = name == "quasiiso.check_qi"

        def wrapper(*args, **kwargs):
            if on_parse:
                self.parse_chars += len(args[0])
            elif on_qi:
                # Pairs in the input, n(n-1)/2 over the source's vertices:
                # counted at the call, not inside check_qi's loop.
                n = len(args[0].source)
                self.qi_pairs += n * (n - 1) // 2
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.ast_walks += 1
            return fn(*args, **kwargs)
        return wrapper

    def totals(self):
        """name -> (self seconds, calls) over every recorded span."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in SPAN_NAMES}
        for (name, start, end, _), inner in zip(spans, child):
            out[name][0] += end - start - inner
            out[name][1] += 1
        return {name: tuple(v) for name, v in out.items()}


class PeakTracer:
    """Peak traced allocation of single calls, from a tracemalloc pass.

    Nested wrapped calls reset the tracemalloc peak, so each frame keeps the
    highest absolute peak its children reached and folds it in on exit.
    """

    def __init__(self):
        self.peak_bytes = {name: 0 for name in PEAK_NAMES}
        self._frames = []
        self._patch = _Patch()

    def install(self):
        tracemalloc.start()
        for name in PEAK_NAMES:
            self._patch.wrap(name, functools.partial(self._peak, name))

    def uninstall(self):
        self._patch.undo()
        tracemalloc.stop()

    def _peak(self, name, fn):
        frames = self._frames

        def wrapper(*args, **kwargs):
            base, outer_peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], outer_peak)
            tracemalloc.reset_peak()
            frame = [base, 0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                peak = max(tracemalloc.get_traced_memory()[1], frame[1])
                self.peak_bytes[name] = max(self.peak_bytes[name], peak - base)
                if frames:
                    frames[-1][1] = max(frames[-1][1], peak)
        return wrapper


def slope(full_s, half_s):
    """log2 of the time ratio between full and half input size; 0 if unmeasured."""
    if full_s <= 0 or half_s <= 0:
        return 0.0
    return math.log2(full_s / half_s)
