"""In-memory span tracer for the layers of wsh, kept outside the program.

The tracer wraps the public functions and methods of every ``wsh`` module
(plus the arithmetic special methods of its value classes) with a span
recorder, runs one command in-process, unwraps everything and writes what
it saw.  Methods are wrapped on their class and module-level functions in
every wsh namespace that holds them, so every call is seen, with one
exception: inside the integer-polynomial backend module the kernel's own
calls (``pgcd`` calling ``ppseudo_rem``) stay direct, and only calls into
the kernel through ``wsh._poly`` are spans.

A span is (name, start, end, parent).  When a span closes, its duration is
added to its function's inclusive time (outermost call only, so recursion
is not counted twice) and its self time -- the duration minus the time
covered by its direct child spans -- to its function's self time.  Code that is not wrapped (private helpers, ``fractions.Fraction``,
builtins) is therefore counted as self time of the nearest wrapped caller.

Spans of the scalar kernels (the ``poly`` and ``field`` layers) are
aggregated when they close instead of stored: a single exact command makes
millions of them.  Every other span is stored and written out.

Run one command under the tracer (from the repository root):

    PYTHONPATH=src python3 wshbench/tracer.py --stats S.json \\
        [--spans SPANS.json] -- wsh verify positive --max-degree 4
    PYTHONPATH=src python3 wshbench/tracer.py --stats S.json -- \\
        shuffle_job --trial-seed 3

The command's own output and exit code are passed through unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from array import array

# layers whose spans are aggregated instead of stored
AGGREGATED_LAYERS = ("poly", "field")

# arithmetic special methods are the public interface of the value classes
ARITHMETIC = frozenset(
    "__%s__" % op
    for op in (
        "add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv",
        "neg", "pow",
    )
)

# private functions wrapped anyway because a per-layer metric names them
EXTRA = {"wsh.symfunc": ("SymmetricFunctions._compute_jack",)}

# cached generator lookups whose distinct arguments are counted
GENERATORS = frozenset(
    "operators.OpContext." + m
    for m in ("multiplication", "sekiguchi", "d1", "drd", "dprime", "lowering")
)


def layer_of(modname):
    """Layer name of a wsh module: ``wsh._poly._pure`` -> ``poly``."""
    part = modname.split(".")[1]
    return part.lstrip("_")


class Tracer:
    """Span recorder; ``install`` wraps wsh, ``uninstall`` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._index = {}
        self.calls = []
        self.incl = []
        self.self_s = []
        self._depth = []
        self.stack = []
        # stored spans, one entry per span in each array
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.counters = {}
        self._distinct = set()
        self._patches = []

    # -- wrapping ------------------------------------------------------------

    def _slot(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.incl, self.self_s, self._depth):
                lst.append(0)
        return self._index[name]

    def wrap(self, name, fn, record=True, hook=None):
        """Return ``fn`` wrapped in a span named ``name``.  ``hook(args,
        result)`` runs after each successful call; it feeds the counters."""
        idx = self._slot(name)
        clock = self.clock
        stack = self.stack
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self._depth
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            start = clock()
            if record:
                sid = len(starts)
                names.append(idx)
                starts.append(start)
                ends.append(start)
                parents.append(parent[1] if parent else -1)
            else:
                sid = parent[1] if parent else -1
            frame = [0.0, sid]  # time covered by child spans, span id
            stack.append(frame)
            depth[idx] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                if not depth[idx]:
                    incl[idx] += dur
                if parent is not None:
                    parent[0] += dur
                if record:
                    ends[sid] = end
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _hook_for(self, name):
        if name == "poly.pgcd":
            def unit(args, g):
                if len(g) == 1 and abs(g[0]) == 1:
                    self.count("poly.pgcd.unit")
            return unit
        if name in ("field.FieldElem.__mul__", "field.FieldElem.__rmul__"):
            def integral(args, result):
                a, b = args
                if a.den == (1,) and _denominator_is_one(b):
                    self.count("field.mul.z")
            return integral
        if name == "linalg.SpanBasis.add_row":
            def accepted(args, grew):
                if grew:
                    self.count("linalg.span_add.accept")
            return accepted
        if name in GENERATORS:
            def lookup(args, result):
                self.count("operators.gen.calls")
                self._distinct.add((name, id(args[0])) + tuple(args[1:]))
            return lookup
        return None

    def _targets(self, mod):
        """(owner, attribute, raw value, span name) for each wrapped name
        defined in ``mod``."""
        modname = mod.__name__
        layer = layer_of(modname)
        out = []
        for attr, value in sorted(vars(mod).items()):
            if getattr(value, "__module__", None) != modname:
                continue
            if isinstance(value, type):
                for mattr, raw in sorted(vars(value).items()):
                    if mattr.startswith("_") and mattr not in ARITHMETIC:
                        continue
                    fn = getattr(raw, "__func__", raw)
                    if callable(fn) and not isinstance(fn, type):
                        out.append((value, mattr, raw, "%s.%s.%s" % (layer, attr, mattr)))
            elif callable(value) and not attr.startswith("_"):
                out.append((mod, attr, value, "%s.%s" % (layer, attr)))
        for dotted in EXTRA.get(modname, ()):
            cls, mattr = dotted.split(".")
            owner = getattr(mod, cls)
            out.append((owner, mattr, vars(owner)[mattr], "%s.%s" % (layer, dotted)))
        return out

    def install(self, extra_namespaces=()):
        """Wrap every wsh module reachable from ``wsh.cli``; the modules in
        ``extra_namespaces`` get their imported wsh functions wrapped too."""
        import wsh.cli  # noqa: F401  (imports every layer)

        modules = sorted(
            (m for n, m in sys.modules.items() if n.startswith("wsh.") and m),
            key=lambda m: m.__name__,
        )
        replaced = {}
        for mod in modules:
            for owner, attr, raw, name in self._targets(mod):
                layer = name.split(".", 1)[0]
                fn = getattr(raw, "__func__", raw)
                wrapped = self.wrap(
                    name, fn, layer not in AGGREGATED_LAYERS, self._hook_for(name)
                )
                if owner is mod:
                    replaced[id(raw)] = (raw, wrapped)
                    continue
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        # module-level functions are also reachable under imported names;
        # the polynomial backend's calls to itself stay direct
        namespaces = [sys.modules["wsh"]] + modules + list(extra_namespaces)
        for mod in namespaces:
            if mod.__name__.startswith("wsh._poly."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def stats(self):
        """Per-function calls, inclusive and self seconds, and counters."""
        counters = dict(self.counters)
        counters["operators.gen.distinct"] = len(self._distinct)
        return {
            "functions": {
                n: {"calls": c, "incl_s": i, "self_s": s}
                for n, c, i, s in zip(self.names, self.calls, self.incl, self.self_s)
                if c
            },
            "counters": counters,
            "spans_stored": len(self.span_start),
        }

    def spans(self):
        """Stored spans as (name, start, end, parent index) tuples."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
        ]


def _denominator_is_one(x):
    den = getattr(x, "den", None)
    if den is not None:
        return den == (1,)
    return getattr(x, "denominator", 1) == 1


def run_traced(program, argv, tracer):
    """Run one benchmark command in-process under ``tracer``; returns its
    exit code and the traced wall seconds."""
    if program == "wsh":
        tracer.install()
        import wsh.cli

        entry = wsh.cli.main
    elif program == "shuffle_job":
        import shuffle_job

        tracer.install(extra_namespaces=(shuffle_job,))
        entry = tracer.wrap("job.main", shuffle_job.main)
    else:
        raise ValueError("unknown program %r" % (program,))
    started = time.perf_counter()
    try:
        code = entry(argv)
    finally:
        wall = time.perf_counter() - started
        tracer.uninstall()
    return code, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stats", required=True, help="per-function stats file")
    parser.add_argument("--spans", help="file for the stored spans")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    tracer = Tracer()
    code, wall = run_traced(command[0], command[1:], tracer)
    sys.stdout.flush()
    stats = tracer.stats()
    stats["wall_s"] = wall
    with open(args.stats, "w") as fh:
        json.dump(stats, fh, sort_keys=True)
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
