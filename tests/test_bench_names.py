"""The names the benchmark traces still exist in wsh.

``wshbench/layers.py`` reads per-function stats by name, and a name that
no longer exists reads 0 instead of failing.  Every per-layer metric is
evaluated here on a recording stub, and each function name it reads, with
the tracer's generator and extra names, must resolve in ``wsh``.
"""

import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "wshbench")

# names the benchmark reads that have left wsh (they read 0 there)
STALE = {"linalg.fraction_rank", "linalg.kernel_of_vectors", "linalg.mat_inv"}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "wshbench_" + name, os.path.join(BENCH, name + ".py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _Recorder:
    """Stands in for ``layers.Totals`` and records what each metric reads."""

    wall_s = 1.0

    def __init__(self):
        self.names = set()
        self.layers = set()

    def calls(self, *names):
        self.names.update(names)
        return 1

    def incl(self, *names):
        self.names.update(names)
        return 1.0

    def counter(self, key):
        return 1

    def layer_self(self, layer):
        self.layers.add(layer)
        return 1.0


def _module(layer):
    return importlib.import_module("wsh._poly" if layer == "poly" else "wsh." + layer)


def _resolves(name):
    layer, *attrs = name.split(".")
    obj = _module(layer)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_traced_name_resolves():
    layers, tracer = _load("layers"), _load("tracer")
    rec = _Recorder()
    for _, _, _, value in layers.PER_LAYER:
        value(rec)
    names = set(rec.names) | set(tracer.GENERATORS)
    for modname, dotted in tracer.EXTRA.items():
        names.update("%s.%s" % (tracer.layer_of(modname), d) for d in dotted)
    assert "operators.OpContext.d1" in names and len(names) > 20
    missing = {n for n in names if not _resolves(n)}
    assert missing <= STALE, sorted(missing - STALE)
    for layer in rec.layers:
        _module(layer)
