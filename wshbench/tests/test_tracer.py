"""Self-tests of the benchmark's tracer, metrics and verdict guard.

Run from the repository root:  python3 -m pytest -q wshbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, run_traced  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.work(4)

    def left():
        clock.work(2)
        leaf()

    def right():
        clock.work(8)

    def rec(n):
        clock.work(1)
        if n:
            rec(n - 1)

    def root():
        clock.work(1)
        left()
        right()
        rec(2)
        return "done"

    leaf, left, right = (tr.wrap(f.__name__, f) for f in (leaf, left, right))
    rec = tr.wrap("rec", rec)
    assert tr.wrap("root", root)() == "done"
    st = tr.stats()["functions"]
    assert st["root"] == {"calls": 1, "incl_s": 18, "self_s": 1}
    assert st["left"] == {"calls": 1, "incl_s": 6, "self_s": 2}
    assert st["leaf"] == {"calls": 1, "incl_s": 4, "self_s": 4}
    assert st["right"] == {"calls": 1, "incl_s": 8, "self_s": 8}
    # recursion: three calls, inclusive time counted once
    assert st["rec"] == {"calls": 3, "incl_s": 3, "self_s": 3}
    assert sum(row["self_s"] for row in st.values()) == st["root"]["incl_s"]
    spans = tr.spans()
    by_name = {}
    for i, (name, start, end, parent) in enumerate(spans):
        by_name.setdefault(name, []).append((i, start, end, parent))
    root_id = by_name["root"][0][0]
    assert by_name["root"][0][1:] == (0, 18, -1)
    assert by_name["left"][0][3] == root_id
    assert by_name["leaf"][0][3] == by_name["left"][0][0]
    assert [s[3] for s in by_name["rec"]] == [
        root_id, by_name["rec"][0][0], by_name["rec"][1][0]
    ]


def test_unrecorded_spans_still_count_against_parent_self_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    hot = tr.wrap("hot", lambda: clock.work(3), record=False)

    def outer():
        clock.work(1)
        hot()

    tr.wrap("outer", outer)()
    st = tr.stats()["functions"]
    assert st["outer"]["self_s"] == 1 and st["hot"]["self_s"] == 3
    assert [name for name, *_ in tr.spans()] == ["outer"]


def test_wrappers_return_results_and_reraise():
    tr = Tracer()
    seen = []

    def boom(x):
        raise KeyError(x)

    add = tr.wrap("add", lambda a, b=0: a + b, hook=lambda args, r: seen.append(r))
    assert add(2, b=3) == 5 and seen == [5]
    with pytest.raises(KeyError):
        tr.wrap("boom", boom)(7)
    st = tr.stats()["functions"]
    assert st["boom"]["calls"] == 1 and st["add"]["calls"] == 1
    assert tr.stack == []


def _cli_output(argv, tracer=None):
    import wsh.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            code = wsh.cli.main(argv)
        else:
            code, _ = run_traced("wsh", argv, tracer)
    return code, buf.getvalue()


def _wsh_attributes():
    """Every attribute of every wsh module and wsh class, by identity."""
    import wsh.cli  # noqa: F401

    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if not (modname == "wsh" or modname.startswith("wsh.")) or mod is None:
            continue
        for attr, value in vars(mod).items():
            out[modname, attr] = value
            if isinstance(value, type) and value.__module__ == modname:
                for mattr, raw in vars(value).items():
                    out[modname, attr, mattr] = raw
    return out


@pytest.fixture(scope="module")
def traced_positive():
    argv = ["verify", "positive", "--max-degree", "4"]
    before = _wsh_attributes()
    plain = _cli_output(argv)
    tr = Tracer()
    traced = _cli_output(argv, tr)
    after = _wsh_attributes()
    return plain, traced, tr, before, after


def test_traced_report_is_byte_identical(traced_positive):
    # window 4 is below what graded_dim(3,2) needs, so the suite exits 1
    # on the baseline tree; the traced run must reproduce that too
    plain, traced, _, _, _ = traced_positive
    assert plain == traced
    assert len(json.loads(traced[1])["checks"]) == 82


def test_wrappers_removed_after_run(traced_positive):
    _, _, tr, before, after = traced_positive
    assert tr.stats()["functions"]["cli.main"]["calls"] == 1
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert not any(
        hasattr(getattr(v, "__func__", v), "__wrapped_by_tracer__")
        for v in after.values()
    )


def test_layer_metrics_of_a_traced_run(traced_positive):
    _, _, tr, _, _ = traced_positive
    stats = tr.stats()
    stats["wall_s"] = stats["functions"]["cli.main"]["incl_s"]
    m = layers.layer_metrics([stats])
    assert set(m) == {name for name, *_ in layers.PER_LAYER}
    assert m["poly.pgcd.calls"] > 0 and m["field.mul.calls"] > 0
    assert m["shuffle.star_product.calls"] == 0
    assert 0 < m["poly.pgcd.unit_ratio"] < 1
    assert 0 < m["operators.gen_hit_ratio"] < 1
    self_total = sum(m["%s.self_s" % layer] for layer in layers.LAYERS)
    assert 0 < self_total <= m["trace.wall_s"]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.units()


def test_every_input_has_a_recorded_verdict():
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)["commands"]
    for workload in workloads.WHY:
        for cmds in workloads.inputs(workload):
            for cmd in cmds:
                assert expected[cmd.key]["status"] == "pass"
        for seed in range(5):
            assert workloads.commands(workload, seed) == workloads.commands(
                workload, seed
            )


def _result(stdout, exit_code=0, timed_out=False):
    return {"exit": exit_code, "timed_out": timed_out, "stdout": stdout, "stderr": b"boom"}


def test_verdict_guard():
    cmd = workloads.Command("wsh", ("verify", "x"))
    good = json.dumps(
        {"status": "pass", "checks": [{"status": "pass"}, {"status": "skipped"}]}
    ).encode()
    want = run.report_summary(_result(good))
    guard = run.VerdictGuard({cmd.key: want})
    guard.check(cmd, _result(good))
    assert guard.ok and guard.metrics(1) == {
        "checks_total": 2, "fail_share": 0.0, "skipped_share": 0.5, "verdict_ok": 1
    }
    guard.check(cmd, _result(good.replace(b"pass", b"fail"), exit_code=1))
    assert not guard.ok and guard.failed == 1
    guard.check(cmd, _result(b"", exit_code=-9, timed_out=True))
    assert guard.failed == 3 and guard.attempted == 6
    assert any("not byte-identical" in p for p in guard.problems)
    assert any("timed out" in p for p in guard.problems)
