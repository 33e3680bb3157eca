"""Benchmark harness of wsh.

Runs one workload's commands, each in a fresh interpreter with the tree's
``src`` on ``PYTHONPATH`` (as the tests do), again and again for
``--seconds``, checks every report against the verdicts recorded from the
baseline tree, and prints the metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 wshbench/run.py --workload ops-exact [--seed 1] [--seconds 25]
                            [--trace 0|1] [--out result.json]
    python3 wshbench/run.py --record    # rewrite wshbench/expected.json

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
commands once untraced and then under ``tracer.py`` and reports the
per-layer metrics.  The exit code is 0 when every verdict matches, 1 when
one does not, and 2 on bad usage or when no wsh source tree is found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from layers import OVERHEAD, layer_metrics, units
from workloads import DEFAULT_SEED, WHY, commands, inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")

# every run ends within this many seconds of its start
DEADLINE_S = 170.0
# fresh-interpreter imports timed for setup_s, after one warm-up import
SETUP_SAMPLES = 15
SETUP_PROBE = "import wsh.cli; import sys; sys.stdout.write(wsh.POLY_BACKEND)"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics; they feed correct/attempted/failed
VERDICT = {
    "checks_total": "count",
    "fail_share": "ratio",
    "skipped_share": "ratio",
    "verdict_ok": "bool",
}


def _env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


class Runner:
    """Launches commands, each in its own interpreter, before a deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = _env()
        os.makedirs(OUT_DIR, exist_ok=True)

    def launch(self, argv):
        """Run ``argv`` to completion; returns wall, rusage and output."""
        with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(
            dir=OUT_DIR
        ) as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            expired = threading.Event()

            def kill():
                expired.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted or terminated: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "exit": proc.returncode,
                "timed_out": expired.is_set(),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read(),
                "stderr": err.read(),
            }


def argv_for(cmd, trace_stats=None, spans=None):
    if trace_stats is not None:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--stats", trace_stats]
        if spans:
            argv += ["--spans", spans]
        return argv + ["--", cmd.program] + list(cmd.args)
    if cmd.program == "wsh":
        return [sys.executable, "-m", "wsh.cli"] + list(cmd.args)
    return [sys.executable, os.path.join(HERE, cmd.program + ".py")] + list(cmd.args)


def report_summary(result):
    """Exit code, report status, checks per status and sha256 of one
    command's output; ``None`` when it crashed or printed no report."""
    if result["timed_out"] or result["exit"] not in (0, 1):
        return None
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return None
    counts = {}
    for check in doc["checks"]:
        counts[check["status"]] = counts.get(check["status"], 0) + 1
    return {
        "exit": result["exit"],
        "status": doc["status"],
        "counts": counts,
        "sha256": hashlib.sha256(result["stdout"]).hexdigest(),
    }


class VerdictGuard:
    """Compares every report with the recorded one, and repeated runs of a
    command with each other."""

    def __init__(self, expected):
        self.expected = expected
        self.first_sha = {}
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.ok = True
        self.problems = []

    def check(self, cmd, result):
        want = self.expected.get(cmd.key)
        if want is None:
            self._problem(cmd, "no recorded verdict; run --record on the baseline tree")
            return
        base = sum(want["counts"].values())
        self.attempted += base
        got = report_summary(result)
        if got is None:
            self.failed += base
            tail = result["stderr"].decode(errors="replace").strip()[-300:]
            self._problem(
                cmd,
                "timed out" if result["timed_out"]
                else "crashed with exit %d: %s" % (result["exit"], tail),
            )
            return
        self.failed += got["counts"].get("fail", 0)
        self.skipped += got["counts"].get("skipped", 0)
        for key in ("exit", "status", "counts", "sha256"):
            if got[key] != want[key]:
                self._problem(cmd, "%s %r, recorded %r" % (key, got[key], want[key]))
        first = self.first_sha.setdefault(cmd.key, got["sha256"])
        if got["sha256"] != first:
            self._problem(
                cmd, "report not byte-identical between runs: sha256 %s then %s"
                % (first, got["sha256"]),
            )

    def _problem(self, cmd, text):
        self.ok = False
        self.problems.append("%s: %s" % (cmd.key, text))

    def metrics(self, passes):
        return {
            "checks_total": self.attempted // passes,
            "fail_share": self.failed / self.attempted if self.attempted else 1.0,
            "skipped_share": self.skipped / self.attempted if self.attempted else 0.0,
            "verdict_ok": int(self.ok),
        }


def environment(runner):
    """Interpreter, backend, machine and load at the start of a run."""
    probe = runner.launch([sys.executable, "-c", SETUP_PROBE])
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "poly_backend": probe["stdout"].decode().strip() or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


def setup_seconds(runner):
    """Median wall seconds of a fresh interpreter importing wsh.cli (the
    warm-up import in ``environment`` has already written bytecode)."""
    samples = [
        runner.launch([sys.executable, "-c", SETUP_PROBE])["wall_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    return statistics.median(samples)


def run_pass(runner, cmds, guard, trace_dir=None):
    """Run every command once, in order; returns the pass's figures."""
    wall = cpu = rss = 0.0
    stats = []
    for i, cmd in enumerate(cmds):
        if trace_dir is None:
            argv = argv_for(cmd)
        else:
            stats_path = os.path.join(trace_dir, "%d.stats.json" % i)
            spans_path = os.path.join(trace_dir, "%d.spans.json" % i)
            argv = argv_for(cmd, stats_path, spans_path)
        result = runner.launch(argv)
        guard.check(cmd, result)
        wall += result["wall_s"]
        cpu += result["cpu_s"]
        rss = max(rss, result["rss_mb"])
        if trace_dir is not None and report_summary(result) is not None:
            with open(stats_path) as fh:
                stats.append(json.load(fh))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "stats": stats}


def measure(args, expected):
    started = time.monotonic()
    runner = Runner(started + DEADLINE_S)
    env = environment(runner)
    cmds = commands(args.workload, args.seed)
    guard = VerdictGuard(expected["commands"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": [c.key for c in cmds],
        "env": env,
    }
    if not args.trace:
        setup = setup_seconds(runner)
        passes = []
        while not passes or time.monotonic() - started < args.seconds:
            passes.append(run_pass(runner, cmds, guard))
        metrics = {
            key: statistics.median(p[key] for p in passes)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        metrics["setup_s"] = setup
        metric_units = END_TO_END
    else:
        untraced = run_pass(runner, cmds, guard)
        trace_dir = os.path.join(OUT_DIR, "trace-%s" % args.workload)
        os.makedirs(trace_dir, exist_ok=True)
        passes = []
        while not passes or time.monotonic() - started < args.seconds:
            passes.append(run_pass(runner, cmds, guard, trace_dir))
        per_pass = [layer_metrics(p["stats"]) for p in passes if p["stats"]]
        metrics = {
            key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]
        } if per_pass else {}
        metrics[OVERHEAD[0]] = statistics.median(
            p["wall_s"] for p in passes
        ) / untraced["wall_s"]
        metric_units = units()
    verdict = guard.metrics(len(passes) + args.trace)
    result.update(
        passes=len(passes),
        pass_wall_s=[p["wall_s"] for p in passes],
        verdict=verdict,
        problems=guard.problems,
        metrics=metrics,
    )
    return result, guard, metric_units


def record():
    """Rewrite expected.json from the current tree: one run of every
    command of every input of every workload."""
    runner = Runner(time.monotonic() + 3600.0)
    env = environment(runner)
    recorded = {}
    for workload in WHY:
        for cmds in inputs(workload):
            for cmd in cmds:
                summary = report_summary(runner.launch(argv_for(cmd)))
                if summary is None:
                    sys.stderr.write("error: %s crashed on this tree\n" % cmd.key)
                    return 1
                recorded[cmd.key] = summary
                print(cmd.key, summary["status"], summary["counts"], flush=True)
    env.pop("loadavg")
    with open(EXPECTED, "w") as fh:
        json.dump({"env": env, "commands": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "wsh", "cli.py")):
        sys.stderr.write("error: no wsh source tree at %s\n" % SRC)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    with open(EXPECTED) as fh:
        expected = json.load(fh)

    result, guard, metric_units = measure(args, expected)
    env = result["env"]
    print("workload %s, seed %d: %s" % (args.workload, args.seed, "; ".join(result["commands"])))
    print(
        "python %s, backend %s, nproc %s, cpu %s, load %s"
        % (env["python"], env["poly_backend"], env["nproc"], env["cpu_model"],
           " ".join("%.2f" % x for x in env["loadavg"]))
    )
    if env["poly_backend"] != expected["env"]["poly_backend"]:
        print(
            "note: backend %s differs from the recorded %s; timings are not "
            "comparable with its baseline" % (env["poly_backend"], expected["env"]["poly_backend"])
        )
    print("passes: %d (%s s)" % (result["passes"], ", ".join("%.3f" % w for w in result["pass_wall_s"])))
    for name, value in sorted(result["metrics"].items()):
        print("  %-32s %14.6g %s" % (name, value, metric_units[name]))
    for name, value in result["verdict"].items():
        print("  %-32s %14.6g %s" % (name, value, VERDICT[name]))
    for problem in guard.problems:
        print("verdict: " + problem)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": guard.ok,
        "attempted": guard.attempted,
        "failed": guard.failed,
        "metrics": {
            name: {"value": value, "unit": metric_units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if guard.ok else 1


if __name__ == "__main__":
    sys.exit(main())
