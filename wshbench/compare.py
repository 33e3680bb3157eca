"""Summarize benchmark results and compare two summaries.

    python3 wshbench/compare.py summarize R1.json R2.json ... > S.json
    python3 wshbench/compare.py diff BASE.json NEW.json

``R*.json`` are files written by ``run.py --out``.  A summary holds, per
workload and trace mode, the number of runs, their seeds and each metric's
first quartile, median and third quartile.  ``diff`` prints the ratio of
the medians and the base's quartile spread; it refuses (exit 2) to compare
summaries whose polynomial backends or Python versions differ, since
their timings do not measure the same program.
"""

from __future__ import annotations

import json
import statistics
import sys

ENV_KEYS = ("poly_backend", "python")


def _quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [q1, med, q3]


def summarize(paths):
    groups = {}
    env = None
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        run_env = {k: res["env"][k] for k in ENV_KEYS}
        if env is None:
            env = run_env
        elif run_env != env:
            raise SystemExit("error: %s ran with %r, not %r" % (path, run_env, env))
        trace = "trace1" if "trace.wall_s" in res["metrics"] else "trace0"
        group = groups.setdefault("%s/%s" % (res["workload"], trace), [])
        group.append(res)
    out = {"env": env, "groups": {}}
    for key, runs in sorted(groups.items()):
        names = sorted(runs[0]["metrics"])
        out["groups"][key] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["verdict"]["verdict_ok"] for r in runs),
            "metrics": {
                n: _quartiles(sorted(r["metrics"][n] for r in runs)) for n in names
            },
        }
    return out


def diff(base, new):
    for key in ENV_KEYS:
        if base["env"][key] != new["env"][key]:
            sys.stderr.write(
                "error: %s differs (%s vs %s); refusing to compare\n"
                % (key, base["env"][key], new["env"][key])
            )
            return 2
    for group in sorted(set(base["groups"]) & set(new["groups"])):
        print(group)
        b, n = base["groups"][group]["metrics"], new["groups"][group]["metrics"]
        for name in sorted(set(b) & set(n)):
            q1, bmed, q3 = b[name]
            ratio = n[name][1] / bmed if bmed else float("nan")
            spread = (q3 - q1) / bmed if bmed else float("nan")
            print(
                "  %-32s base %12.6g  new %12.6g  new/base %7.4f  base IQR/median %.4f"
                % (name, bmed, n[name][1], ratio, spread)
            )
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["summarize"] and len(argv) > 1:
        json.dump(summarize(argv[1:]), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if argv[:1] == ["diff"] and len(argv) == 3:
        with open(argv[1]) as fh:
            base = json.load(fh)
        with open(argv[2]) as fh:
            new = json.load(fh)
        return diff(base, new)
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
