"""Exact shuffle-algebra job of the ``shuffle-exact`` workload.

``wsh verify shuffle`` spends 160 s in two window-independent checks
(20-trial associativity with four-variable products, and a rank-3 span at
N=12), too long for a benchmark run.  This job drives the same library
code at a size that fits: the closed-form shuffle checks, the rank-2
kernel comparison with the operator realization, and associativity of the
star product on seeded three-variable triples with full support, so every
trial costs the same.  It prints a deterministic JSON report and exits
like ``wsh verify``: 0 pass, 1 fail.

Usage (from the repository root):

    PYTHONPATH=src python3 wshbench/shuffle_job.py --trial-seed 3
"""

from __future__ import annotations

import argparse
import random
import sys

from wsh.field import RationalFunctionField
from wsh.multipoly import MultiPoly
from wsh.operators import CheckOutcome, OpContext
from wsh.report import Config, Report
from wsh.shuffle import ShuffleContext, ShuffleElem, star_product

WINDOW = 6  # truncation of the operator side of the rank-2 comparison
RANK2_K = 4
TRIALS = 10
DEGREE = 4


def _element(rng, field):
    """One-variable element with all DEGREE + 1 coefficients nonzero."""
    terms = {
        (e,): field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
        for e in range(DEGREE + 1)
    }
    return ShuffleElem(MultiPoly(1, terms, field))


def associativity(ctx, seed):
    """(P*Q)*R = P*(Q*R) on TRIALS seeded triples."""
    rng = random.Random(seed)
    cid = "bench_associativity(deg=%d)" % DEGREE
    for t in range(TRIALS):
        P, Q, R = (_element(rng, ctx.field) for _ in range(3))
        left = star_product(star_product(P, Q, ctx.kernel), R, ctx.kernel)
        right = star_product(P, star_product(Q, R, ctx.kernel), ctx.kernel)
        if left != right:
            return CheckOutcome(
                cid, (0, TRIALS - 1), "fail", detail="seed %d trial %d" % (seed, t)
            )
    return CheckOutcome(cid, (0, TRIALS - 1), "pass", detail="seed %d" % seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trial-seed", type=int, required=True)
    args = parser.parse_args(argv)
    field = RationalFunctionField()
    ctx = ShuffleContext(field)
    checks = [
        ctx.kernel_expansion_check(),
        ctx.square_of_unit_degree_check(),
        ctx.quadratic_relation_check(),
    ]
    checks += ctx.rank2_kernel_compare(RANK2_K, OpContext(field, WINDOW))
    checks.append(associativity(ctx, args.trial_seed))
    report = Report("shuffle-exact", Config(N=WINDOW), checks)
    sys.stdout.write(report.render())
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
