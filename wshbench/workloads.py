"""The benchmark's workloads and the commands each one runs for a seed.

A command is a program and its arguments.  ``wsh`` is the package's
command line (``python -m wsh.cli``); ``shuffle_job`` is
``wshbench/shuffle_job.py``, which drives the shuffle layer through the
library because no ``wsh`` command reaches it in under 70 s.
"""

from __future__ import annotations

import random
from typing import NamedTuple

DEFAULT_SEED = 1

# truncation window of the exact operator workload
EXACT_WINDOW = 6
# truncation window of the specialized workload
SPEC_WINDOW = 8
# positive rationals kappa = p/q for the specialized workload: the Jack
# basis is generic for alpha = 1/kappa > 0
KAPPAS = (
    "7", "13/5", "3", "5/2", "9/4", "11/3", "1/2", "17/5",
    "2/7", "4", "7/3", "5", "3/4", "8/5", "6", "9/2",
)
# number of coefficient seeds for the shuffle job's associativity triples
TRIAL_SEEDS = 16

WHY = {
    "ops-exact": "verify positive, presentation and fock at window 6 in "
    "exact Q(kappa): the poly/field kernels under Jack, sekiguchi, compose, "
    "echelon and word evaluation; no star products",
    "ops-spec": "verify positive at window 8 with kappa = p/q from the "
    "seed: the same operator and matrix code on Fractions, bypassing the "
    "poly/field kernels",
    "shuffle-exact": "exact shuffle star products (closed forms, rank-2 "
    "kernel against operators, seeded associativity): the "
    "multipoly/shuffle layers",
}


class Command(NamedTuple):
    program: str
    args: tuple

    @property
    def key(self):
        return " ".join((self.program,) + self.args)


def _verify(suite, window, *extra):
    return Command("wsh", ("verify", suite, "--max-degree", str(window)) + extra)


def inputs(workload):
    """Every command list the workload can run, one per seed-chosen input."""
    if workload == "ops-exact":
        return [
            [_verify(s, EXACT_WINDOW) for s in ("positive", "presentation", "fock")]
        ]
    if workload == "ops-spec":
        return [
            [_verify("positive", SPEC_WINDOW, "--specialize", k)] for k in KAPPAS
        ]
    if workload == "shuffle-exact":
        return [
            [Command("shuffle_job", ("--trial-seed", str(s)))]
            for s in range(TRIAL_SEEDS)
        ]
    raise ValueError("unknown workload %r" % (workload,))


def commands(workload, seed):
    """The commands one run of ``workload`` makes for ``seed``.  Exact mode
    has no free input, so there the seed only orders the commands."""
    rng = random.Random(seed)
    choices = inputs(workload)
    chosen = list(choices[rng.randrange(len(choices))])
    rng.shuffle(chosen)
    return chosen
