"""Stopping-rule Monte Carlo: encwatt's repeat-until-confident rule on normal draws.

Usage: ``python mc_worker.py --seed N --seconds S [--trace]`` with encwatt's
``src`` directory on ``PYTHONPATH``.  Runs blocks of ``CAMPAIGNS``
simulated campaigns at each relative sigma in ``SIGMAS`` until ``S``
seconds are used (at least ``MIN_BLOCKS``) and prints one JSON line per block.

Right after each campaign a bare loop makes the same repetition calls and
averages them without the stopping rule; a block's overhead ratio is the
campaigns' time over the bare loops'.  Timing the two back to back, one
campaign at a time, keeps the ratio steady when the machine's speed
drifts.  With ``--trace`` one untraced block is run first as the
reference for the tracing overhead, then traced blocks.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from encwatt import energy
from run import timed_units
from tracer import Tracer, install_stopping_rule, summarize

MU = 1000.0
SIGMAS = (0.005, 0.01, 0.02)
CAMPAIGNS = 500  # per sigma and block
MIN_BLOCKS = 4  # so that a run makes at least 2,000 campaigns per sigma
POLICY = energy.ConfidencePolicy(alpha=0.99, beta=0.02, min_reps=2, max_reps=60)


def _bare(row, reps):
    take = iter(row).__next__
    energies = []
    for _ in range(reps):
        energies.append(float(take()))
    return statistics.fmean(energies)


def run_block(seed, index):
    rng = np.random.default_rng([seed, index])
    draws = {s: rng.normal(MU, s * MU, (CAMPAIGNS, POLICY.max_reps)).tolist() for s in SIGMAS}
    coverage = {}
    rule = bare = 0.0
    w0, c0 = time.perf_counter(), time.process_time()
    for sigma, rows in draws.items():
        confident = covered = 0
        for row in rows:
            t0 = time.perf_counter()
            record = energy.measure_until_confident(iter(row).__next__, POLICY)
            t1 = time.perf_counter()
            _bare(row, record.reps)
            bare += time.perf_counter() - t1
            rule += t1 - t0
            if record.confident:
                confident += 1
                covered += abs(record.mean_energy - MU) <= POLICY.beta * MU
        coverage[str(sigma)] = [confident, covered]
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"block": index, "wall_s": wall, "cpu_s": cpu, "rule_s": rule, "bare_s": bare,
            "campaigns": CAMPAIGNS * len(SIGMAS), "coverage": coverage}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        reference = run_block(args.seed, 0)
        reference.update(reference=True, attempted=0, failed=0)
        print(json.dumps(reference), flush=True)
        tracer = Tracer()
        install_stopping_rule(tracer, energy)

    def unit(index):
        block = run_block(args.seed, index)
        if tracer is not None:
            block["layers"] = summarize([tracer.dump()])
            tracer.spans.clear()
            tracer.records.clear()
        print(json.dumps(block), flush=True)

    timed_units(args.seconds, unit, minimum=MIN_BLOCKS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
