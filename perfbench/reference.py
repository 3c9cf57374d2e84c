"""Fixed reference work, independent of encwatt, to pace the machine's speed.

The benchmark runs this before and after each ``model_crossval`` CLI command
and each set-up probe, and divides their wall times by its wall time: a
ratio that stays steady when the shared machine's speed drifts.  Like a CLI command it starts an
interpreter, imports numpy, solves small least-squares problems and runs a
pure-Python loop.
"""

import numpy as np


def main():
    rng = np.random.default_rng(0)
    design, target = rng.random((1000, 4)), rng.random(1000)
    for _ in range(200):
        np.linalg.lstsq(design, target, rcond=None)
    total = 0.0
    for i in range(600_000):
        total += i * 1e-3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
