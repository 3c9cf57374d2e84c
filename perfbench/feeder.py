"""Simulated RAPL-style energy counter for the counter-meter campaign.

A thread in the benchmark process advances a cumulative microjoule counter
every ``TICK_S`` seconds at ``base_w`` watts, plus ``active_w`` watts while
the stub encoder's marker file exists, and publishes it to a counter file
by atomic rename (a reader never sees a half-written number).  The counter
wraps at 2**32 uJ, encwatt's default modulus, like a real RAPL register.

The feeder is also the ground truth: for every encode (every time the
marker appears) it records the active joules it actually wrote.
"""

import os
import threading
import time

WRAP_UJ = 2**32
TICK_S = 0.002


class CounterFeeder:
    def __init__(self, path, marker, base_w, active_w, start_uj=0):
        self.path = str(path)
        self.marker = str(marker)
        self.base_w = base_w
        self.active_w = active_w
        self.energy_uj = float(start_uj)
        self.truth_j = []  # active joules written during each encode, in order
        self._active = False
        self._last = None
        self._stop = threading.Event()
        self._thread = None

    def step(self, now, active):
        """Advance the counter to ``now``; ``active`` is the marker state seen."""
        dt = 0.0 if self._last is None else now - self._last
        self._last = now
        if active and not self._active:
            self.truth_j.append(0.0)
        self._active = active
        power = self.base_w + (self.active_w if active else 0.0)
        self.energy_uj += power * dt * 1e6
        if active:
            self.truth_j[-1] += self.active_w * dt
        return int(self.energy_uj) % WRAP_UJ

    def _publish(self, value):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{value}\n")
        os.replace(tmp, self.path)

    def _run(self):
        while not self._stop.wait(TICK_S):
            self._publish(self.step(time.monotonic(), os.path.exists(self.marker)))

    def start(self):
        self._publish(self.step(time.monotonic(), False))
        self._thread = threading.Thread(target=self._run, name="counter-feeder", daemon=True)
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
