"""Quick check of the benchmark's own metric arithmetic, on canned inputs.

Run with ``python3 perfbench/run.py --self-check``; it needs neither
encwatt nor any child process and exits 1 if a figure is wrong.
"""

import math
import sys

from feeder import WRAP_UJ, CounterFeeder
from run import campaign_figures, error_pct, truth_by_job
from tracer import summarize

STUB_LOG = [
    {"start": 10.5, "end": 11.0, "cpu_s": 0.05, "preset": "ultrafast", "crf": 23.0},
    {"start": 11.5, "end": 12.5, "cpu_s": 0.05, "preset": "ultrafast", "crf": 23.0},
    {"start": 13.0, "end": 14.5, "cpu_s": 0.05, "preset": "medium", "crf": 23.0},
]


def checks():
    # A campaign launched at t=10 that ran 6 s with 3 s of encoding.
    figures = campaign_figures(launch=10.0, wall=6.0, cpu_total=1.15, entries=STUB_LOG)
    yield "set-up ends at the first encoder start", figures["setup_s"], 0.5
    yield "encoders' own time", figures["encode_s"], 3.0
    yield "overhead ratio", figures["overhead_ratio"], 2.0
    yield "encwatt CPU excludes the stubs'", figures["cpu_s"], 1.0

    # 10 W base, 50 W while the marker exists, over two encodes; the
    # counter starts 5 J below the 2**32 uJ wrap.
    feeder = CounterFeeder("unused", "unused", base_w=10.0, active_w=50.0,
                           start_uj=WRAP_UJ - 5_000_000)
    ticks = [(0.0, False), (1.0, True), (2.0, True), (3.0, False), (4.0, True), (4.5, False)]
    values = [feeder.step(t, active) for t, active in ticks]
    yield "active joules of encode 1", feeder.truth_j[0], 100.0
    yield "active joules of encode 2", feeder.truth_j[1], 50.0
    yield "encodes seen", len(feeder.truth_j), 2
    yield "counter after wrap: 195 J written, 5 J to the wrap", values[-1], 190_000_000

    truth = truth_by_job(STUB_LOG, [10.0, 20.0, 40.0])
    yield "truth per job is the mean over its repetitions", truth[("ultrafast", 23.0)], 15.0
    yield "error in percent", error_pct(14.25, truth[("ultrafast", 23.0)]), -5.0

    dump = {
        "spans": [
            [1, 0, "runner.rep", 0.0, 1.0, None],
            [2, 1, "runner.run_encode", 0.1, 0.6, None],
            [3, 1, "meter.capture_idle", 0.6, 0.9, None],
            [4, 3, "meter.sampler", 0.6, 0.9, {"n": 3}],
        ],
        "counts": {"fitting.lstsq": 7},
        "records": [["sampler", {"polls": [0.0, 0.1, 0.25], "cpu_s": 0.01}],
                    ["record", {"reps": 4, "cv_pct": 1.5, "confident": True}]],
    }
    layers = summarize([dump, dump])
    yield "span time sums over processes", layers["runner.rep.s"], 2.0
    yield "self time excludes direct children", layers["runner.rep.self_s"], 0.4
    yield "sampler period median", layers["meter.sampler.period_ms_p50"], 125.0
    yield "sampler largest gap", layers["meter.sampler.gap_ms_max"], 150.0
    yield "sampler samples", layers["meter.sampler.samples"], 6
    yield "lstsq count", layers["fitting.lstsq.calls"], 14
    yield "repetitions", layers["energy.measure_until_confident.reps"], 8


def main():
    failed = 0
    for what, got, expected in checks():
        ok = math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {got!r} (expected {expected!r})")
    print(f"self-check: {failed} failure(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
