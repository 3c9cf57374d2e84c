"""Stub video encoder for the benchmark campaigns.

Sleeps like an encoder (``BASE_SLEEP_S`` times the preset factor of the
test suite's stub), writes a fake bitstream and prints x265-style summary lines with a
known Avg QP.  While it "encodes" it holds a marker file; the counter
feeder adds the active power to the simulated energy counter for as long
as that file exists.

Every call appends one JSON line to ``--log``: its start and end times on
``time.monotonic`` (CLOCK_MONOTONIC, shared by all processes on the
machine) and its own CPU time, so the benchmark can separate the encoder's
time and CPU from encwatt's.

``--probe`` logs the start and exits at once with status 3: the benchmark
uses it to time encwatt's set-up without running a whole campaign.
"""

import argparse
import json
import os
import resource
import sys
import time

BASE_SLEEP_S = 0.25
FACTORS = {
    "ultrafast": 1.0, "superfast": 1.3, "veryfast": 1.6, "faster": 1.9,
    "fast": 2.2, "medium": 2.5, "slow": 3.0, "slower": 3.5, "veryslow": 4.0,
}


def encode_seconds(preset, crf):
    """Sleep length of one stub encode."""
    return BASE_SLEEP_S * FACTORS[preset] * (1.0 + (28.0 - crf) * 0.01)


def _log(path, entry):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    entry["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(path, "a") as fh:
        fh.write(json.dumps(entry) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--preset", required=True)
    ap.add_argument("--crf", type=float, required=True)
    ap.add_argument("--frames", type=int, required=True)
    ap.add_argument("--marker", required=True)
    ap.add_argument("--log", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    start = time.monotonic()
    if args.probe:
        _log(args.log, {"start": start, "end": start, "probe": True})
        return 3
    open(args.marker, "w").close()
    time.sleep(encode_seconds(args.preset, args.crf))
    os.unlink(args.marker)
    end = time.monotonic()
    with open(args.output, "wb") as fh:
        fh.write(b"\x42" * max(64, 1200 - int(args.crf * 10)))
    print("x265 [info]: HEVC encoder version (stub)")
    print(f"x265 [info]: frame I:    1, Avg QP:{args.crf + 0.87:.2f}  kb/s: 2000.00")
    print(f"x265 [info]: frame P:   {args.frames - 1}, Avg QP:{args.crf + 2.13:.2f}  kb/s: 900.00")
    _log(args.log, {"start": start, "end": end, "preset": args.preset, "crf": args.crf})
    return 0


if __name__ == "__main__":
    sys.exit(main())
