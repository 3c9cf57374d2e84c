"""Run the encwatt CLI with the benchmark's layer spans installed.

Usage: ``python traced_cli.py <spans.json> <encwatt arguments...>`` with
encwatt's ``src`` directory on ``PYTHONPATH``.  Behaves like ``python -m
encwatt.cli`` and, on exit, writes the spans, counts and the time taken to
import ``encwatt.cli`` to ``<spans.json>``.
"""

import json
import sys
import time

from tracer import Tracer, install


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.monotonic()
    import encwatt.cli
    import_s = time.monotonic() - t0
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = encwatt.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(spans_path, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
