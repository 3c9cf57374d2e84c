"""In-memory spans around encwatt's layers, recorded from the benchmark's side.

Nothing in encwatt changes: :func:`install` replaces public functions and
methods with timing wrappers *where their callers look them up* (for
example ``encwatt.runner.net_energy``, not only ``encwatt.energy``), so the
calls the program makes internally are seen too.  A span is ``[id,
parent_id, name, start, end, attrs]`` on ``time.monotonic``; the parent is
the innermost open span of the same thread.  :func:`summarize` turns the
spans of one workload unit, possibly from several processes, into the
per-layer metrics.
"""

import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.records = []  # (kind, dict): observations that are not time spans
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of (args, kwargs).

        ``attrs(result, args, kwargs)`` returns extra fields for the span;
        its ``"n"`` field is summed as the layer's item count.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
            label = name(args, kwargs) if callable(name) else name
            extra = attrs(result, args, kwargs) if attrs is not None else None
            self.spans.append([sid, parent, label, t0, t1, extra])
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def count(self, owner, attr, name):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts), "records": self.records}


def _n_items(result, args, kwargs):
    return {"n": len(result)}


def record_stats(tracer, record):
    """Keep the stopping-rule verdict of one measured job."""
    cv = record.std_dev / record.mean_energy * 100.0 if record.mean_energy else 0.0
    tracer.records.append(("record", {"reps": record.reps, "cv_pct": abs(cv),
                                      "confident": record.confident}))


def install_stopping_rule(tracer, module):
    """Trace ``measure_until_confident`` as ``module`` looks it up."""
    from encwatt import energy

    tracer.patch(energy, "confidence_check", "energy.confidence_check")
    inner = getattr(module, "measure_until_confident")

    def measure(run_once, policy, job_id=""):
        if module is not energy:  # a runner repetition is a whole measured encode
            run_once = tracer.wrap("runner.rep", run_once)
        record = inner(run_once, policy, job_id=job_id)
        record_stats(tracer, record)
        return record

    setattr(module, "measure_until_confident",
            tracer.wrap("energy.measure_until_confident", measure))


def install(tracer):
    """Wrap the layers a CLI process runs: meter, energy, runner, dataset, fitting, synth."""
    import numpy as np

    from encwatt import cli, dataset, energy, meter, runner

    for module in (cli, meter):
        tracer.patch(module, "parse_trace_csv", "meter.parse_trace_csv", _n_items)
    tracer.patch(energy.PowerTrace, "__post_init__", "energy.trace_build",
                 lambda result, args, kwargs: {"n": len(args[0].samples)})
    tracer.patch(energy, "integrate_energy", "energy.integrate_energy")
    tracer.patch(runner, "net_energy", "energy.net_energy")
    tracer.patch(runner, "run_encode", "runner.run_encode")
    install_stopping_rule(tracer, runner)

    # The sampler: every counter read is one poll, timed on the thread that
    # runs the sampler (the session's thread, or the main thread for idle).
    read_counter = meter.read_counter_uj
    sample_counter = meter.sample_counter_file
    local = threading.local()

    def read(path):
        polls = getattr(local, "polls", None)
        if polls is not None:
            polls.append(time.monotonic())
        return read_counter(path)

    def sample(*args, **kwargs):
        local.polls = []
        cpu0 = time.thread_time()
        try:
            return sample_counter(*args, **kwargs)
        finally:
            tracer.records.append(("sampler", {"polls": local.polls,
                                               "cpu_s": time.thread_time() - cpu0}))
            local.polls = None

    meter.read_counter_uj = read
    meter.sample_counter_file = tracer.wrap("meter.sampler", sample, _n_items)
    tracer.patch(meter._CounterSession, "start", "meter.session.start")
    tracer.patch(meter._CounterSession, "stop", "meter.session.stop")
    tracer.patch(meter.CounterMeter, "capture_idle", "meter.capture_idle")

    tracer.patch(dataset.DatasetWriter, "append", "dataset.append")
    tracer.patch(dataset.Dataset, "write_csv", "dataset.write_csv")
    tracer.patch(cli, "load_dataset_csv", "dataset.load_dataset_csv", _n_items)
    tracer.patch(cli, "generate_dataset", "synth.generate_dataset")
    tracer.patch(cli, "cross_validate",
                 lambda args, kwargs: f"fitting.cross_validate.{args[1]}.{kwargs['objective']}")
    tracer.count(np.linalg, "lstsq", "fitting.lstsq")


SPAN_METRICS = (
    # (metric, span name, field): field is total | self | calls | items
    ("meter.parse_trace_csv.s", "meter.parse_trace_csv", "total"),
    ("meter.parse_trace_csv.rows", "meter.parse_trace_csv", "items"),
    ("energy.trace_build.s", "energy.trace_build", "total"),
    ("energy.trace_build.samples", "energy.trace_build", "items"),
    ("energy.integrate_energy.s", "energy.integrate_energy", "total"),
    ("energy.integrate_energy.calls", "energy.integrate_energy", "calls"),
    ("meter.sampler.samples", "meter.sampler", "items"),
    ("meter.session.start_s", "meter.session.start", "total"),
    ("meter.session.stop_s", "meter.session.stop", "total"),
    ("meter.capture_idle.s", "meter.capture_idle", "total"),
    ("runner.rep.s", "runner.rep", "total"),
    ("runner.rep.self_s", "runner.rep", "self"),
    ("runner.run_encode.s", "runner.run_encode", "total"),
    ("energy.confidence_check.s", "energy.confidence_check", "total"),
    ("energy.confidence_check.calls", "energy.confidence_check", "calls"),
    ("dataset.load_dataset_csv.s", "dataset.load_dataset_csv", "total"),
    ("dataset.load_dataset_csv.rows", "dataset.load_dataset_csv", "items"),
    ("dataset.append.s", "dataset.append", "total"),
    ("dataset.write_csv.s", "dataset.write_csv", "total"),
    ("synth.generate_dataset.s", "synth.generate_dataset", "total"),
)

CROSSVAL_CELLS = tuple(
    (model, objective)
    for model in ("qp_cubic", "time_linear", "uf_linear")
    for objective in ("squared_rel", "abs_rel")
)


def summarize(dumps):
    """Per-layer metrics of one workload unit from the dumps of its processes.

    Times are summed over the unit; ``self`` excludes the time covered by
    the span's direct children.  A layer the unit never entered reads 0.
    """
    total, self_time = defaultdict(float), defaultdict(float)
    calls, items = Counter(), Counter()
    counts = Counter()
    intervals, sampler_cpu, records = [], 0.0, []
    n_spans = 0
    for dump in dumps:
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1, _attrs in dump["spans"]:
            child[parent] += t1 - t0
        for sid, _parent, name, t0, t1, attrs in dump["spans"]:
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child[sid]
            calls[name] += 1
            if attrs:
                items[name] += attrs.get("n", 0)
        n_spans += len(dump["spans"])
        counts.update(dump["counts"])
        for kind, data in dump["records"]:
            if kind == "sampler":
                polls = data["polls"]
                intervals.extend(b - a for a, b in zip(polls, polls[1:]))
                sampler_cpu += data["cpu_s"]
            else:
                records.append(data)
    fields = {"total": total, "self": self_time, "calls": calls, "items": items}
    metrics = {metric: fields[field][span] for metric, span, field in SPAN_METRICS}
    for model, objective in CROSSVAL_CELLS:
        metrics[f"fitting.cross_validate.{model}.{objective}.s"] = (
            total[f"fitting.cross_validate.{model}.{objective}"])
    metrics["fitting.lstsq.calls"] = counts["fitting.lstsq"]
    metrics["meter.sampler.period_ms_p50"] = (
        statistics.median(intervals) * 1e3 if intervals else 0.0)
    metrics["meter.sampler.gap_ms_max"] = max(intervals) * 1e3 if intervals else 0.0
    metrics["meter.sampler.cpu_s"] = sampler_cpu
    metrics["energy.measure_until_confident.reps"] = sum(r["reps"] for r in records)
    metrics["energy.rep_cv_pct_p50"] = (
        statistics.median(r["cv_pct"] for r in records) if records else 0.0)
    metrics["energy.confident_ratio"] = (
        sum(r["confident"] for r in records) / len(records) if records else 0.0)
    metrics["trace.spans"] = n_spans
    return metrics
