"""Benchmark of the stock sonar chain: localize, psf_sweep (and acquire).

Run from the root of a checkout:

    python3 perfbench/run.py --workload localize --seed 1 --seconds 45 --trace 0

BENCHMARK.json gates localize and psf_sweep; acquire, the write side,
is for paired parent/change runs (see workloads.Acquire).

Each run sets up its seeded inputs in equal passes, then runs ops in a
closed loop for ``--seconds``, checks every op's output, and prints each
metric with its unit.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run traces every other op, so ``trace.overhead_pct`` compares
traced and untraced ops of the same run.  Failed ops are printed to
stderr with their cause.  The full run record (environment, digests,
accuracy, failures) goes to ``.perfbench_out/`` in the checkout;
``compare.py`` checks the digests of two records against each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from spans import ROOT_SPAN, NullTracer, Tracer, median_of, tail_latency

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# (name, unit); every workload reports all of them with --trace 0.
# peak_rss_mb is ru_maxrss in MiB.
END_TO_END = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("realtime_factor", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Spans the workloads open, one per public function called; each gives
# <span>.self_ms, the median per traced op of its summed self time.
SPANS = [
    "acquisition.synthesize_capture",
    "acquisition.pdm_modulate",
    "framing.encode_frame",
    "framing.StreamParser.feed",
    "framing.Frame.channel_bits",
    "acquisition.pdm_decimate",
    "waveform.matched_filter",
    "waveform.estimate_range",
    "acquisition.demodulate_capture",
    "signalmodel.sample_covariance",
    "beamforming.power_map",
    "beamforming.doa_peaks",
    "beamforming.psf",
    "beamforming.save_power_map_csv",
    "beamforming.save_power_map_pgm",
]
# metric -> (span, counter, scale, unit): median per op of counter / self time.
RATES = {
    "acquisition.pdm_modulate.msamples_per_s":
        ("acquisition.pdm_modulate", "acquisition.pdm_modulate.samples", 1e-6, "Msamples/s"),
    "acquisition.pdm_decimate.msamples_per_s":
        ("acquisition.pdm_decimate", "acquisition.pdm_decimate.samples", 1e-6, "Msamples/s"),
    "framing.StreamParser.feed.mbps":
        ("framing.StreamParser.feed", "framing.StreamParser.feed.bytes", 8e-6, "Mb/s"),
}
# counter -> (span taken at, unit, better): mean over the ops that opened the span.
COUNTS = {
    "framing.encode_frame.frames": ("framing.encode_frame", "count", "higher"),
    "framing.frames_ok": ("framing.StreamParser.feed", "count", "higher"),
    "framing.frames_lost": ("framing.StreamParser.feed", "count", "lower"),
    "framing.resyncs": ("framing.StreamParser.feed", "count", "lower"),
    "framing.bytes_discarded": ("framing.StreamParser.feed", "bytes", "lower"),
    "waveform.estimate_range.failures": ("waveform.estimate_range", "count", "lower"),
    "signalmodel.sample_covariance.snapshots":
        ("signalmodel.sample_covariance", "count", "higher"),
    "beamforming.power_map.nodes": ("beamforming.power_map", "count", "higher"),
    "beamforming.doa_peaks.empty": ("beamforming.doa_peaks", "count", "lower"),
    "beamforming.save_power_map_csv.bytes":
        ("beamforming.save_power_map_csv", "bytes", "lower"),
}
# (name, unit, better); every workload reports all of them with --trace 1,
# 0 for a layer it never calls.
PER_LAYER = ([(f"{span}.self_ms", "ms", "lower") for span in SPANS]
             + [(name, unit, "higher") for name, (_, _, _, unit) in RATES.items()]
             + [(name, unit, better) for name, (_, unit, better) in COUNTS.items()]
             + [("unattributed_ms", "ms", "lower"), ("trace.overhead_pct", "%", "lower")])
SETUP_SPAN = "setup"


def run_ops(wl, seconds: float, tracer: Tracer | None) -> dict:
    """Set up, then run ops until ``seconds`` have passed."""
    null = NullTracer()
    setup_s = []
    for p in range(wl.setup_passes):
        tr = null if tracer is None else tracer
        if tracer is not None:
            tracer.op = f"setup{p}"  # set-up passes are traced as ops of their own
        start = time.perf_counter()
        with tr.span(SETUP_SPAN):
            wl.setup(p, tr)
        setup_s.append(time.perf_counter() - start)

    latencies, traced, untraced, failures = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    min_ops = 2 if tracer is not None else 1  # a traced run needs one op of each kind
    while i < min_ops or time.perf_counter() < deadline:
        item = wl.prepare(i)
        tr = tracer if tracer is not None and i % 2 == 1 else null
        if tr is tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with tr.span(ROOT_SPAN):
                result = wl.op(i, item, tr)
        except Exception as exc:  # a failed op is counted and reported, not fatal
            elapsed = time.perf_counter() - t0
            faults = ["".join(traceback.format_exception_only(exc)).strip()]
        else:
            elapsed = time.perf_counter() - t0
            faults = wl.check(i, item, result)
        latencies.append(elapsed)
        (traced if tr is tracer else untraced).append(elapsed)
        if faults:
            failures.append({"op": i, "causes": faults})
            print(f"op {i}: FAILED: {'; '.join(faults)}", file=sys.stderr)
        i += 1
    return {"setup_s": setup_s, "latencies": latencies, "traced": traced,
            "untraced": untraced, "failures": failures,
            "wall_s": time.perf_counter() - start}


def end_to_end(run: dict, window_s: float) -> tuple:
    """End-to-end metrics plus the tail rank they were read at; an op
    stands for ``window_s`` seconds of signal in realtime_factor."""
    lat_ms = [x * 1e3 for x in run["latencies"]]
    tail, percentile, n = tail_latency(lat_ms)
    ops_per_s = len(lat_ms) / run["wall_s"]
    metrics = {
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail,
        "ops_per_s": ops_per_s,
        "realtime_factor": ops_per_s * window_s,
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": percentile, "n": n}


def per_layer(run: dict, tracer: Tracer) -> tuple:
    """Per-layer metrics from the traced ops and set-up passes.

    A span's metrics are taken over the traced ops that opened it, so a
    layer that runs only in set-up (localize's write side) is measured per
    set-up pass; a layer no op opened reads 0.
    """
    self_by_op = tracer.per_op_self()
    counts_by_op = tracer.per_op_counts()
    rows = [(self_by_op[op], counts_by_op.get(op, {})) for op in self_by_op]

    def over(span, value):
        return [value(s, c) for s, c in rows if span in s]

    metrics = {f"{span}.self_ms": median_of(over(span, lambda s, c: s[span] * 1e3))
               for span in SPANS}
    for name, (span, counter, scale, _) in RATES.items():
        metrics[name] = median_of(over(span, lambda s, c: c.get(counter, 0) * scale / s[span]
                                       if s[span] > 0 else 0.0))
    for name, (span, _, _) in COUNTS.items():
        values = over(span, lambda s, c: c.get(name, 0))
        metrics[name] = sum(values) / len(values) if values else 0.0
    metrics["unattributed_ms"] = median_of(over(ROOT_SPAN, lambda s, c: s[ROOT_SPAN] * 1e3))
    traced_p50 = statistics.median(run["traced"])
    untraced_p50 = statistics.median(run["untraced"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    # Self times of an op's spans, unattributed_ms included, add up to the
    # op's duration; means keep that sum exact where medians would not.
    durations = {op: end - start for name, start, end, _, op in tracer.spans
                 if name == ROOT_SPAN}
    sums = {op: sum(self_by_op[op].values()) for op in durations}
    accounting = {
        "traced_ops": len(durations),
        "op_ms_mean": 1e3 * statistics.fmean(durations.values()),
        "self_ms_sum_mean": 1e3 * statistics.fmean(sums.values()),
        "max_residual_ms": max(1e3 * abs(durations[op] - sums[op]) for op in durations),
    }
    return metrics, accounting


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    from sonarray import __version__, _kernels
    from sonarray.geometry import default_circular_array, geometry_fingerprint
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "sonarray_version": __version__,
        "kernels_backend": _kernels.BACKEND,
        "available_backends": sorted(_kernels.available_backends()),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "geometry_sha256": geometry_fingerprint(default_circular_array()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("acquire", "localize", "psf_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        run = run_ops(wl, args.seconds, tracer)
        summary = wl.summary()
    finally:
        wl.close()

    e2e, tail = end_to_end(run, workloads.WINDOW_S)
    attempted = len(run["latencies"])
    failed = len(run["failures"])
    env = environment(args)
    record = {
        "environment": env,
        "end_to_end": e2e,
        "latency_tail": tail,
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": run["failures"],
        "setup_passes_s": run["setup_s"],
        "latencies_ms": [x * 1e3 for x in run["latencies"]],
        "workload": summary,
    }
    units = dict(END_TO_END)
    if tracer is not None:
        layers, accounting = per_layer(run, tracer)
        record["per_layer"] = layers
        record["trace_accounting"] = accounting
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
        reported = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
    else:
        reported = {name: (e2e[name], units[name]) for name, _ in END_TO_END}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"latency_ms_tail is p{tail['percentile']:.1f} of n={tail['n']} ops; "
          f"error_rate = {failed}/{attempted}")
    if tracer is not None:
        print(f"trace accounting: over {accounting['traced_ops']} traced ops, span self "
              f"times sum to {accounting['self_ms_sum_mean']:.6g} ms per op against an op "
              f"time of {accounting['op_ms_mean']:.6g} ms (largest residual "
              f"{accounting['max_residual_ms']:.3g} ms)")
    print(f"environment: {json.dumps(env)}")
    for key, value in summary.items():
        if isinstance(value, (str, int, float)) or value is None:
            print(f"{key} = {value}")
    print(f"record: {OUT_DIR.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
