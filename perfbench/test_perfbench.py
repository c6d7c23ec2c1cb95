"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, tail_latency  # noqa: E402
from sonarray import framing  # noqa: E402
from sonarray.geometry import Direction  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # op [0, 10] > a [1, 6] > a.inner [2, 3]; op > b [7, 9]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 6, 7, 9, 10]))
    tracer.op = 0
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.self_times() == [3, 4, 1, 2]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 0]
    row = tracer.per_op_self()[0]
    assert row == {"op": 3, "a": 4, "a.inner": 1, "b": 2}
    assert sum(row.values()) == 10  # self times account for the op


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [["op", 0.0, 10.0, None, 0], ["x", 2.0, 6.0, 0, 0],
                    ["y", 4.0, 8.0, 0, 0], ["z", 9.0, 12.0, 0, 0]]
    assert tracer.self_times()[0] == pytest.approx(10 - 6 - 1)


def test_counts_are_kept_per_op():
    tracer = Tracer()
    tracer.op = 3
    tracer.count("frames", 16)
    tracer.count("frames", 16)
    tracer.op = 5
    tracer.count("frames")
    assert tracer.per_op_counts() == {3: {"frames": 32}, 5: {"frames": 1}}


@pytest.mark.parametrize("n, value, percentile", [
    (100, 90, 90.0),
    (1000, 990, 99.0),
    (25, 15, 60.0),
    (11, 1, 100.0 / 11),
    (10, 1, 0.0),
    (1, 1, 0.0),
])
def test_tail_is_highest_percentile_with_ten_ops_beyond(n, value, percentile):
    values = list(range(n, 0, -1))  # order must not matter
    got, got_percentile, got_n = tail_latency(values)
    assert (got, got_n) == (value, n)
    assert got_percentile == pytest.approx(percentile)
    if n > 10:
        assert sum(v > got for v in values) == 10


class _Stub:
    """Ops 0, 3, 6, ... raise; ops 1, 4, 7, ... fail their check."""

    setup_passes = 2

    def setup(self, p, tr):
        with tr.span("acquisition.pdm_modulate"):
            tr.count("acquisition.pdm_modulate.samples", 1000)

    def prepare(self, i):
        return i

    def op(self, i, item, tr):
        with tr.span("waveform.matched_filter"):
            if i % 3 == 0:
                raise ValueError(f"bad input {i}")
        return item

    def check(self, i, item, result):
        return [f"wrong answer {i}"] if i % 3 == 1 else []


def test_runner_counts_raised_and_wrong_ops(capsys):
    tracer = Tracer()
    out = run.run_ops(_Stub(), 0.01, tracer)
    n = len(out["latencies"])
    assert n >= 2 and len(out["setup_s"]) == 2
    expected = [i for i in range(n) if i % 3 != 2]
    assert [f["op"] for f in out["failures"]] == expected
    assert "ValueError: bad input 0" in out["failures"][0]["causes"][0]
    assert "op 1: FAILED: wrong answer 1" in capsys.readouterr().err
    assert len(out["traced"]) == n // 2
    layers, accounting = run.per_layer(out, tracer)
    assert accounting["traced_ops"] == n // 2
    assert accounting["max_residual_ms"] < 1e-6
    assert accounting["self_ms_sum_mean"] == pytest.approx(accounting["op_ms_mean"])
    assert set(layers) == {name for name, _, _ in run.PER_LAYER}
    # a layer called only in set-up is measured over the set-up passes
    assert layers["acquisition.pdm_modulate.self_ms"] > 0
    assert layers["acquisition.pdm_modulate.msamples_per_s"] > 0
    assert layers["waveform.matched_filter.self_ms"] > 0
    assert layers["beamforming.psf.self_ms"] == 0


def test_framing_faults_flag_loss_and_miscounted_junk():
    ok = framing.StreamStats(frames_ok=16, frames_lost=0, resyncs=2, bytes_discarded=40)
    assert workloads.framing_faults(ok, 16, 40, 2) == []
    lost = framing.StreamStats(frames_ok=15, frames_lost=1, resyncs=3, bytes_discarded=9000)
    faults = workloads.framing_faults(lost, 16, 40, 2)
    assert any("frames_lost 1" in f for f in faults)
    assert any("bytes_discarded 9000 != 40" in f for f in faults)
    assert len(faults) == 4


@pytest.fixture(scope="module")
def one_window():
    """A localize workload after its first set-up pass (about a second)."""
    wl = workloads.Localize(seed=7, workdir=Path("."))
    wl.setup(0, NullTracer())
    return wl


def test_localize_decodes_a_clean_window_within_tolerance(one_window):
    wl = one_window
    item = wl.prepare(0)
    result = wl.op(0, item, NullTracer())
    assert wl.check(0, item, result) == []
    assert result[3].bytes_discarded == item[1]


def test_localize_flags_a_corrupted_frame(one_window):
    wl = one_window
    _, chunks = workloads.encode_window(wl.stock, wl.windows[0], 1, NullTracer())
    damaged = bytearray(chunks[5])
    damaged[100] ^= 0x01  # payload bit flip: CRC rejects the frame
    blob = b"".join(chunks[:5]) + bytes(damaged) + b"".join(chunks[6:])
    with pytest.raises(workloads.OpFault, match="15 of 16 frames.*frames_lost=1"):
        workloads.decode_window(wl.stock, framing.StreamParser(), blob, NullTracer())


def test_localize_flags_a_wrong_answer(one_window):
    wl = one_window
    item = wl.prepare(0)
    result = wl.op(0, item, NullTracer())
    true_range, true_direction = wl.truth[0]
    wl.truth[0] = (true_range + 0.01,
                   Direction(max(-90.0, true_direction.azimuth_deg - 30.0),
                             true_direction.elevation_deg))
    try:
        faults = wl.check(0, item, result)
    finally:
        wl.truth[0] = (true_range, true_direction)
    assert len(faults) == 2
    assert "mm from the true" in faults[0] and "deg from the true" in faults[1]


def test_compare_flags_digest_mismatch():
    base = {"environment": {"workload": "acquire", "seed": 1},
            "workload": {"frame_stream_sha256": "aa", "digest_ops": 8},
            "end_to_end": {"latency_ms_p50": 100.0}}
    same = json.loads(json.dumps(base))
    assert compare.compare(base, same)[0] == 0
    other = json.loads(json.dumps(base))
    other["workload"]["frame_stream_sha256"] = "bb"
    status, lines = compare.compare(base, other)
    assert status == 1 and lines[0].startswith("MISMATCH")
    other["environment"]["seed"] = 2
    assert compare.compare(base, other)[0] == 2


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["localize", "psf_sweep"]
    assert set(workloads.WORKLOADS) == {"acquire", "localize", "psf_sweep"}
