"""Command-line front end.

Subcommands: psf, scan, chirp, simulate, localize, decode.  ``simulate``
writes the frame stream of its pings through :mod:`sonarray.pipeline`,
and ``localize`` reads one back into per-ping ranges and directions.
Every run is driven by a flat key-value config (file via --config,
overrides via repeatable --set key=value); all randomness derives from
one seed.  Exit codes: 0 success, 2 usage/config error, 3 runtime data
error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import itertools
import math
import sys
from pathlib import Path

from . import (__version__, acquisition, beamforming, framing, pipeline,
               waveform)
from .errors import ConfigError, SonarrayError
from .geometry import (Direction, build_uniform_circular_array,
                       load_geometry_csv)
from .signalmodel import covariance_analytic, load_scene_file
from .waveform import ChirpSpec, generate_chirp

DEFAULTS = {
    "c_mps": "343",
    "frequency_hz": "40000",
    "seed": "0",
    "geometry.csv": "",
    "geometry.elements": "16",
    "geometry.diameter_m": "0.030",
    "grid.az_start": "-90",
    "grid.az_stop": "90",
    "grid.az_step": "1",
    "grid.el_start": "-90",
    "grid.el_stop": "90",
    "grid.el_step": "1",
    "beamformer.kind": "mvdr",
    "beamformer.loading": "0",
    "psf.sources": "0,0;30,0;-45,-15",
    "psf.beamformers": "bartlett,mvdr",
    "psf.power": "1",
    "psf.noise_power": "0.01",
    "scene.file": "",
    "chirp.f_start_hz": "36000",
    "chirp.f_end_hz": "44000",
    "chirp.duration_s": "0.003",
    "chirp.sample_rate_hz": "278125",
    "chirp.window": "none",
    "simulate.azimuth_deg": "0",
    "simulate.elevation_deg": "0",
    "simulate.range_m": "1.0",
    "simulate.strength": "1.0",
    "simulate.duration_s": "3.0",
    "simulate.rate_hz": "10",
    "simulate.noise_db": "20",
    "decode.rate_hz": "4450000",
    "decode.decimate": "false",
    "decode.factor": "16",
}


class Config:
    """Typed access over the merged key-value map."""

    def __init__(self, values: dict):
        unknown = set(values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration key")
        self.values = dict(DEFAULTS)
        self.values.update(values)

    def get(self, key: str) -> str:
        return self.values[key]

    def get_float(self, key: str, *, positive: bool = False,
                  minimum: float | None = None) -> float:
        raw = self.values[key]
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(key, f"not a number: {raw!r}") from None
        if positive and not 0 < value < math.inf:
            raise ConfigError(key, f"must be finite and > 0, got {raw}")
        if minimum is not None and not minimum <= value < math.inf:
            raise ConfigError(key, f"must be finite and >= {minimum:g}, got {raw}")
        return value

    def get_int(self, key: str, *, minimum: int | None = None) -> int:
        raw = self.values[key]
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(key, f"not an integer: {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ConfigError(key, f"must be >= {minimum}, got {raw}")
        return value

    def get_bool(self, key: str) -> bool:
        raw = self.values[key].strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(key, f"not a boolean: {raw!r}")

    def geometry(self):
        csv_path = self.get("geometry.csv")
        if csv_path:
            try:
                return load_geometry_csv(csv_path)
            except (OSError, ValueError) as exc:
                raise ConfigError("geometry.csv", str(exc)) from None
        return build_uniform_circular_array(
            self.get_int("geometry.elements", minimum=1),
            self.get_float("geometry.diameter_m", positive=True))

    def grid(self) -> beamforming.GridSpec:
        try:
            return beamforming.GridSpec(
                az_start_deg=self.get_float("grid.az_start"),
                az_stop_deg=self.get_float("grid.az_stop"),
                az_step_deg=self.get_float("grid.az_step"),
                el_start_deg=self.get_float("grid.el_start"),
                el_stop_deg=self.get_float("grid.el_stop"),
                el_step_deg=self.get_float("grid.el_step"))
        except ValueError as exc:
            raise ConfigError.from_field("grid.", exc) from None

    def chirp_spec(self) -> ChirpSpec:
        try:
            return ChirpSpec(
                f_start_hz=self.get_float("chirp.f_start_hz", positive=True),
                f_end_hz=self.get_float("chirp.f_end_hz", positive=True),
                duration_s=self.get_float("chirp.duration_s", positive=True),
                sample_rate_hz=self.get_float("chirp.sample_rate_hz", positive=True))
        except ValueError as exc:
            raise ConfigError.from_field("chirp.", exc) from None

    def target(self) -> acquisition.ReflectorTarget:
        try:
            return acquisition.ReflectorTarget(
                direction=Direction(self.get_float("simulate.azimuth_deg"),
                                    self.get_float("simulate.elevation_deg")),
                range_m=self.get_float("simulate.range_m"),
                strength=self.get_float("simulate.strength"))
        except ValueError as exc:
            raise ConfigError.from_field("simulate.", exc) from None

    def chirp_window(self) -> str:
        window = self.get("chirp.window")
        if window not in waveform.WINDOWS:
            raise ConfigError("chirp.window", f"must be one of {waveform.WINDOWS}")
        return window

    def sensor(self) -> pipeline.Sensor:
        ping_hz = self.get_float("simulate.rate_hz", positive=True)
        if ping_hz > 1.0 / pipeline.WINDOW_S:
            raise ConfigError(
                "simulate.rate_hz", f"must be <= {1.0 / pipeline.WINDOW_S:g} so each "
                f"{pipeline.WINDOW_S:g} s ping window ends before the next ping, "
                f"got {ping_hz:g}")
        return pipeline.Sensor(
            geometry=self.geometry(),
            chirp=generate_chirp(self.chirp_spec(), self.chirp_window()),
            grid=self.grid(),
            frequency_hz=self.get_float("frequency_hz", positive=True),
            c_mps=self.get_float("c_mps", positive=True),
            pdm_rate_hz=self.get_float("decode.rate_hz", positive=True),
            factor=self.get_int("decode.factor", minimum=2),
            ping_hz=ping_hz)


def load_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}", "expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
    except OSError as exc:
        raise ConfigError("config", str(exc)) from None
    return values


def build_config(args, extra_overrides) -> Config:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for item in list(args.set or []) + list(extra_overrides):
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    if args.seed is not None:
        values["seed"] = str(args.seed)
    return Config(values)


def _parse_sources(text: str) -> list:
    sources = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigError("psf.sources", f"expected 'az,el' pairs, got {part!r}")
        try:
            sources.append(Direction(float(pieces[0]), float(pieces[1])))
        except ValueError as exc:
            raise ConfigError("psf.sources", str(exc)) from None
    return sources


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _FrameReader:
    """Frames of a stream file, or of stdin for "-", parsed from
    CHUNK_BYTES reads, with the parser's counters and corruption kinds."""

    def __init__(self, path: str):
        self.path = path
        self.parser = framing.StreamParser()
        self.corruption = collections.Counter()

    def __iter__(self):
        if self.path == "-":
            source = contextlib.nullcontext(sys.stdin.buffer)
        else:
            try:
                source = open(self.path, "rb")
            except OSError as exc:
                raise ConfigError("input", f"cannot read: {exc}") from None
        with source as stream:
            while chunk := stream.read(pipeline.CHUNK_BYTES):
                for event in self.parser.feed(chunk):
                    if isinstance(event, framing.Frame):
                        yield event
                    else:
                        self.corruption[event.kind] += 1

    def summary(self) -> str:
        counts = dataclasses.asdict(self.parser.stats) | dict(sorted(self.corruption.items()))
        return " ".join(f"{name}={count}" for name, count in counts.items())


def _write_metrics(path, metrics: beamforming.PsfMetrics) -> None:
    with open(path, "w") as fh:
        fh.write(f"peak_azimuth_deg = {metrics.peak_direction.azimuth_deg:.10g}\n")
        fh.write(f"peak_elevation_deg = {metrics.peak_direction.elevation_deg:.10g}\n")
        fh.write(f"mainlobe_width_az_deg = {metrics.mainlobe_width_az_deg:.6g}\n")
        fh.write(f"mainlobe_width_el_deg = {metrics.mainlobe_width_el_deg:.6g}\n")
        fh.write(f"peak_sidelobe_db = {metrics.peak_sidelobe_db:.4f}\n")


def cmd_psf(args, extra) -> int:
    cfg = build_config(args, extra)
    geometry = cfg.geometry()
    grid = cfg.grid()
    sources = _parse_sources(cfg.get("psf.sources"))
    if not sources:
        print("psf: no sources requested; nothing to do", file=sys.stderr)
        return 0
    beamformers = [b.strip() for b in cfg.get("psf.beamformers").split(",") if b.strip()]
    for bf in beamformers:
        if bf not in beamforming.BEAMFORMERS:
            raise ConfigError("psf.beamformers", f"unknown beamformer {bf!r}")
    frequency = cfg.get_float("frequency_hz", positive=True)
    c_mps = cfg.get_float("c_mps", positive=True)
    power = cfg.get_float("psf.power", positive=True)
    noise = cfg.get_float("psf.noise_power", minimum=0)
    loading = cfg.get_float("beamformer.loading", minimum=0)
    out = _out_dir(args)
    for source in sources:
        for bf in beamformers:
            pmap, metrics = beamforming.psf(
                geometry, source, power, noise, grid, frequency, c_mps,
                beamformer=bf, loading=loading)
            stem = f"psf_az{source.azimuth_deg:g}_el{source.elevation_deg:g}_{bf}"
            beamforming.save_power_map_csv(pmap, out / f"{stem}.csv")
            beamforming.save_power_map_pgm(pmap, out / f"{stem}.pgm", metadata={
                "beamformer": bf,
                "source_azimuth_deg": f"{source.azimuth_deg:g}",
                "source_elevation_deg": f"{source.elevation_deg:g}",
                "frequency_hz": f"{frequency:g}",
            })
            _write_metrics(out / f"{stem}_metrics.txt", metrics)
            print(f"psf: wrote {stem} (peak sidelobe {metrics.peak_sidelobe_db:.1f} dB)")
    return 0


def cmd_scan(args, extra) -> int:
    cfg = build_config(args, extra)
    scene_path = cfg.get("scene.file")
    if not scene_path:
        raise ConfigError("scene.file", "a scene description file is required")
    try:
        scene, frequency, c_mps = load_scene_file(scene_path)
    except OSError as exc:
        raise ConfigError("scene.file", str(exc)) from None
    geometry = cfg.geometry()
    grid = cfg.grid()
    kind = cfg.get("beamformer.kind")
    if kind not in beamforming.BEAMFORMERS:
        raise ConfigError("beamformer.kind", f"unknown beamformer {kind!r}")
    loading = cfg.get_float("beamformer.loading", minimum=0)
    R = covariance_analytic(geometry, scene, frequency, c_mps)
    pmap = beamforming.power_map(geometry, R, grid, frequency, c_mps,
                                 beamformer=kind, loading=loading)
    out = _out_dir(args)
    beamforming.save_power_map_csv(pmap, out / "scan.csv")
    beamforming.save_power_map_pgm(pmap, out / "scan.pgm", metadata={
        "beamformer": kind, "frequency_hz": f"{frequency:g}"})
    peaks = beamforming.doa_peaks(pmap, max_peaks=5, min_separation_deg=5.0)
    with open(out / "scan_peaks.txt", "w") as fh:
        for direction, value in peaks:
            fh.write(f"{direction.azimuth_deg:.10g},{direction.elevation_deg:.10g},"
                     f"{value:.10g}\n")
    print(f"scan: wrote scan.csv/.pgm with {len(peaks)} peak(s)")
    return 0


def cmd_chirp(args, extra) -> int:
    cfg = build_config(args, extra)
    trace = generate_chirp(cfg.chirp_spec(), cfg.chirp_window())
    out = _out_dir(args)
    waveform.save_pcm(trace, out / "chirp.pcm")
    waveform.save_trace_csv(trace, out / "chirp.csv")
    print(f"chirp: wrote {len(trace)} samples at {trace.sample_rate_hz:g} Hz")
    return 0


def cmd_simulate(args, extra) -> int:
    cfg = build_config(args, extra)
    sensor = cfg.sensor()
    target = cfg.target()
    duration = cfg.get_float("simulate.duration_s", minimum=0)
    noise_db = cfg.get_float("simulate.noise_db")
    seed = cfg.get_int("seed", minimum=0)
    n_pings = int(duration * sensor.ping_hz + 1e-9)
    out = _out_dir(args)
    waveform.save_trace_csv(sensor.chirp, out / "transmit.csv")
    with open(out / "stream.bin", "wb") as fh:
        for ping in range(n_pings):
            capture, payloads = pipeline.acquire_window(sensor, target, noise_db,
                                                        seed + 64 * ping)
            if ping == 0:
                waveform.save_trace_csv(capture.channels[0], out / "received.csv")
            for frame in pipeline.frame_window(sensor, payloads, ping):
                fh.write(framing.encode_frame(frame))
    print(f"simulate: {n_pings} ping(s) written to stream.bin")
    return 0


def _localize_ping(sensor: pipeline.Sensor, sweep_s: float, ping: int, frames: list) -> tuple:
    """One ranges.csv row; NaN, with the cause on stderr, when the ping's
    window is incomplete or gives no estimate."""
    streams = pipeline.channel_streams(frames, sensor.pdm_rate_hz)
    if streams and len(streams) != sensor.geometry.n_elements:
        raise SonarrayError(f"ping {ping} has {len(streams)} channels, "
                            f"the array {sensor.geometry.n_elements}")
    head = (ping, ping / sensor.ping_hz)
    if len(frames) != pipeline.FRAMES_PER_WINDOW:
        cause = f"{len(frames)} of {pipeline.FRAMES_PER_WINDOW} frames"
    else:
        try:
            est, direction = pipeline.localize_window(sensor, streams)
        except SonarrayError as exc:
            cause = str(exc)
        else:
            return head + (est.delay_s, est.delay_s - sweep_s, est.range_m, est.peak_value,
                           est.peak_to_noise_db, direction.azimuth_deg,
                           direction.elevation_deg)
    print(f"localize: ping {ping}: {cause}", file=sys.stderr)
    return head + (math.nan,) * 7


def cmd_localize(args, extra) -> int:
    cfg = build_config(args, extra)
    sensor = cfg.sensor()
    sweep_s = cfg.chirp_spec().duration_s
    reader = _FrameReader(args.input)
    rows = []
    for ping, frames in itertools.groupby(reader, key=lambda f: pipeline.ping_of(sensor, f)):
        if rows and ping <= rows[-1][0]:
            raise SonarrayError(f"a frame of ping {ping} follows ping {rows[-1][0]}")
        for missing in range(rows[-1][0] + 1 if rows else ping, ping):
            rows.append(_localize_ping(sensor, sweep_s, missing, []))
        rows.append(_localize_ping(sensor, sweep_s, ping, list(frames)))
    out = _out_dir(args)
    with open(out / "ranges.csv", "w", newline="") as fh:
        fh.write("ping,emission_time_s,delay_s,delay_from_sweep_end_s,"
                 "range_m,peak_value,peak_to_noise_db,azimuth_deg,elevation_deg\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]:.6f},{row[2]:.9f},{row[3]:.9f},"
                     f"{row[4]:.6f},{row[5]:.6g},{row[6]:.2f},{row[7]:.10g},{row[8]:.10g}\n")
    print(reader.summary())
    print(f"localize: {len(rows)} ping(s) written to ranges.csv")
    return 0


def cmd_decode(args, extra) -> int:
    cfg = build_config(args, extra)
    rate = cfg.get_float("decode.rate_hz", positive=True)
    decimate = cfg.get_bool("decode.decimate")
    factor = cfg.get_int("decode.factor", minimum=2)
    reader = _FrameReader(args.input)
    streams = pipeline.channel_streams(list(reader), rate)
    out = _out_dir(args)
    for pdm in streams:
        acquisition.save_pdm(pdm, out / f"ch{pdm.channel:02d}.pdm")
        if decimate:
            try:
                pcm = acquisition.pdm_decimate(pdm, factor)
            except ValueError as exc:
                print(f"decode: channel {pdm.channel}: {exc}", file=sys.stderr)
                return 3
            waveform.save_pcm(pcm, out / f"ch{pdm.channel:02d}.pcm")
    print(reader.summary())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sonarray",
        description="Circular-array sonar bench: beamforming, chirp ranging, "
                    "PDM acquisition emulation, and frame-stream localization "
                    "and decoding.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key-value config file")
    common.add_argument("--out", metavar="DIR", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("psf", parents=[common],
                   help="point-source response maps and lobe metrics")
    sub.add_parser("scan", parents=[common], help="power-map scan of a scene file")
    sub.add_parser("chirp", parents=[common], help="emit the probe waveform")
    sub.add_parser("simulate", parents=[common],
                   help="frame stream of pings echoed by a reflector")
    localize = sub.add_parser("localize", parents=[common],
                              help="per-ping range and direction from a frame stream")
    localize.add_argument("input", help="frame stream file, or - for stdin")
    decode = sub.add_parser("decode", parents=[common],
                            help="decode a frame stream into per-channel PDM")
    decode.add_argument("input", help="frame stream file, or - for stdin")

    args, unknown = parser.parse_known_args(argv)
    extra = []
    for item in unknown:
        if item.startswith("--") and "=" in item:
            extra.append(item[2:])
        else:
            print(f"unrecognized argument: {item}", file=sys.stderr)
            return 2

    handlers = {
        "psf": cmd_psf,
        "scan": cmd_scan,
        "chirp": cmd_chirp,
        "simulate": cmd_simulate,
        "localize": cmd_localize,
        "decode": cmd_decode,
    }
    try:
        return handlers[args.command](args, extra)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except SonarrayError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
