"""Command-line front end.

Subcommands: psf, scan, chirp, simulate, localize, decode.  ``simulate``
writes the frame stream of its pings through :mod:`sonarray.pipeline`,
and ``localize`` reads one back into per-ping ranges and directions.
Every run is driven by a flat key-value config (file via --config,
overrides via repeatable --set key=value); all randomness derives from
one seed.  Exit codes: 0 success, 2 usage/config error, 3 runtime data
error or a failed allocation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from . import (__version__, acquisition, beamforming, framing, pipeline,
               waveform)
from .errors import SonarrayError
from .geometry import (SPEED_OF_SOUND_MPS, Direction, default_circular_array,
                       load_geometry_csv)
from .signalmodel import PointSource, covariance_analytic
from .waveform import ChirpSpec, generate_chirp

# The stock sensor, stated once: the library takes every value as an argument.
DEFAULTS = {
    "c_mps": f"{SPEED_OF_SOUND_MPS:g}",
    "frequency_hz": "40000",
    "seed": "0",
    "geometry.csv": "",
    "grid.az_start": "-90",
    "grid.az_stop": "90",
    "grid.az_step": "1",
    "grid.el_start": "-90",
    "grid.el_stop": "90",
    "grid.el_step": "1",
    "beamformer.loading": "0",
    "psf.sources": "0,0;30,0;-45,-15",
    "psf.beamformers": "bartlett,mvdr",
    "psf.power": "1",
    "psf.noise_power": "0.01",
    "chirp.f_start_hz": "36000",
    "chirp.f_end_hz": "44000",
    "chirp.duration_s": "0.003",
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
# the key that sets each field the library checks: a GridSpec, ChirpSpec,
# Direction, ReflectorTarget or Sensor ValueError names its field first
FIELD_KEYS = {
    "az_start_deg": "grid.az_start", "az_stop_deg": "grid.az_stop", "az_step_deg": "grid.az_step",
    "el_start_deg": "grid.el_start", "el_stop_deg": "grid.el_stop", "el_step_deg": "grid.el_step",
    "f_start_hz": "chirp.f_start_hz", "f_end_hz": "chirp.f_end_hz",
    "duration_s": "chirp.duration_s", "azimuth_deg": "simulate.azimuth_deg",
    "elevation_deg": "simulate.elevation_deg", "range_m": "simulate.range_m",
    "strength": "simulate.strength", "ping_hz": "simulate.rate_hz", "factor": "decode.factor",
    "pdm_rate_hz": "decode.rate_hz", "geometry": "geometry.csv"}
CHUNK_BYTES = 65536  # read size of a frame stream


class ConfigError(Exception):
    """A run configuration key is missing, malformed, or out of range."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")


def _build(cls, **fields):
    """``cls(**fields)``, its ValueError re-keyed to a ConfigError under the
    FIELD_KEYS key of the field the message names first."""
    try:
        return cls(**fields)
    except ValueError as exc:
        field, _, message = str(exc).partition(" ")
        raise ConfigError(FIELD_KEYS[field], message) from None


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
        if not csv_path:
            return default_circular_array()
        try:
            return load_geometry_csv(csv_path)
        except (OSError, ValueError) as exc:
            raise ConfigError("geometry.csv", str(exc)) from None

    def grid(self) -> beamforming.GridSpec:
        return _build(beamforming.GridSpec, **{
            field: self.get_float(key) for field, key in FIELD_KEYS.items()
            if key.startswith("grid.")})

    def _pdm(self) -> tuple:
        """(PDM clock, decimation factor); their PCM rate is >= 1 Hz."""
        rate = self.get_float("decode.rate_hz", positive=True)
        factor = self.get_int("decode.factor", minimum=2)
        if factor > rate:  # a PCM rate below 1 Hz, or one no float holds
            raise ConfigError("decode.factor", f"must be <= decode.rate_hz, got {factor}")
        return rate, factor

    def chirp_spec(self) -> ChirpSpec:
        rate, factor = self._pdm()
        return _build(ChirpSpec, f_start_hz=self.get_float("chirp.f_start_hz"),
                      f_end_hz=self.get_float("chirp.f_end_hz"),
                      duration_s=self.get_float("chirp.duration_s"),
                      sample_rate_hz=rate / factor)

    def target(self) -> acquisition.ReflectorTarget:
        direction = _build(Direction, azimuth_deg=self.get_float("simulate.azimuth_deg"),
                           elevation_deg=self.get_float("simulate.elevation_deg"))
        return _build(acquisition.ReflectorTarget, direction=direction,
                      range_m=self.get_float("simulate.range_m"),
                      strength=self.get_float("simulate.strength"))

    def chirp_window(self) -> str:
        window = self.get("chirp.window")
        if window not in waveform.WINDOWS:
            raise ConfigError("chirp.window", f"must be one of {waveform.WINDOWS}")
        return window

    def sensor(self) -> pipeline.Sensor:
        rate, factor = self._pdm()
        return _build(pipeline.Sensor, geometry=self.geometry(), spec=self.chirp_spec(),
                      chirp_window=self.chirp_window(),
                      c_mps=self.get_float("c_mps", positive=True), pdm_rate_hz=rate,
                      factor=factor, ping_hz=self.get_float("simulate.rate_hz", positive=True))


def parse_key_values(lines, source: str):
    """Stripped (key, value) of each "key = value" line of a config file,
    split on the first "="; "#" starts a comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}", "expected 'key = value'")
        yield tuple(part.strip() for part in line.split("=", 1))


def build_config(args) -> Config:
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values.update(parse_key_values(fh, args.config))
        except OSError as exc:
            raise ConfigError("config", str(exc)) from None
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    return Config(values)


def _parse_sources(text: str, default_power: float) -> list:
    """PointSources of "az,el" or "az,el,power" items split on ";"; an
    item without a power has ``default_power``."""
    sources = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) not in (2, 3):
            raise ConfigError("psf.sources", f"expected 'az,el' or 'az,el,power' items, "
                                             f"got {part!r}")
        try:
            values = [float(piece) for piece in pieces]
            power = values[2] if len(values) == 3 else default_power
            if not 0 < power < math.inf:
                raise ValueError(f"power must be finite and > 0, got {pieces[2].strip()}")
            sources.append(PointSource(Direction(values[0], values[1]), power))
        except ValueError as exc:
            raise ConfigError("psf.sources", str(exc)) from None
    return sources


def _analytic(args) -> SimpleNamespace | None:
    """What the analytic maps of ``psf`` and ``scan`` read (array, grid, frequency,
    speed of sound, sources, noise power, beamformers, loading), or None, with a
    note on stderr, when the config asks for no source or no beamformer."""
    cfg = build_config(args)
    geometry = cfg.geometry()
    grid = cfg.grid()
    sources = _parse_sources(cfg.get("psf.sources"),
                             cfg.get_float("psf.power", positive=True))
    beamformers = [b.strip() for b in cfg.get("psf.beamformers").split(",") if b.strip()]
    for bf in beamformers:
        if bf not in beamforming.BEAMFORMERS:
            raise ConfigError("psf.beamformers", f"unknown beamformer {bf!r}")
    run = SimpleNamespace(
        geometry=geometry, grid=grid, sources=sources, beamformers=beamformers,
        frequency_hz=cfg.get_float("frequency_hz", positive=True),
        c_mps=cfg.get_float("c_mps", positive=True),
        noise_power=cfg.get_float("psf.noise_power", minimum=0),
        loading=cfg.get_float("beamformer.loading", minimum=0))
    for what, items in (("sources", sources), ("beamformers", beamformers)):
        if not items:
            print(f"{args.command}: no {what} requested; nothing to do", file=sys.stderr)
            return None
    return run


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _FrameReader:
    """Frames of a stream file, or of stdin for "-", parsed from CHUNK_BYTES
    reads, with the parser's counters; the input opens here, so an
    unreadable one exits 2 before any output exists."""

    def __init__(self, path: str):
        if path == "-":
            self.source = contextlib.nullcontext(sys.stdin.buffer)
        else:
            try:
                self.source = open(path, "rb")
            except OSError as exc:
                raise ConfigError("input", f"cannot read: {exc}") from None
        self.parser = framing.StreamParser()

    def __iter__(self):
        with self.source as stream:
            while chunk := stream.read(CHUNK_BYTES):
                yield from self.parser.feed(chunk)
        self.parser.finish()

    def summary(self) -> str:
        """The four base counters, then each other counter that is not 0."""
        counts = dataclasses.asdict(self.parser.stats).items()
        return " ".join(f"{name}={count}" for i, (name, count) in enumerate(counts)
                        if i < 4 or count)


def _write_metrics(path, metrics: beamforming.PsfMetrics) -> None:
    with open(path, "w") as fh:
        fh.write(f"peak_azimuth_deg = {metrics.peak_direction.azimuth_deg:.10g}\n")
        fh.write(f"peak_elevation_deg = {metrics.peak_direction.elevation_deg:.10g}\n")
        fh.write(f"mainlobe_width_az_deg = {metrics.mainlobe_width_az_deg:.6g}\n")
        fh.write(f"mainlobe_width_el_deg = {metrics.mainlobe_width_el_deg:.6g}\n")
        fh.write(f"peak_sidelobe_db = {metrics.peak_sidelobe_db:.4f}\n")


def _save_map(pmap: beamforming.PowerMap, out: Path, stem: str, metadata: dict) -> None:
    beamforming.save_power_map_csv(pmap, out / f"{stem}.csv")
    beamforming.save_power_map_pgm(pmap, out / f"{stem}.pgm", metadata=metadata)


def cmd_psf(args) -> int:
    run = _analytic(args)
    if run is None:
        return 0
    stems = {}  # file stem -> its source; a direction names the files
    for source in run.sources:
        az, el = source.direction.azimuth_deg, source.direction.elevation_deg
        stem = f"psf_az{az:g}_el{el:g}"
        if stem in stems:
            items = [f"{s.direction.azimuth_deg!r},{s.direction.elevation_deg!r},{s.power!r}"
                     for s in (stems[stem], source)]
            raise ConfigError("psf.sources", f"items {items[0]} and {items[1]} both "
                                             f"write {stem}_*")
        stems[stem] = source
    maps = [(f"{stem}_{bf}", source, bf, *beamforming.psf(
                run.geometry, source.direction, source.power, run.noise_power, run.grid,
                run.frequency_hz, run.c_mps, beamformer=bf, loading=run.loading))
            for stem, source in stems.items() for bf in run.beamformers]
    out = _out_dir(args)
    for stem, source, bf, pmap, metrics in maps:
        az, el = source.direction.azimuth_deg, source.direction.elevation_deg
        _save_map(pmap, out, stem, {
            "beamformer": bf, "source_azimuth_deg": f"{az:g}",
            "source_elevation_deg": f"{el:g}", "frequency_hz": f"{run.frequency_hz:g}"})
        _write_metrics(out / f"{stem}_metrics.txt", metrics)
        print(f"psf: wrote {stem} (peak sidelobe {metrics.peak_sidelobe_db:.1f} dB)")
    return 0


def cmd_scan(args) -> int:
    run = _analytic(args)
    if run is None:
        return 0
    R = covariance_analytic(run.geometry, run.sources, run.noise_power,
                            run.frequency_hz, run.c_mps)
    maps = [(bf, beamforming.power_map(run.geometry, R, run.grid, run.frequency_hz,
                                       run.c_mps, beamformer=bf, loading=run.loading))
            for bf in run.beamformers]
    out = _out_dir(args)
    for bf, pmap in maps:
        stem = f"scan_{bf}"
        _save_map(pmap, out, stem, {"beamformer": bf,
                                    "frequency_hz": f"{run.frequency_hz:g}"})
        peaks = beamforming.doa_peaks(pmap, max_peaks=5, min_separation_deg=5.0)
        with open(out / f"{stem}_peaks.txt", "w") as fh:
            for direction, value in peaks:
                fh.write(f"{direction.azimuth_deg:.10g},{direction.elevation_deg:.10g},"
                         f"{value:.10g}\n")
        print(f"scan: wrote {stem}.csv/.pgm with {len(peaks)} peak(s)")
    return 0


def cmd_chirp(args) -> int:
    cfg = build_config(args)
    trace = generate_chirp(cfg.chirp_spec(), cfg.chirp_window())
    out = _out_dir(args)
    waveform.save_pcm(trace, out / "chirp.pcm")
    waveform.save_trace_csv(trace, out / "chirp.csv")
    print(f"chirp: wrote {len(trace)} samples at {trace.sample_rate_hz:g} Hz")
    return 0


def cmd_simulate(args) -> int:
    cfg = build_config(args)
    sensor = cfg.sensor()
    target = cfg.target()
    duration = cfg.get_float("simulate.duration_s", minimum=0)
    noise_db = cfg.get_float("simulate.noise_db")
    seed = cfg.get_int("seed", minimum=0)
    n_pings = int(duration * sensor.ping_hz + 1e-9)
    try:  # ping 0 before any output, so a target no window can hold exits 2
        first = pipeline.acquire_window(sensor, target, noise_db, seed, 0)
    except ValueError as exc:
        try:  # ping 0 without noise tells whether the noise is the cause
            pipeline.acquire_window(sensor, target, math.inf, seed, 0)
        except ValueError:
            pass
        else:
            raise ConfigError("simulate.noise_db", "ping 0 can be synthesized only "
                              f"without noise: {exc}") from None
        raise ConfigError("simulate.range_m", "no ping can be synthesized with "
                          f"simulate.strength and simulate.noise_db as set: {exc}") from None
    out = _out_dir(args)
    waveform.save_trace_csv(sensor.chirp, out / "transmit.csv")
    if n_pings:
        waveform.save_trace_csv(first[0].channels[0], out / "received.csv")
    with open(out / "stream.bin", "wb") as fh:
        for ping in range(n_pings):
            try:
                _, frames = first if ping == 0 else pipeline.acquire_window(
                    sensor, target, noise_db, seed, ping)
            except ValueError as exc:  # the earlier pings' frames stay written
                raise SonarrayError(f"ping {ping}: {exc}") from None
            for frame in frames:
                fh.write(framing.encode_frame(frame))
    print(f"simulate: {n_pings} ping(s) written to stream.bin")
    return 0


def _localize_ping(sensor: pipeline.Sensor, grid: beamforming.GridSpec, ping: int,
                   frames: list) -> tuple:
    """One ranges.csv row, timed at the PDM tick its frames are stamped from;
    NaN, with the cause on stderr, when the window gives no estimate."""
    head = (ping, ping * sensor.ping_ticks / sensor.pdm_rate_hz)
    try:
        est, direction = pipeline.localize_window(sensor, grid, frames)
    except SonarrayError as exc:
        print(f"localize: ping {ping}: {exc}", file=sys.stderr)
        return head + (math.nan,) * 7
    return head + (est.delay_s, est.delay_s - sensor.spec.duration_s, est.range_m,
                   est.peak_value, est.peak_to_noise_db, direction.azimuth_deg,
                   direction.elevation_deg)


def cmd_localize(args) -> int:
    cfg = build_config(args)
    sensor = cfg.sensor()
    grid = cfg.grid()
    reader = _FrameReader(args.input)
    line = "{},{:.6f},{:.9f},{:.9f},{:.6f},{:.6g},{:.2f},{:.10g},{:.10g}\n".format
    rows = refused = 0
    # a ping's row is flushed once a later ping's frame, or the end, closes it
    with open(_out_dir(args) / "ranges.csv", "w", newline="") as fh:
        fh.write("ping,emission_time_s,delay_s,delay_from_sweep_end_s,"
                 "range_m,peak_value,peak_to_noise_db,azimuth_deg,elevation_deg\n")
        for item in pipeline.pings(sensor, reader):
            if isinstance(item, framing.Frame):
                print(f"localize: frame {item.sequence} stamped at ping "
                      f"{item.timestamp_ticks // sensor.ping_ticks} refused: it skips more "
                      "pings than sequence numbers", file=sys.stderr)
                refused += 1
                continue
            fh.write(line(*_localize_ping(sensor, grid, *item)))
            fh.flush()
            rows += 1
    print(reader.summary() + (f" frames_refused={refused}" if refused else ""))
    print(f"localize: {rows} ping(s) written to ranges.csv")
    return 0


def cmd_decode(args) -> int:
    cfg = build_config(args)
    rate, factor = cfg._pdm()
    decimate = cfg.get_bool("decode.decimate")
    reader = _FrameReader(args.input)
    streams = pipeline.channel_streams(list(reader), rate)
    if decimate and streams and streams[0].n_bits < factor:
        raise SonarrayError(f"{streams[0].n_bits} PDM bits per channel, fewer than one "
                            f"decimation step of {factor}")
    out = _out_dir(args)
    for pdm in streams:
        acquisition.save_pdm(pdm, out / f"ch{pdm.channel:02d}.pdm")
        if decimate:
            pcm = acquisition.pdm_decimate(pdm, factor)
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
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
            ("psf", cmd_psf, "point-source response maps and lobe metrics"),
            ("scan", cmd_scan, "power maps of all sources at once, with their peaks"),
            ("chirp", cmd_chirp, "emit the probe waveform"),
            ("simulate", cmd_simulate, "frame stream of pings echoed by a reflector"),
            ("localize", cmd_localize, "per-ping range and direction from a frame stream"),
            ("decode", cmd_decode, "decode a frame stream into per-channel PDM")):
        command = sub.add_parser(name, parents=[common], help=help_text)
        command.set_defaults(handler=handler)
        if handler in (cmd_localize, cmd_decode):
            command.add_argument("input", help="frame stream file, or - for stdin")

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (SonarrayError, ValueError, MemoryError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
