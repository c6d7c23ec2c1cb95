"""The stock sensor every test module takes, resolved as the CLI resolves it."""

from typing import NamedTuple

import pytest

from sonarray.beamforming import GridSpec
from sonarray.cli import Config
from sonarray.pipeline import Sensor
from sonarray.waveform import ChirpSpec


class Stock(NamedTuple):
    sensor: Sensor   # array, probe sweep and trace, carrier, c, PDM clock, factor
    spec: ChirpSpec  # sensor.spec: the sweep the probe is sampled from, at the PCM rate
    grid: GridSpec   # the scan grid localize and the analytic maps use


@pytest.fixture(scope="session")
def stock() -> Stock:
    """The default configuration's sensor, probe sweep and scan grid:
    ``Config({})`` is the one statement of the stock values the tests build on."""
    cfg = Config({})
    sensor = cfg.sensor()
    return Stock(sensor, sensor.spec, cfg.grid())
