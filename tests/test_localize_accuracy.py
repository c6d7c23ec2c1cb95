"""Accuracy of the sensor chain's fix across the field of view.

Each case runs one deterministic ping window through the package chain,
acquire_window -> localize_window, and compares the fix with the
reflector: the angle between the estimated and true look vectors, and the
range against the reflector's distance from the emitter.  The cases run at 20 dB, and the ten grid directions again
at 10 dB and 2.0 m, where noise can lift a neighbouring fringe of the
correlation above the echo's crest.  Run with ``-s`` to print one line
per case and an RMS/max summary.
"""

import math

import numpy as np
import pytest

from sonarray import pipeline
from sonarray.acquisition import ReflectorTarget
from sonarray.geometry import Direction, direction_unit_vector

NOISE_DB = 20.0
DOA_BOUND_DEG = 1.5       # every case
DOA_RMS_BOUND_DEG = 0.6   # over the cases
# every case; the decimator's net lag alone, 22.5 PDM bits or 1.41 PCM
# samples, is about 0.86 mm of range
RANGE_BOUND_M = 0.002
# ((azimuth, elevation) in degrees, range in m): ten directions on the
# stock 1-degree grid out to |az| 80 and |el| 40, then two between its nodes
CASES = [((0.0, 0.0), 0.6), ((30.0, 10.0), 1.9), ((-30.0, 10.0), 0.9),
         ((60.0, 0.0), 1.4), ((-60.0, -20.0), 2.0), ((80.0, 0.0), 1.1),
         ((-80.0, 10.0), 1.7), ((45.0, 40.0), 0.7), ((-45.0, -40.0), 1.5),
         ((20.0, -30.0), 1.2), ((12.4, -7.7), 0.8), ((-52.6, 33.3), 1.8)]
LOW_SNR_DB = 10.0
LOW_SNR_CASES = [(direction, 2.0) for direction, _ in CASES[:10]]
LOW_SNR_DOA_BOUND_DEG = 2.5      # every case
LOW_SNR_DOA_RMS_BOUND_DEG = 0.8  # over the cases


def angle_between_deg(a: Direction, b: Direction) -> float:
    cos = float(direction_unit_vector(a) @ direction_unit_vector(b))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def fix_errors(sensor, grid, cases, noise_db):
    """(DOA error in degrees, signed range error in m) per case; case i
    is ping i of seed 0."""
    out = []
    for ping, ((az, el), range_m) in enumerate(cases):
        target = ReflectorTarget(Direction(az, el), range_m)
        _, frames = pipeline.acquire_window(sensor, target, noise_db, 0, ping)
        estimate, direction = pipeline.localize_window(sensor, grid, frames)
        doa = angle_between_deg(direction, target.direction)
        ranging = estimate.range_m - range_m
        print(f"[accuracy] ({az:g}, {el:g}) at {range_m:g} m -> "
              f"({direction.azimuth_deg:g}, {direction.elevation_deg:g}) at "
              f"{estimate.range_m:.6f} m: DOA {doa:.2f} deg, range {1e3 * ranging:+.2f} mm")
        out.append((doa, ranging))
    doa, ranging = np.array(out).T
    print(f"[accuracy] {len(cases)} windows at {noise_db:g} dB: DOA RMS "
          f"{math.sqrt(np.mean(doa ** 2)):.2f} deg, max {doa.max():.2f} deg; "
          f"range max |error| {1e3 * np.abs(ranging).max():.2f} mm")
    return doa, ranging


@pytest.fixture(scope="module")
def errors(stock):
    return fix_errors(stock.sensor, stock.grid, CASES, NOISE_DB)


def test_every_doa_error_is_within_bound(errors):
    doa, _ = errors
    assert doa.max() <= DOA_BOUND_DEG, [CASES[i] for i in np.flatnonzero(doa > DOA_BOUND_DEG)]


def test_rms_doa_error_is_within_bound(errors):
    doa, _ = errors
    assert math.sqrt(np.mean(doa ** 2)) <= DOA_RMS_BOUND_DEG


def test_every_range_is_the_emitters_within_bound(errors):
    _, ranging = errors
    bad = np.abs(ranging) > RANGE_BOUND_M
    assert not bad.any(), [(CASES[i], ranging[i]) for i in np.flatnonzero(bad)]


def test_at_10_db_the_fix_keeps_the_echos_fringe(stock):
    doa, ranging = fix_errors(stock.sensor, stock.grid, LOW_SNR_CASES, LOW_SNR_DB)
    bad = np.abs(ranging) > RANGE_BOUND_M
    assert not bad.any(), [(LOW_SNR_CASES[i], ranging[i]) for i in np.flatnonzero(bad)]
    assert doa.max() <= LOW_SNR_DOA_BOUND_DEG
    assert math.sqrt(np.mean(doa ** 2)) <= LOW_SNR_DOA_RMS_BOUND_DEG
