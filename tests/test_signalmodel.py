import math

import numpy as np
import pytest

from sonarray.geometry import Direction, steering_matrix
from sonarray.signalmodel import (PointSource, SnapshotBlock, covariance_analytic,
                                  sample_covariance)

def brute_force_covariance(sensor, sources, noise_power):
    """Independent oracle: explicit elementwise sum of the model terms, at
    the sensor's array and carrier."""
    L = sensor.geometry.n_elements
    R = np.zeros((L, L), dtype=complex)
    for src in sources:
        d = steering_matrix(sensor.geometry, src.direction.azimuth_deg,
                            src.direction.elevation_deg, sensor.frequency_hz, sensor.c_mps)[:, 0]
        for i in range(L):
            for j in range(L):
                R[i, j] += src.power * d[i] * np.conj(d[j])
    for i in range(L):
        R[i, i] += noise_power
    return R


def assert_hermitian_psd(R):
    """Hermitian within 1e-12; eigenvalues above -1e-9 of the mean eigenvalue."""
    assert np.max(np.abs(R - R.conj().T)) <= 1e-12
    floor = -1e-9 * max(np.trace(R).real, 0.0) / R.shape[0]
    assert np.linalg.eigvalsh(R).min() >= floor


class TestCovarianceAnalytic:
    def test_single_unit_source_is_rank_one_dyad(self, stock):
        s = stock.sensor
        R = covariance_analytic(s.geometry, [PointSource(Direction(10, 5), 1.0)], 0.0,
                                s.frequency_hz, s.c_mps)
        assert abs(np.trace(R).real - 16.0) < 1e-12
        eigs = np.linalg.eigvalsh(R)
        assert np.sum(eigs > 1e-9 * np.trace(R).real) == 1

    def test_noise_only_is_scaled_identity(self, stock):
        s = stock.sensor
        R = covariance_analytic(s.geometry, [PointSource(Direction(0, 0), 0.0)], 0.1,
                                s.frequency_hz, s.c_mps)
        assert np.allclose(R, 0.1 * np.eye(16), atol=1e-15)

    def test_trace_against_brute_force(self, stock):
        s = stock.sensor
        sources = [PointSource(Direction(0, 0), 1.0)]
        R = covariance_analytic(s.geometry, sources, 0.1, s.frequency_hz, s.c_mps)
        assert abs(np.trace(R).real - 16 * 1.1) < 1e-12
        oracle = brute_force_covariance(s, sources, 0.1)
        assert np.max(np.abs(R - oracle)) <= 1e-12

    def test_additivity_over_subscenes(self, stock):
        s = stock.sensor
        first = [PointSource(Direction(-20, 8), 2.0)]
        others = [PointSource(Direction(40, -5), 0.5), PointSource(Direction(5, 30), 3.0)]
        silent = [PointSource(Direction(-20, 8), 0.0)]
        full, first_only, others_only, noise_only = (
            covariance_analytic(s.geometry, sources, noise_power, s.frequency_hz, s.c_mps)
            for sources, noise_power in ((first + others, 0.25), (first, 0.0),
                                         (others, 0.0), (silent, 0.25)))
        assert np.max(np.abs(full - (first_only + others_only + noise_only))) <= 1e-12

    def test_invariants_hold_for_random_scenes(self, stock):
        s = stock.sensor
        rng = np.random.default_rng(99)
        for _ in range(10):
            draw = lambda: PointSource(Direction(*rng.uniform(-80, 80, 2)), rng.uniform(0, 4))
            sources = [draw()]
            sources += [draw() for _ in range(rng.integers(0, 4))]
            R = covariance_analytic(s.geometry, sources, rng.uniform(0, 1),
                                    s.frequency_hz, s.c_mps)
            assert_hermitian_psd(R)

    def test_eigenvalue_count_bounded_by_source_count(self, stock):
        s = stock.sensor
        sources = [PointSource(Direction(0, 0), 1.0), PointSource(Direction(30, 0), 2.0),
                   PointSource(Direction(-50, 10), 0.7)]
        R = covariance_analytic(s.geometry, sources, 0.05, s.frequency_hz, s.c_mps)
        core = R - 0.05 * np.eye(16)
        eigs = np.linalg.eigvalsh(core)
        assert np.sum(eigs > 1e-9 * np.trace(R).real) <= 3

    @pytest.mark.parametrize("noise_power", [-0.1, math.nan])
    def test_negative_or_nan_noise_power_rejected(self, stock, noise_power):
        s = stock.sensor
        with pytest.raises(ValueError, match="noise_power must be >= 0"):
            covariance_analytic(s.geometry, [PointSource(Direction(0, 0), 1.0)], noise_power,
                                s.frequency_hz, s.c_mps)

    def test_empty_source_list_rejected(self, stock):
        s = stock.sensor
        with pytest.raises(ValueError, match="at least one source"):
            covariance_analytic(s.geometry, [], 0.1, s.frequency_hz, s.c_mps)


def gaussian_block(sensor, direction, source_power, noise_power, n, seed):
    """Seeded snapshots at the sensor of one point source plus white noise,
    each signal a circular complex Gaussian of its power:
    E[sample_covariance] is the analytic covariance of the matching scene."""
    rng = np.random.default_rng(seed)

    def cgauss(power, shape):
        return np.sqrt(power / 2.0) * (rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))

    d = steering_matrix(sensor.geometry, direction.azimuth_deg, direction.elevation_deg,
                        sensor.frequency_hz, sensor.c_mps)
    L = sensor.geometry.n_elements
    Y = d * cgauss(source_power, n)[None, :] + cgauss(noise_power, (L, n))
    return SnapshotBlock(samples=Y)


class TestSnapshots:
    def test_noise_only_sample_covariance_concentrates(self, stock):
        s = stock.sensor
        n = 10_000
        block = gaussian_block(s, Direction(0, 0), 0.0, 0.3, n, seed=123)
        R = sample_covariance(block)
        assert np.max(np.abs(R - 0.3 * np.eye(16))) <= 5 * 0.3 / np.sqrt(n)

    def test_single_snapshot_outer_product(self):
        block = SnapshotBlock(samples=np.ones((4, 1), dtype=complex))
        assert np.array_equal(sample_covariance(block), np.ones((4, 4), dtype=complex))

    def test_quadratic_scaling(self, stock):
        s = stock.sensor
        block = gaussian_block(s, Direction(5, 5), 1.0, 0.1, 32, seed=3)
        scaled = SnapshotBlock(samples=2.0 * block.samples)
        assert np.allclose(sample_covariance(scaled), 4.0 * sample_covariance(block),
                           atol=1e-12)

    def test_monte_carlo_matches_analytic(self, stock):
        s = stock.sensor
        block = gaussian_block(s, Direction(0, 0), 1.0, 0.1, 50_000, seed=42)
        R_hat = sample_covariance(block)
        R = covariance_analytic(s.geometry, [PointSource(Direction(0, 0), 1.0)], 0.1,
                                s.frequency_hz, s.c_mps)
        assert np.max(np.abs(R_hat - R)) <= 0.05
        assert_hermitian_psd(R_hat)

    def test_convergence_rate_is_one_over_sqrt_n(self, stock):
        s = stock.sensor
        R = covariance_analytic(s.geometry, [PointSource(Direction(10, 0), 1.0)], 0.1,
                                s.frequency_hz, s.c_mps)
        errs = []
        for n in (2_000, 20_000):
            block = gaussian_block(s, Direction(10, 0), 1.0, 0.1, n, seed=17)
            errs.append(np.max(np.abs(sample_covariance(block) - R)))
        ratio = errs[0] / errs[1]
        assert 2.0 <= ratio <= 5.0  # sqrt(10) ~ 3.16 expected

    def test_snapshot_count_validation(self):
        with pytest.raises(ValueError):
            SnapshotBlock(samples=np.zeros((16, 0), dtype=complex))

