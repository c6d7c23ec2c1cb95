import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonarray.beamforming import (PowerMap, _ascii_fields, _f4_words,
                                  _format_tables, _g10_words, _local_maxima,
                                  _quadratic_form, _scan_steering, doa_peaks,
                                  grid_powers, power_map, psf, psf_metrics,
                                  save_power_map_csv, save_power_map_pgm)
from sonarray.errors import NoPeakError, SingularMatrixError
from sonarray.geometry import (_COLUMN_BLOCK, Direction, build_uniform_circular_array,
                               steering_matrix)
from sonarray.signalmodel import PointSource, covariance_analytic




def look_vector(sensor, direction):
    """Single-look steering vector of the sensor's array at its carrier:
    one column of steering_matrix."""
    return steering_matrix(sensor.geometry, direction.azimuth_deg, direction.elevation_deg,
                           sensor.frequency_hz, sensor.c_mps)[:, 0]


def covariance(sensor, sources, noise_power):
    """The analytic covariance of ``sources`` in white noise at the sensor's
    array and carrier."""
    return covariance_analytic(sensor.geometry, sources, noise_power, sensor.frequency_hz,
                               sensor.c_mps)


def single_source_covariance(sensor, direction, sd2=1.0, sv2=0.1):
    return covariance(sensor, [PointSource(direction, sd2)], sv2)


def look_power(R, d, kind, loading=0.0):
    """Beamformer power toward one steering vector, via the grid path."""
    return grid_powers(R, d[:, None], kind, loading)[0]


def mvdr_closed_form(rho, sd2, sv2, n):
    """Matrix-inversion-lemma oracle for a single-source-plus-noise scene.

    rho is the normalized Bartlett pattern |d^H d_s|^2 / L^2 at the look.
    """
    return sv2 * (sv2 + sd2 * n) / (n * (sv2 + sd2 * n * (1.0 - rho)))


class TestBartlett:
    def test_unit_dyad_at_source(self, stock):
        s = stock.sensor
        look = Direction(0, 0)
        sv = look_vector(s, look)
        R = single_source_covariance(s, look, 1.0, 0.0)
        assert abs(look_power(R, sv, "bartlett") - 1.0) < 1e-12

    def test_white_noise_floor(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        sv = look_vector(s, Direction(17, -4))
        R = 0.1 * np.eye(L)
        assert abs(look_power(R, sv, "bartlett") - 0.1 / L) < 1e-15

    def test_source_plus_noise_adds(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        look = Direction(0, 0)
        sv = look_vector(s, look)
        R = single_source_covariance(s, look)
        assert abs(look_power(R, sv, "bartlett") - (1.0 + 0.1 / L)) < 1e-12

    def test_dimension_mismatch(self, stock):
        s = stock.sensor
        sv = look_vector(s, Direction(0, 0))
        for kind in ("bartlett", "mvdr"):
            with pytest.raises(ValueError):
                look_power(np.eye(4), sv, kind)


class TestMvdr:
    def test_closed_form_at_source(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        look = Direction(0, 0)
        sv = look_vector(s, look)
        R = single_source_covariance(s, look)
        expected = 1.0 + 0.1 / L  # rho = 1 in the inversion-lemma oracle
        assert abs(mvdr_closed_form(1.0, 1.0, 0.1, L) - expected) < 1e-15
        assert abs(look_power(R, sv, "mvdr") - expected) <= 1e-9 * expected

    def test_zero_matrix_is_singular(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        sv = look_vector(s, Direction(0, 0))
        with pytest.raises(SingularMatrixError):
            look_power(np.zeros((L, L), dtype=complex), sv, "mvdr", loading=0.0)

    def test_loading_rescues_singular_covariance(self, stock):
        s = stock.sensor
        look = Direction(0, 0)
        sv = look_vector(s, look)
        R = single_source_covariance(s, look, 1.0, 0.0)
        with pytest.raises(SingularMatrixError):
            look_power(R, sv, "mvdr", loading=0.0)
        assert look_power(R, sv, "mvdr", loading=1e-3) > 0

    def test_white_noise_power_is_flat(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        R = 0.25 * np.eye(L)
        for az, el in [(0, 0), (41, 7), (-60, -30)]:
            sv = look_vector(s, Direction(az, el))
            assert abs(look_power(R, sv, "mvdr") - 0.25 / L) < 1e-12

    def test_closed_form_across_directions(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        source = Direction(20, 0)
        d_s = look_vector(s, source)
        R = single_source_covariance(s, source, 1.0, 0.1)
        for az, el in [(20, 0), (0, 0), (-45, -15), (60, 25), (25, 0)]:
            sv = look_vector(s, Direction(az, el))
            rho = abs(np.vdot(sv, d_s)) ** 2 / L ** 2
            expected = mvdr_closed_form(rho, 1.0, 0.1, L)
            assert abs(look_power(R, sv, "mvdr") - expected) <= 1e-9 * expected

    @pytest.mark.parametrize("loading", [0.0, 1e-3])
    def test_stock_map_matches_the_cholesky_solve(self, stock, loading):
        # R^-1 from numpy's Cholesky factor against scipy's cho_factor and
        # cho_solve, over the stock grid, for the stock psf's off-axis sources
        s = stock.sensor
        L = s.geometry.n_elements
        az, el = stock.grid.axes()
        AZ, EL = np.meshgrid(az, el)
        D = steering_matrix(s.geometry, AZ.ravel(), EL.ravel(), s.frequency_hz, s.c_mps)
        for source in (Direction(30, 0), Direction(-45, -15)):
            R = single_source_covariance(s, source, 1.0, 0.01)
            R_loaded = R + loading * (np.trace(R).real / L) * np.eye(L)
            inverse = scipy.linalg.cho_solve(scipy.linalg.cho_factor(R_loaded), np.eye(L))
            expected = 1.0 / np.einsum("lm,lm->m", D.conj(), inverse @ D).real
            np.testing.assert_allclose(grid_powers(R, D, "mvdr", loading), expected,
                                       rtol=1e-12, atol=0)

    def test_mvdr_never_exceeds_bartlett(self, stock):
        s = stock.sensor
        source = Direction(-10, 5)
        R = single_source_covariance(s, source, 2.0, 0.05)
        for az, el in [(-10, 5), (0, 0), (44, -3), (-80, 60)]:
            sv = look_vector(s, Direction(az, el))
            assert look_power(R, sv, "mvdr") <= look_power(R, sv, "bartlett") + 1e-12

    def test_scale_equivariance(self, stock):
        s = stock.sensor
        source = Direction(15, -20)
        sv = look_vector(s, Direction(10, 0))
        R = single_source_covariance(s, source)
        alpha = 3.7
        for kind in ("bartlett", "mvdr"):
            assert np.isclose(look_power(alpha * R, sv, kind),
                              alpha * look_power(R, sv, kind), rtol=1e-12)

    def test_interference_null_depth(self, stock):
        # beam steered at the desired source: adding the interferer raises
        # the adaptive output at least 10 dB less than the Bartlett output
        s = stock.sensor
        desired = Direction(0, 0)
        jammer = Direction(30, 0)
        sv_d = look_vector(s, desired)
        R_quiet = covariance(s, [PointSource(desired, 1.0)], 0.01)
        # interferer power = 100 * noise
        R_jammed = covariance(s, [PointSource(desired, 1.0), PointSource(jammer, 1.0)], 0.01)
        leak = {kind: look_power(R_jammed, sv_d, kind) - look_power(R_quiet, sv_d, kind)
                for kind in ("bartlett", "mvdr")}
        assert leak["mvdr"] > 0
        assert 10 * math.log10(leak["bartlett"] / leak["mvdr"]) >= 10.0


class TestPowerMap:
    def test_noise_only_map_is_constant(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        R = 0.1 * np.eye(L)
        grid = dataclasses.replace(stock.grid, az_step_deg=5.0, el_step_deg=5.0)
        for bf in ("bartlett", "mvdr"):
            pmap = power_map(s.geometry, R, grid, s.frequency_hz, s.c_mps, beamformer=bf)
            spread = pmap.power.max() - pmap.power.min()
            assert spread <= 1e-9 * pmap.power.max()

    @pytest.mark.parametrize("source", [(0, 0), (30, 0)])
    @pytest.mark.parametrize("bf", ["bartlett", "mvdr"])
    def test_argmax_at_source(self, stock, source, bf):
        s = stock.sensor
        R = single_source_covariance(s, Direction(*source), 1.0, 0.01)
        pmap = power_map(s.geometry, R, stock.grid, s.frequency_hz, s.c_mps, beamformer=bf)
        i, j = np.unravel_index(np.argmax(pmap.power), pmap.power.shape)
        assert abs(pmap.azimuth_deg[j] - source[0]) <= 1.0
        assert abs(pmap.elevation_deg[i] - source[1]) <= 1.0

    def test_scan_is_deterministic(self, stock):
        s = stock.sensor
        R = single_source_covariance(s, Direction(5, 5))
        grid = dataclasses.replace(stock.grid, az_step_deg=3.0, el_step_deg=3.0)
        a = power_map(s.geometry, R, grid, s.frequency_hz, s.c_mps, beamformer="mvdr")
        b = power_map(s.geometry, R, grid, s.frequency_hz, s.c_mps, beamformer="mvdr")
        assert np.array_equal(a.power, b.power)

    def test_cached_steering_follows_every_key_part(self, stock):
        # consecutive calls differ in one key part, so a key that left any
        # part out would hand back the previous call's matrix
        s = stock.sensor
        f, c = s.frequency_hz, s.c_mps
        ring = build_uniform_circular_array(16, 0.030)
        twin = build_uniform_circular_array(16, 0.030)
        small = build_uniform_circular_array(12, 0.030)
        wide = build_uniform_circular_array(16, 0.060)
        coarse = dataclasses.replace(stock.grid, az_step_deg=5.0, el_step_deg=5.0)
        skew = dataclasses.replace(stock.grid, az_start_deg=-60.0, az_step_deg=4.0,
                                   el_step_deg=6.0)
        rng = np.random.default_rng(8)

        def random_covariance(n):
            A = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
            return A @ A.conj().T / (2 * n)

        R = {12: random_covariance(12), 16: random_covariance(16)}
        calls = [(ring, coarse, f, c), (twin, coarse, f, c),
                 (small, coarse, f, c), (ring, coarse, f, c),
                 (wide, coarse, f, c), (wide, skew, f, c),
                 (wide, coarse, f, c), (wide, coarse, 36_000.0, c),
                 (wide, coarse, 36_000.0, 1480.0), (ring, coarse, 36_000.0, 1480.0),
                 (ring, coarse, f, c)]
        for geom, grid, freq, c in calls:
            az, el = grid.axes()
            AZ, EL = np.meshgrid(az, el)
            D = steering_matrix(geom, AZ.ravel(), EL.ravel(), freq, c)
            cov = R[geom.n_elements]
            for bf, loading in (("bartlett", 0.0), ("mvdr", 0.0), ("mvdr", 1e-3)):
                pmap = power_map(geom, cov, grid, freq, c, beamformer=bf, loading=loading)
                assert np.array_equal(pmap.power.ravel(), grid_powers(cov, D, bf, loading))

    def test_cached_steering_is_shared_and_read_only(self, stock):
        s = stock.sensor
        grid = dataclasses.replace(stock.grid, az_step_deg=5.0, el_step_deg=5.0)
        ring, twin = (build_uniform_circular_array(16, 0.030) for _ in range(2))
        D = _scan_steering(ring, grid, s.frequency_hz, s.c_mps)
        assert _scan_steering(twin, grid, s.frequency_hz, s.c_mps) is D
        assert not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 0.0

    def test_grid_powers_match_per_column_reference(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        az, el = dataclasses.replace(stock.grid, az_step_deg=5.0, el_step_deg=5.0).axes()
        AZ, EL = np.meshgrid(az, el)
        D = steering_matrix(s.geometry, AZ.ravel(), EL.ravel(), s.frequency_hz, s.c_mps)
        rng = np.random.default_rng(21)
        for _ in range(3):
            A = rng.standard_normal((L, 2 * L)) + 1j * rng.standard_normal((L, 2 * L))
            R = A @ A.conj().T / (2 * L)
            bartlett = [np.vdot(d, R @ d).real / L**2 for d in D.T]
            np.testing.assert_allclose(grid_powers(R, D, "bartlett"), bartlett, rtol=1e-12)
            for loading in (0.0, 1e-3):
                R_loaded = R + loading * (np.trace(R).real / L) * np.eye(L)
                mvdr = [1.0 / np.vdot(d, np.linalg.solve(R_loaded, d)).real for d in D.T]
                np.testing.assert_allclose(grid_powers(R, D, "mvdr", loading), mvdr,
                                           rtol=1e-12)

    def test_grid_powers_ignore_memory_layout(self, stock):
        # the kernel sums over a float view of D, which needs C order
        s = stock.sensor
        az, el = dataclasses.replace(stock.grid, az_step_deg=5.0, el_step_deg=5.0).axes()
        AZ, EL = np.meshgrid(az, el)
        D = steering_matrix(s.geometry, AZ.ravel(), EL.ravel(), s.frequency_hz, s.c_mps)
        R = single_source_covariance(s, Direction(20, -10))
        for layout in (D[:, ::3], np.asfortranarray(D)):
            assert not layout.flags.c_contiguous
            for bf, loading in (("bartlett", 0.0), ("mvdr", 0.0), ("mvdr", 1e-3)):
                assert np.array_equal(grid_powers(R, layout, bf, loading),
                                      grid_powers(R, np.ascontiguousarray(layout), bf, loading))

    # fewer nodes than one block, and a last block cut short
    @pytest.mark.parametrize("n_nodes", [100, 2 * _COLUMN_BLOCK + 123])
    def test_column_blocks_change_no_bit(self, stock, n_nodes):
        s = stock.sensor
        L = s.geometry.n_elements
        rng = np.random.default_rng(n_nodes)
        az, el = rng.uniform(-90.0, 90.0, (2, n_nodes))
        D = steering_matrix(s.geometry, az, el, s.frequency_hz, s.c_mps)
        X = rng.standard_normal((L, 2 * L)) + 1j * rng.standard_normal((L, 2 * L))
        R = X @ X.conj().T / (2 * L)
        inv_factor = np.linalg.inv(np.linalg.cholesky(R))
        # the Bartlett and the MVDR matrix of grid_powers
        for A in (R / (L * L), inv_factor.conj().T @ inv_factor):
            unblocked = np.einsum("lj,lj->j", D.view(float), (A @ D).view(float))
            assert np.array_equal(_quadratic_form(A, D), unblocked[0::2] + unblocked[1::2])

    @pytest.mark.parametrize("bf", ["bartlett", "mvdr"])
    def test_warm_scan_holds_a_fraction_of_the_steering_matrix(self, stock, traced_peak, bf):
        s = stock.sensor
        grid = dataclasses.replace(stock.grid, az_step_deg=0.5, el_step_deg=0.5)
        R = single_source_covariance(s, Direction(20, -10))
        D = _scan_steering(s.geometry, grid, s.frequency_hz, s.c_mps)  # warms the cache
        pmap, peak = traced_peak(power_map, s.geometry, R, grid, s.frequency_hz, s.c_mps,
                                 beamformer=bf)
        assert peak - pmap.power.nbytes < D.nbytes / 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_power_map_rejects_non_finite_or_negative_power(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            PowerMap(azimuth_deg=np.arange(2.0), elevation_deg=np.zeros(1),
                     power=[[bad, 1.0]])

    def test_holds_read_only_copies_of_the_callers_arrays(self):
        az, el, power = np.arange(3.0), np.arange(2.0), np.ones((2, 3))
        pmap = PowerMap(azimuth_deg=az, elevation_deg=el, power=power)
        az[0] = el[0] = power[0, 0] = math.nan
        assert np.isfinite(pmap.power).all()
        assert pmap.azimuth_deg[0] == pmap.elevation_deg[0] == 0.0
        assert pmap.to_db() is pmap.to_db()  # computed once, shared by the exports
        for array in (pmap.azimuth_deg, pmap.elevation_deg, pmap.power, pmap.to_db()):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_grid_spec_validation(self, stock):
        s = stock.sensor
        with pytest.raises(ValueError, match="az_step"):
            dataclasses.replace(stock.grid, az_step_deg=0.0)
        with pytest.raises(ValueError, match="el_stop"):
            dataclasses.replace(stock.grid, el_start_deg=10, el_stop_deg=-10)

    def test_unknown_beamformer(self, stock):
        s = stock.sensor
        L = s.geometry.n_elements
        with pytest.raises(ValueError, match="beamformer"):
            grid_powers(np.eye(L), np.ones((L, 1)), "music")


class TestPsfMetrics:
    def test_gaussian_widths_match_fwhm(self):
        az = np.arange(-30.0, 30.5, 1.0)
        el = np.arange(-30.0, 30.5, 1.0)
        AZ, EL = np.meshgrid(az, el)
        sigma = 5.0
        power = np.exp(-(AZ ** 2 + EL ** 2) / (2 * sigma ** 2))
        pmap = PowerMap(azimuth_deg=az, elevation_deg=el, power=power)
        metrics = psf_metrics(pmap)
        fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma
        assert abs(metrics.mainlobe_width_az_deg - fwhm) <= 0.5
        assert abs(metrics.mainlobe_width_el_deg - fwhm) <= 0.5
        assert metrics.peak_direction == Direction(0.0, 0.0)
        assert metrics.peak_sidelobe_db == -math.inf  # one lobe, no other maximum

    def test_constant_map_has_no_peak(self):
        pmap = PowerMap(azimuth_deg=np.arange(5.0), elevation_deg=np.arange(5.0),
                        power=np.ones((5, 5)))
        with pytest.raises(NoPeakError):
            psf_metrics(pmap)

    def test_two_equal_maxima_rejected(self):
        power = np.ones((5, 5)) * 0.1
        power[1, 1] = power[3, 3] = 1.0
        pmap = PowerMap(azimuth_deg=np.arange(5.0), elevation_deg=np.arange(5.0),
                        power=power)
        with pytest.raises(NoPeakError):
            psf_metrics(pmap)

    @pytest.mark.parametrize("source", [(0, 0), (-45, -15)])
    def test_psf_peaks_at_source(self, stock, source):
        s = stock.sensor
        grid = stock.grid
        for bf in ("bartlett", "mvdr"):
            pmap, metrics = psf(s.geometry, Direction(*source), 1.0, 0.01, grid,
                                s.frequency_hz, s.c_mps, beamformer=bf)
            assert abs(metrics.peak_direction.azimuth_deg - source[0]) <= 1.0
            assert abs(metrics.peak_direction.elevation_deg - source[1]) <= 1.0
            assert metrics.peak_sidelobe_db <= 0.0
            assert metrics.mainlobe_width_az_deg > 0
            assert metrics.mainlobe_width_el_deg > 0

    def test_boresight_bartlett_sidelobe_is_the_j0_ring(self, stock):
        # a ring's boresight pattern is J0(k a sin theta); its first
        # sidelobe peaks where J0' = -J1 = 0
        s = stock.sensor
        _, metrics = psf(s.geometry, Direction(0, 0), 1.0, 0.0, stock.grid, s.frequency_hz, s.c_mps)
        j11 = scipy.special.jn_zeros(1, 1)[0]
        ring = 20.0 * math.log10(abs(scipy.special.j0(j11)))  # -7.8991 dB
        assert abs(metrics.peak_sidelobe_db - ring) <= 0.01

    def test_mvdr_beats_bartlett_metrics(self, stock):
        s = stock.sensor
        grid = stock.grid
        _, bartlett = psf(s.geometry, Direction(30, 0), 1.0, 0.01, grid, s.frequency_hz, s.c_mps,
                          beamformer="bartlett")
        _, mvdr = psf(s.geometry, Direction(30, 0), 1.0, 0.01, grid, s.frequency_hz, s.c_mps,
                      beamformer="mvdr")
        assert mvdr.mainlobe_width_az_deg < bartlett.mainlobe_width_az_deg
        assert mvdr.mainlobe_width_el_deg < bartlett.mainlobe_width_el_deg
        assert mvdr.peak_sidelobe_db < bartlett.peak_sidelobe_db


def per_cell_maxima(pmap):
    """Reference local maxima: (power, az, el) of every cell strictly above
    all its in-grid 8 neighbours and, for an el = +-90 row (one direction),
    of its first highest cell when strictly above every cell of the next
    row; in descending power, then ascending azimuth and elevation."""
    P = pmap.power.tolist()
    H, W = len(P), len(P[0])
    found = []
    for i in range(H):
        if abs(pmap.elevation_deg[i]) == 90.0:
            j = P[i].index(max(P[i]))
            candidates = [(j, [(a, b) for a in (i - 1, i + 1) if 0 <= a < H
                               for b in range(W)])]
        else:
            candidates = [(j, [(a, b) for a in range(max(i - 1, 0), min(i + 2, H))
                               for b in range(max(j - 1, 0), min(j + 2, W)) if (a, b) != (i, j)])
                          for j in range(W)]
        for j, around in candidates:
            if all(P[i][j] > P[a][b] for a, b in around):
                found.append((P[i][j], float(pmap.azimuth_deg[j]),
                              float(pmap.elevation_deg[i])))
    return sorted(found, key=lambda t: (-t[0], t[1], t[2]))


class TestLocalMaxima:
    @pytest.mark.parametrize("bf", ["bartlett", "mvdr"])
    @pytest.mark.parametrize("source", [(0, 0), (30, 0), (-45, -15)])
    def test_stock_maps_match_per_cell_reference(self, stock, source, bf):
        s = stock.sensor
        pmap, metrics = psf(s.geometry, Direction(*source), 1.0, 0.01, stock.grid,
                            s.frequency_hz, s.c_mps, beamformer=bf)
        reference = per_cell_maxima(pmap)
        assert list(zip(*(a.tolist() for a in _local_maxima(pmap)))) == reference
        peaks = doa_peaks(pmap, max_peaks=len(reference))
        assert [(p, d.azimuth_deg, d.elevation_deg) for d, p in peaks] == reference
        (peak, *_), (sidelobe, *_) = reference[:2]
        assert metrics.peak_sidelobe_db == pytest.approx(10.0 * math.log10(sidelobe / peak),
                                                         abs=1e-12)


class TestDoaPeaks:
    @pytest.mark.parametrize("bf", ["bartlett", "mvdr"])
    @pytest.mark.parametrize("el", [90.0, -90.0, 89.7])
    def test_source_at_a_pole_is_found_at_the_pole(self, stock, el, bf):
        # each el = +-90 row is one direction; its cells differ by rounding,
        # so the strict 8-neighbour rule alone would miss a pole source
        s = stock.sensor
        R = single_source_covariance(s, Direction(0, el), 1.0, 0.01)
        pmap = power_map(s.geometry, R, stock.grid, s.frequency_hz, s.c_mps, beamformer=bf)
        (top, power), = doa_peaks(pmap)
        assert top.elevation_deg == math.copysign(90.0, el)
        assert power == pmap.power.max()
        assert list(zip(*(a.tolist() for a in _local_maxima(pmap)))) == per_cell_maxima(pmap)

    def test_single_source_yields_one_dominant_peak(self, stock):
        s = stock.sensor
        R = single_source_covariance(s, Direction(10, -5), 1.0, 0.01)
        pmap = power_map(s.geometry, R, stock.grid, s.frequency_hz, s.c_mps, beamformer="mvdr")
        peaks = doa_peaks(pmap, max_peaks=3, min_separation_deg=10.0)
        assert peaks
        top, _ = peaks[0]
        assert abs(top.azimuth_deg - 10) <= 1.0
        assert abs(top.elevation_deg + 5) <= 1.0

    def test_two_sources_resolved(self, stock):
        s = stock.sensor
        R = covariance(s, [PointSource(Direction(-30, 0), 1.0),
                           PointSource(Direction(30, 0), 1.0)], 0.01)
        pmap = power_map(s.geometry, R, stock.grid, s.frequency_hz, s.c_mps, beamformer="mvdr")
        peaks = doa_peaks(pmap, max_peaks=2, min_separation_deg=10.0)
        assert len(peaks) == 2
        azimuths = sorted(p[0].azimuth_deg for p in peaks)
        assert abs(azimuths[0] + 30) <= 1.0
        assert abs(azimuths[1] - 30) <= 1.0

    def test_constant_map_yields_nothing(self):
        pmap = PowerMap(azimuth_deg=np.arange(10.0), elevation_deg=np.arange(8.0),
                        power=np.full((8, 10), 2.5))
        assert doa_peaks(pmap, max_peaks=4, min_separation_deg=1.0) == []


def per_cell_csv(pmap, path):
    """Reference power-map writer: one formatted write per grid cell."""
    db = pmap.to_db()
    with open(path, "w", newline="") as fh:
        fh.write("azimuth_deg,elevation_deg,power_linear,power_db\n")
        for i, el in enumerate(pmap.elevation_deg):
            for j, az in enumerate(pmap.azimuth_deg):
                fh.write(f"{az:.10g},{el:.10g},{pmap.power[i, j]:.10g},{db[i, j]:.4f}\n")


def assert_same_csv_bytes(pmap, tmp_path):
    save_power_map_csv(pmap, tmp_path / "fast.csv")
    per_cell_csv(pmap, tmp_path / "ref.csv")
    blob = (tmp_path / "fast.csv").read_bytes()
    assert blob == (tmp_path / "ref.csv").read_bytes()
    assert blob.count(b"\n") == pmap.elevation_deg.size * pmap.azimuth_deg.size + 1
    assert blob.endswith(b"\n")


class TestExports:
    @pytest.mark.parametrize("bf, loading", [("bartlett", 0.0), ("mvdr", 1e-3)])
    def test_stock_psf_csv_bytes_match_per_cell_writer(self, stock, tmp_path, bf, loading):
        s = stock.sensor
        pmap, _ = psf(s.geometry, Direction(-37, 12), 1.0, 0.01, stock.grid, s.frequency_hz, s.c_mps,
                      beamformer=bf, loading=loading)
        assert_same_csv_bytes(pmap, tmp_path)

    def test_edge_value_csv_bytes_match_per_cell_writer(self, tmp_path):
        az = -3.0 + 0.1 * np.arange(12)  # 0.1 deg step, negative, inexact tails
        el = np.array([-89.5, -0.1, 0.0, 0.1, 33.3])
        power = np.zeros((el.size, az.size))
        power[0, :6] = [1.0, 1e-8, 1e-12, 5e-324, 0.5, 1.0 / 3.0]  # peak, -80 dB, below
        power[1, :4] = [0.1, 0.123456789012345, 2e-8, 9.999999e-9]
        power[4, -1] = 0.999999999999
        pmap = PowerMap(azimuth_deg=az, elevation_deg=el, power=power)
        assert (pmap.to_db() == -80.0).sum() > 1
        assert_same_csv_bytes(pmap, tmp_path)
        # exponent notation, a round-up into fixed notation, and a peak so
        # large that its exponent takes the % path next to numpy-built cells
        power[2, :3] = [1e10, 9.99999999995e-05, 1e300]
        assert_same_csv_bytes(PowerMap(azimuth_deg=az, elevation_deg=el, power=power), tmp_path)

    def test_csv_and_pgm(self, stock, tmp_path):
        s = stock.sensor
        R = single_source_covariance(s, Direction(0, 0))
        grid = dataclasses.replace(stock.grid, az_start_deg=-10, az_stop_deg=10,
                                   el_start_deg=-10, el_stop_deg=10)
        pmap = power_map(s.geometry, R, grid, s.frequency_hz, s.c_mps, beamformer="bartlett")
        csv_path = tmp_path / "map.csv"
        save_power_map_csv(pmap, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "azimuth_deg,elevation_deg,power_linear,power_db"
        assert len(lines) == 1 + 21 * 21
        pgm_path = tmp_path / "map.pgm"
        save_power_map_pgm(pmap, pgm_path, metadata={"beamformer": "bartlett"})
        blob = pgm_path.read_bytes()
        assert blob.startswith(b"P5\n21 21\n255\n")
        assert len(blob) == len(b"P5\n21 21\n255\n") + 21 * 21
        sidecar = (tmp_path / "map.pgm.meta.txt").read_text()
        assert "beamformer = bartlett" in sidecar

    def test_exports_over_a_longer_file_hold_only_the_new_bytes(self, stock, tmp_path):
        s = stock.sensor
        R = single_source_covariance(s, Direction(0, 0))
        big, small = (power_map(s.geometry, R,
                                dataclasses.replace(stock.grid, az_start_deg=-span, az_stop_deg=span,
                                                    el_start_deg=-span, el_stop_deg=span),
                                s.frequency_hz, s.c_mps) for span in (20, 3))
        (tmp_path / "fresh").mkdir()
        for out, maps in ((tmp_path, (big, small)), (tmp_path / "fresh", (small,))):
            for pmap in maps:
                save_power_map_csv(pmap, out / "map.csv")
                save_power_map_pgm(pmap, out / "map.pgm",
                                   metadata={"note": "x" * pmap.power.size})
        for name in ("map.csv", "map.pgm", "map.pgm.meta.txt"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        assert_same_csv_bytes(small, tmp_path)  # fast.csv again, over a longer file

    def test_db_floor(self, stock):
        s = stock.sensor
        R = single_source_covariance(s, Direction(0, 0), 1.0, 1e-12)
        grid = dataclasses.replace(stock.grid, az_step_deg=10, el_step_deg=10)
        pmap = power_map(s.geometry, R, grid, s.frequency_hz, s.c_mps,
                         beamformer="mvdr", loading=1e-6)
        db = pmap.to_db()
        assert db.max() == 0.0
        assert db.min() >= -80.0


def ascii_field(value, fmt):
    """One value through _ascii_fields, NULs dropped."""
    row = _ascii_fields(np.array([value]), fmt)[0]
    if fmt == "%.10g":
        assert row[-1] == 0  # free for the separator
    return row[row != 0].tobytes()


class TestAsciiFields:
    @given(st.floats(allow_infinity=False, allow_nan=False))  # axes are signed
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @example(1e-5)
    @example(9.99999999995e-05)  # rounds up into fixed notation: 0.0001
    @example(1e-4)
    @example(1e10)
    @example(9999999999.5)  # rounds up to the next power of ten
    @example(0.0056063946225)  # x * 1e12 rounds to a tie the exact product is above
    @example(0.0)
    @example(5e-324)
    @example(1e300)
    def test_g10_matches_python(self, x):
        assert ascii_field(x, "%.10g") == (b"%.10g" % x)

    @given(st.floats(allow_infinity=False, allow_nan=False))
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @example(-0.0)
    @example(-1e-9)  # -0.0000
    @example(-0.03125)  # a tie at the fifth decimal, rounded to even
    @example(0.80175)  # v * 1e4 rounds to a tie the exact product is below
    @example(99.99995)
    @example(-80.0)
    def test_f4_matches_python(self, v):
        assert ascii_field(v, "%.4f") == (b"%.4f" % v)

    @given(st.lists(st.floats(allow_infinity=False, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rows_keep_their_own_layout(self, values):
        # mixed exponents and fallbacks in one array share the columns
        for fmt in ("%.10g", "%.4f"):
            rows = _ascii_fields(np.array(values), fmt)
            assert [row[row != 0].tobytes() for row in rows] == \
                [(fmt % x).encode() for x in values]

    @pytest.mark.parametrize("bf, loading", [("bartlett", 0.0), ("mvdr", 1e-3)])
    def test_stock_map_cells_take_the_numpy_path(self, stock, bf, loading):
        # Python % formats only the few cells the numpy path cannot prove
        s = stock.sensor
        pmap, _ = psf(s.geometry, Direction(-37, 12), 1.0, 0.01, stock.grid, s.frequency_hz, s.c_mps,
                      beamformer=bf, loading=loading)
        for words, values in ((_g10_words, pmap.power), (_f4_words, pmap.to_db())):
            a = np.abs(values.ravel())
            _, fast = words(a, np.signbit(values.ravel()), _format_tables())
            assert fast.mean() > 0.999
