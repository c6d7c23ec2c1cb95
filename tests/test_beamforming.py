import math

import numpy as np
import pytest

from sonarray.beamforming import (GridSpec, PowerMap, _scan_steering, doa_peaks,
                                  grid_powers, mvdr_weights, power_map, psf,
                                  psf_metrics, save_power_map_csv,
                                  save_power_map_pgm)
from sonarray.errors import NoPeakError, SingularMatrixError
from sonarray.geometry import (Direction, build_uniform_circular_array,
                               default_circular_array, steering_matrix,
                               steering_vector)
from sonarray.signalmodel import PointSource, Scene, covariance_analytic

FREQ = 40_000.0
C = 343.0
L = 16


@pytest.fixture(scope="module")
def geometry():
    return default_circular_array()


def single_source_scene(direction, sd2=1.0, sv2=0.1):
    return Scene(desired=PointSource(direction, sd2), noise_power=sv2)


def look_power(R, sv, kind, loading=0.0):
    """Beamformer power toward one steering vector, via the grid path."""
    return grid_powers(R, sv.entries[:, None], kind, loading)[0]


def mvdr_closed_form(rho, sd2, sv2, n):
    """Matrix-inversion-lemma oracle for a single-source-plus-noise scene.

    rho is the normalized Bartlett pattern |d^H d_s|^2 / L^2 at the look.
    """
    return sv2 * (sv2 + sd2 * n) / (n * (sv2 + sd2 * n * (1.0 - rho)))


class TestBartlett:
    def test_unit_dyad_at_source(self, geometry):
        look = Direction(0, 0)
        sv = steering_vector(geometry, look, FREQ, C)
        R = covariance_analytic(geometry, single_source_scene(look, 1.0, 0.0), FREQ, C)
        assert abs(look_power(R, sv, "bartlett") - 1.0) < 1e-12

    def test_white_noise_floor(self, geometry):
        sv = steering_vector(geometry, Direction(17, -4), FREQ, C)
        R = 0.1 * np.eye(L)
        assert abs(look_power(R, sv, "bartlett") - 0.1 / L) < 1e-15

    def test_source_plus_noise_adds(self, geometry):
        look = Direction(0, 0)
        sv = steering_vector(geometry, look, FREQ, C)
        R = covariance_analytic(geometry, single_source_scene(look), FREQ, C)
        assert abs(look_power(R, sv, "bartlett") - (1.0 + 0.1 / L)) < 1e-12

    def test_dimension_mismatch(self, geometry):
        sv = steering_vector(geometry, Direction(0, 0), FREQ, C)
        for kind in ("bartlett", "mvdr"):
            with pytest.raises(ValueError):
                look_power(np.eye(4), sv, kind)


class TestMvdr:
    def test_identity_reduces_to_bartlett_weights(self, geometry):
        sv = steering_vector(geometry, Direction(33, 12), FREQ, C)
        w = mvdr_weights(np.eye(L, dtype=complex), sv.entries)
        assert np.max(np.abs(w - sv.entries / L)) < 1e-12

    def test_closed_form_at_source(self, geometry):
        look = Direction(0, 0)
        sv = steering_vector(geometry, look, FREQ, C)
        R = covariance_analytic(geometry, single_source_scene(look), FREQ, C)
        expected = 1.0 + 0.1 / L  # rho = 1 in the inversion-lemma oracle
        assert abs(mvdr_closed_form(1.0, 1.0, 0.1, L) - expected) < 1e-15
        assert abs(look_power(R, sv, "mvdr") - expected) <= 1e-9 * expected
        w = mvdr_weights(R, sv.entries)
        power_via_weights = np.vdot(w, R @ w).real
        assert abs(power_via_weights - look_power(R, sv, "mvdr")) <= 1e-9 * expected

    def test_zero_matrix_is_singular(self, geometry):
        sv = steering_vector(geometry, Direction(0, 0), FREQ, C)
        with pytest.raises(SingularMatrixError):
            mvdr_weights(np.zeros((L, L), dtype=complex), sv.entries, loading=0.0)

    def test_loading_rescues_singular_covariance(self, geometry):
        look = Direction(0, 0)
        sv = steering_vector(geometry, look, FREQ, C)
        R = covariance_analytic(geometry, single_source_scene(look, 1.0, 0.0), FREQ, C)
        with pytest.raises(SingularMatrixError):
            look_power(R, sv, "mvdr", loading=0.0)
        assert look_power(R, sv, "mvdr", loading=1e-3) > 0

    def test_white_noise_power_is_flat(self, geometry):
        R = 0.25 * np.eye(L)
        for az, el in [(0, 0), (41, 7), (-60, -30)]:
            sv = steering_vector(geometry, Direction(az, el), FREQ, C)
            assert abs(look_power(R, sv, "mvdr") - 0.25 / L) < 1e-12

    def test_closed_form_across_directions(self, geometry):
        source = Direction(20, 0)
        d_s = steering_vector(geometry, source, FREQ, C).entries
        R = covariance_analytic(geometry, single_source_scene(source, 1.0, 0.1), FREQ, C)
        for az, el in [(20, 0), (0, 0), (-45, -15), (60, 25), (25, 0)]:
            sv = steering_vector(geometry, Direction(az, el), FREQ, C)
            rho = abs(np.vdot(sv.entries, d_s)) ** 2 / L ** 2
            expected = mvdr_closed_form(rho, 1.0, 0.1, L)
            assert abs(look_power(R, sv, "mvdr") - expected) <= 1e-9 * expected

    def test_distortionless_constraint(self, geometry):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
        R = A @ A.conj().T / L + 0.01 * np.eye(L)
        for az, el in [(0, 0), (30, 10), (-75, 40)]:
            sv = steering_vector(geometry, Direction(az, el), FREQ, C)
            w = mvdr_weights(R, sv.entries)
            assert abs(np.vdot(w, sv.entries) - 1.0) <= 1e-9

    def test_mvdr_never_exceeds_bartlett(self, geometry):
        source = Direction(-10, 5)
        R = covariance_analytic(geometry, single_source_scene(source, 2.0, 0.05), FREQ, C)
        for az, el in [(-10, 5), (0, 0), (44, -3), (-80, 60)]:
            sv = steering_vector(geometry, Direction(az, el), FREQ, C)
            assert look_power(R, sv, "mvdr") <= look_power(R, sv, "bartlett") + 1e-12

    def test_scale_equivariance(self, geometry):
        source = Direction(15, -20)
        sv = steering_vector(geometry, Direction(10, 0), FREQ, C)
        R = covariance_analytic(geometry, single_source_scene(source), FREQ, C)
        alpha = 3.7
        for kind in ("bartlett", "mvdr"):
            assert np.isclose(look_power(alpha * R, sv, kind),
                              alpha * look_power(R, sv, kind), rtol=1e-12)

    def test_interference_null_depth(self, geometry):
        # beam steered at the desired source: the adaptive pattern puts
        # at least 10 dB more rejection on the interferer than Bartlett
        desired = Direction(0, 0)
        jammer = Direction(30, 0)
        scene = Scene(desired=PointSource(desired, 1.0),
                      interferers=(PointSource(jammer, 1.0),),
                      noise_power=0.01)  # interferer power = 100 * noise
        R = covariance_analytic(geometry, scene, FREQ, C)
        sv_d = steering_vector(geometry, desired, FREQ, C)
        g = steering_vector(geometry, jammer, FREQ, C).entries
        w_bartlett = sv_d.entries / L
        w_mvdr = mvdr_weights(R, sv_d.entries)
        rejection_gain = (abs(np.vdot(w_bartlett, g)) ** 2
                          / abs(np.vdot(w_mvdr, g)) ** 2)
        assert 10 * math.log10(rejection_gain) >= 10.0


class TestPowerMap:
    def test_noise_only_map_is_constant(self, geometry):
        R = 0.1 * np.eye(L)
        grid = GridSpec(az_step_deg=5.0, el_step_deg=5.0)
        for bf in ("bartlett", "mvdr"):
            pmap = power_map(geometry, R, grid, FREQ, C, beamformer=bf)
            spread = pmap.power.max() - pmap.power.min()
            assert spread <= 1e-9 * pmap.power.max()

    @pytest.mark.parametrize("source", [(0, 0), (30, 0)])
    @pytest.mark.parametrize("bf", ["bartlett", "mvdr"])
    def test_argmax_at_source(self, geometry, source, bf):
        scene = single_source_scene(Direction(*source), 1.0, 0.01)
        R = covariance_analytic(geometry, scene, FREQ, C)
        pmap = power_map(geometry, R, GridSpec(), FREQ, C, beamformer=bf)
        i, j = np.unravel_index(np.argmax(pmap.power), pmap.power.shape)
        assert abs(pmap.azimuth_deg[j] - source[0]) <= 1.0
        assert abs(pmap.elevation_deg[i] - source[1]) <= 1.0

    def test_scan_is_deterministic(self, geometry):
        R = covariance_analytic(geometry, single_source_scene(Direction(5, 5)), FREQ, C)
        grid = GridSpec(az_step_deg=3.0, el_step_deg=3.0)
        a = power_map(geometry, R, grid, FREQ, C, beamformer="mvdr")
        b = power_map(geometry, R, grid, FREQ, C, beamformer="mvdr")
        assert np.array_equal(a.power, b.power)

    def test_cached_steering_follows_every_key_part(self):
        # consecutive calls differ in one key part, so a key that left any
        # part out would hand back the previous call's matrix
        ring = build_uniform_circular_array(16, 0.030)
        twin = build_uniform_circular_array(16, 0.030)
        small = build_uniform_circular_array(12, 0.030)
        wide = build_uniform_circular_array(16, 0.060)
        coarse = GridSpec(az_step_deg=5.0, el_step_deg=5.0)
        skew = GridSpec(az_start_deg=-60.0, az_step_deg=4.0, el_step_deg=6.0)
        rng = np.random.default_rng(8)

        def covariance(n):
            A = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
            return A @ A.conj().T / (2 * n)

        R = {12: covariance(12), 16: covariance(16)}
        calls = [(ring, coarse, FREQ, C), (twin, coarse, FREQ, C),
                 (small, coarse, FREQ, C), (ring, coarse, FREQ, C),
                 (wide, coarse, FREQ, C), (wide, skew, FREQ, C),
                 (wide, coarse, FREQ, C), (wide, coarse, 36_000.0, C),
                 (wide, coarse, 36_000.0, 1480.0), (ring, coarse, 36_000.0, 1480.0),
                 (ring, coarse, FREQ, C)]
        for geom, grid, freq, c in calls:
            az, el = grid.axes()
            AZ, EL = np.meshgrid(az, el)
            D = steering_matrix(geom, AZ.ravel(), EL.ravel(), freq, c)
            cov = R[geom.n_elements]
            for bf in ("bartlett", "mvdr"):
                pmap = power_map(geom, cov, grid, freq, c, beamformer=bf)
                assert np.array_equal(pmap.power.ravel(), grid_powers(cov, D, bf))

    def test_cached_steering_is_shared_and_read_only(self):
        grid = GridSpec(az_step_deg=5.0, el_step_deg=5.0)
        D = _scan_steering(build_uniform_circular_array(16, 0.030), grid, FREQ, C)
        assert _scan_steering(build_uniform_circular_array(16, 0.030), grid, FREQ, C) is D
        assert not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 0.0

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError, match="az_step"):
            GridSpec(az_step_deg=0.0)
        with pytest.raises(ValueError, match="el_stop"):
            GridSpec(el_start_deg=10, el_stop_deg=-10)

    def test_unknown_beamformer(self, geometry):
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
    def test_psf_peaks_at_source(self, geometry, source):
        grid = GridSpec()
        for bf in ("bartlett", "mvdr"):
            pmap, metrics = psf(geometry, Direction(*source), 1.0, 0.01, grid,
                                FREQ, C, beamformer=bf)
            assert abs(metrics.peak_direction.azimuth_deg - source[0]) <= 1.0
            assert abs(metrics.peak_direction.elevation_deg - source[1]) <= 1.0
            assert metrics.peak_sidelobe_db <= 0.0
            assert metrics.mainlobe_width_az_deg > 0
            assert metrics.mainlobe_width_el_deg > 0

    def test_mvdr_beats_bartlett_metrics(self, geometry):
        grid = GridSpec()
        _, bartlett = psf(geometry, Direction(30, 0), 1.0, 0.01, grid, FREQ, C,
                          beamformer="bartlett")
        _, mvdr = psf(geometry, Direction(30, 0), 1.0, 0.01, grid, FREQ, C,
                      beamformer="mvdr")
        assert mvdr.mainlobe_width_az_deg < bartlett.mainlobe_width_az_deg
        assert mvdr.mainlobe_width_el_deg < bartlett.mainlobe_width_el_deg
        assert mvdr.peak_sidelobe_db < bartlett.peak_sidelobe_db


class TestDoaPeaks:
    def test_single_source_yields_one_dominant_peak(self, geometry):
        R = covariance_analytic(geometry, single_source_scene(Direction(10, -5), 1.0, 0.01),
                                FREQ, C)
        pmap = power_map(geometry, R, GridSpec(), FREQ, C, beamformer="mvdr")
        peaks = doa_peaks(pmap, max_peaks=3, min_separation_deg=10.0)
        assert peaks
        top, _ = peaks[0]
        assert abs(top.azimuth_deg - 10) <= 1.0
        assert abs(top.elevation_deg + 5) <= 1.0

    def test_two_sources_resolved(self, geometry):
        scene = Scene(desired=PointSource(Direction(-30, 0), 1.0),
                      interferers=(PointSource(Direction(30, 0), 1.0),),
                      noise_power=0.01)
        R = covariance_analytic(geometry, scene, FREQ, C)
        pmap = power_map(geometry, R, GridSpec(), FREQ, C, beamformer="mvdr")
        peaks = doa_peaks(pmap, max_peaks=2, min_separation_deg=10.0)
        assert len(peaks) == 2
        azimuths = sorted(p[0].azimuth_deg for p in peaks)
        assert abs(azimuths[0] + 30) <= 1.0
        assert abs(azimuths[1] - 30) <= 1.0

    def test_constant_map_yields_nothing(self):
        pmap = PowerMap(azimuth_deg=np.arange(10.0), elevation_deg=np.arange(8.0),
                        power=np.full((8, 10), 2.5))
        assert doa_peaks(pmap, max_peaks=4, min_separation_deg=1.0) == []


class TestExports:
    def test_csv_and_pgm(self, tmp_path, geometry):
        R = covariance_analytic(geometry, single_source_scene(Direction(0, 0)), FREQ, C)
        grid = GridSpec(az_start_deg=-10, az_stop_deg=10, el_start_deg=-10, el_stop_deg=10)
        pmap = power_map(geometry, R, grid, FREQ, C, beamformer="bartlett")
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

    def test_db_floor(self, geometry):
        R = covariance_analytic(geometry, single_source_scene(Direction(0, 0), 1.0, 1e-12),
                                FREQ, C)
        pmap = power_map(geometry, R, GridSpec(az_step_deg=10, el_step_deg=10), FREQ, C,
                         beamformer="mvdr", loading=1e-6)
        db = pmap.to_db()
        assert db.max() == 0.0
        assert db.min() >= -80.0
