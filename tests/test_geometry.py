import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonarray.geometry import (_COLUMN_BLOCK, ArrayGeometry, Direction,
                               build_uniform_circular_array,
                               default_circular_array, direction_unit_vector,
                               geometry_fingerprint, load_geometry_csv,
                               steering_matrix, unit_vectors)

angles = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


class TestDirection:
    def test_valid_range(self):
        Direction(-90.0, 90.0)
        Direction(0.0, 0.0)

    @pytest.mark.parametrize("az,el", [(91, 0), (-90.01, 0), (0, 91), (0, -100),
                                       (float("nan"), 0)])
    def test_out_of_range_rejected(self, az, el):
        with pytest.raises(ValueError):
            Direction(az, el)


class TestCircularArray:
    def test_stock_sixteen_element_layout(self):
        g = build_uniform_circular_array(16, 0.030)
        assert g.n_elements == 16
        radii = np.linalg.norm(g.elements, axis=1)
        assert np.allclose(radii, 0.015, atol=1e-15)
        assert np.allclose(g.elements[:, 2], 0.0)
        assert np.allclose(g.elements[0], [0.015, 0.0, 0.0])

    def test_single_element(self):
        g = build_uniform_circular_array(1, 0.030)
        assert np.allclose(g.elements, [[0.015, 0.0, 0.0]])

    def test_quarter_turns(self):
        g = build_uniform_circular_array(4, 0.030)
        expected = np.array([[0.015, 0, 0], [0, 0.015, 0],
                             [-0.015, 0, 0], [0, -0.015, 0]])
        assert np.allclose(g.elements, expected, atol=1e-17)

    @pytest.mark.parametrize("n,d", [(0, 0.03), (16, 0.0), (16, -1.0)])
    def test_invalid_arguments(self, n, d):
        with pytest.raises(ValueError):
            build_uniform_circular_array(n, d)

    def test_coincident_elements_rejected(self):
        pts = np.array([[0.01, 0, 0], [0.01, 0, 0]])
        with pytest.raises(ValueError):
            ArrayGeometry(elements=pts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_rejected(self, bad):
        pts = np.array([[0.01, 0, 0], [0, bad, 0]])
        with pytest.raises(ValueError, match="element 1 position must be finite"):
            ArrayGeometry(elements=pts)

    def test_default_preset(self):
        g = default_circular_array()
        assert g.n_elements == 16
        assert np.allclose(np.linalg.norm(g.elements, axis=1), 0.015)


class TestDirectionUnitVector:
    @pytest.mark.parametrize("az,el,expected", [
        (0, 0, (0, 0, 1)),
        (90, 0, (1, 0, 0)),
        (0, 90, (0, 1, 0)),
        (-90, 0, (-1, 0, 0)),
    ])
    def test_reference_directions(self, az, el, expected):
        u = direction_unit_vector(Direction(az, el))
        assert np.allclose(u, expected, atol=1e-15)

    @given(az=angles, el=angles)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm(self, az, el):
        u = direction_unit_vector(Direction(az, el))
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def look_vector(geometry, direction, frequency_hz, c_mps=343.0):
    """Single-look steering vector: one column of steering_matrix."""
    return steering_matrix(geometry, direction.azimuth_deg, direction.elevation_deg,
                           frequency_hz, c_mps)[:, 0]


class TestSteeringVector:
    def test_boresight_all_ones(self):
        g = default_circular_array()
        sv = look_vector(g, Direction(0, 0), 40_000.0)
        assert np.allclose(sv, 1.0 + 0.0j, atol=1e-15)

    def test_phase_of_edge_element(self):
        # scalar oracle: element on +x axis seen from (90, 0) has path p.u = 0.015
        g = build_uniform_circular_array(1, 0.030)
        sv = look_vector(g, Direction(90, 0), 40_000.0, 343.0)
        expected_phase = 2.0 * math.pi * 40_000.0 * 0.015 / 343.0
        got = math.atan2(sv[0].imag, sv[0].real) % (2 * math.pi)
        assert abs(got - expected_phase % (2 * math.pi)) < 1e-9
        assert abs(expected_phase - 10.9909) < 1e-3  # sanity on the oracle itself

    @given(az=angles, el=angles,
           freq=st.floats(min_value=1_000.0, max_value=100_000.0))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus(self, az, el, freq):
        g = default_circular_array()
        sv = look_vector(g, Direction(az, el), freq)
        assert np.max(np.abs(np.abs(sv) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("freq,c", [(0.0, 343.0), (-1.0, 343.0),
                                        (40e3, 0.0), (40e3, -10.0)])
    def test_invalid_frequency_or_speed(self, freq, c):
        g = default_circular_array()
        with pytest.raises(ValueError):
            look_vector(g, Direction(0, 0), freq, c)

    @given(az=st.floats(min_value=-89.0, max_value=89.0),
           el=st.floats(min_value=-89.0, max_value=89.0))
    @settings(max_examples=40, deadline=None)
    def test_conjugation_symmetry(self, az, el):
        # mirroring the in-plane components of u maps (az, el) to (-az, -el)
        g = default_circular_array()
        sv = look_vector(g, Direction(az, el), 40_000.0)
        mirrored = look_vector(g, Direction(-az, -el), 40_000.0)
        assert np.max(np.abs(mirrored - sv.conj())) <= 1e-12

    def test_frequency_phase_linearity(self):
        g = default_circular_array()
        sv1 = look_vector(g, Direction(35, -12), 20_000.0)
        sv2 = look_vector(g, Direction(35, -12), 40_000.0)
        doubled = np.angle(sv1 ** 2)
        assert np.max(np.abs(np.angle(sv2 * np.exp(-1j * doubled)))) <= 1e-9

    def test_rotational_symmetry_permutes_entries(self):
        g = default_circular_array()
        base = Direction(20, 10)
        sv = look_vector(g, base, 40_000.0)
        u = direction_unit_vector(base)
        beta = 2 * math.pi / 16
        ux = u[0] * math.cos(beta) - u[1] * math.sin(beta)
        uy = u[0] * math.sin(beta) + u[1] * math.cos(beta)
        rotated = Direction(math.degrees(math.atan2(ux, u[2])),
                            math.degrees(math.asin(uy)))
        sv_rot = look_vector(g, rotated, 40_000.0)
        assert np.max(np.abs(sv_rot - np.roll(sv, 1))) <= 1e-9

    def test_matrix_matches_single_vectors(self):
        g = default_circular_array()
        az = [0.0, 30.0, -45.0]
        el = [0.0, 0.0, -15.0]
        D = steering_matrix(g, az, el, 40_000.0, 343.0)
        for col, (a, e) in enumerate(zip(az, el)):
            sv = look_vector(g, Direction(a, e), 40_000.0)
            assert np.max(np.abs(D[:, col] - sv)) <= 1e-12

    # fewer nodes than one block, and a last block cut short
    @pytest.mark.parametrize("n_nodes", [100, 2 * _COLUMN_BLOCK + 123])
    def test_column_blocks_change_no_bit(self, n_nodes):
        g = default_circular_array()
        rng = np.random.default_rng(n_nodes)
        az, el = rng.uniform(-90.0, 90.0, (2, n_nodes))
        phase = (2.0 * np.pi * 40_000.0 / 343.0) * (g.elements @ unit_vectors(az, el).T)
        assert np.array_equal(steering_matrix(g, az, el, 40_000.0, 343.0), np.exp(1j * phase))

    def test_peak_memory_is_the_matrix_plus_a_block(self, traced_peak):
        g = default_circular_array()
        axis = np.arange(-90.0, 90.25, 0.5)
        az, el = (a.ravel() for a in np.meshgrid(axis, axis))
        D, peak = traced_peak(steering_matrix, g, az, el, 40_000.0, 343.0)
        block_bytes = g.n_elements * _COLUMN_BLOCK * D.itemsize
        assert D.shape[1] > 5 * _COLUMN_BLOCK
        assert peak < D.nbytes + 2 * block_bytes


class TestGeometryCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_text("x_m,y_m,z_m,index\n"
                        "0.015,0,0,0\n"
                        "0,0.015,0,1\n"
                        "-0.015,0,0,2\n"
                        "0,-0.015,0,3\n")
        g = load_geometry_csv(path)
        assert np.allclose(g.elements, build_uniform_circular_array(4, 0.030).elements,
                           atol=1e-12)
        # 17 significant digits reproduce the stock layout bit for bit
        stock = default_circular_array()
        rows = "".join(f"{x!r},{y!r},{z!r},{i}\n"
                       for i, (x, y, z) in enumerate(stock.elements.tolist()))
        path.write_text("x_m,y_m,z_m,index\n" + rows)
        assert geometry_fingerprint(load_geometry_csv(path)) == geometry_fingerprint(stock)

    def test_fingerprint_hashes_the_elements_only(self):
        # the emitter is the origin, so the layout is the whole geometry
        stock = default_circular_array()
        digest = hashlib.sha256(stock.elements.astype("<f8").tobytes()).hexdigest()
        assert geometry_fingerprint(stock) == digest == (
            "49f1302b556d0bca0c1a0bea19a9c248c02270b348a675d7dff3c6e2d5916542")

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.015,0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_geometry_csv(path)

    def test_rows_ordered_by_index_column(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("x_m,y_m,z_m,index\n"
                        "0,0.015,0,1\n"
                        "0.015,0,0,0\n")
        g = load_geometry_csv(path)
        assert np.allclose(g.elements[0], [0.015, 0, 0])
        assert np.allclose(g.elements[1], [0, 0.015, 0])

    def test_unit_vectors_broadcast(self):
        u = unit_vectors([0.0, 90.0], 0.0)
        assert u.shape == (2, 3)
        assert np.allclose(u[0], [0, 0, 1], atol=1e-15)
