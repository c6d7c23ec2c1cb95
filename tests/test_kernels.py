import numpy as np
import pytest

from sonarray import _kernels
from sonarray._kernels import available_backends, pure


def band_limited_signal(n=100_000, seed=1):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 4_450_000.0
    x = (0.4 * np.sin(2 * np.pi * 40_000.0 * t)
         + 0.2 * np.sin(2 * np.pi * 43_000.0 * t + 1.0))
    return np.clip(x + 0.05 * rng.standard_normal(n), -1.0, 1.0)


class TestBackendSelection:
    def test_active_backend_is_available(self):
        assert _kernels.BACKEND in available_backends()


class TestBackendEquivalence:
    def test_pure_matches_compiled_bit_for_bit(self):
        backends = available_backends()
        if "compiled" not in backends:
            pytest.skip("compiled kernel not built")
        x = band_limited_signal()
        dither = np.random.default_rng(2).uniform(-1e-3, 1e-3, x.size)
        outs = {}
        for name, func in backends.items():
            out = np.empty(x.size, dtype=np.uint8)
            func(x, dither, 4.0, 8.0, out)
            outs[name] = out
        assert np.array_equal(outs["pure"], outs["compiled"])

    def test_pure_length_mismatch_rejected(self):
        x = np.zeros(10)
        with pytest.raises(ValueError):
            pure.sigma_delta_bits(x, np.zeros(9), 4.0, 8.0, np.zeros(10, np.uint8))

    def test_dc_tracking(self):
        # ones-density of the selected backend tracks (x + 1) / 2
        for level, expected in ((0.0, 0.5), (0.5, 0.75), (-0.5, 0.25)):
            x = np.full(50_000, level)
            dither = np.random.default_rng(3).uniform(-1e-3, 1e-3, x.size)
            out = np.empty(x.size, dtype=np.uint8)
            _kernels.sigma_delta_bits(x, dither, 4.0, 8.0, out)
            assert abs(out.mean() - expected) < 0.01
