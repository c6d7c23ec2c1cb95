import hashlib
import math

import numpy as np
import pytest

from sonarray import _kernels
from sonarray._kernels import available_backends, pure
from sonarray.acquisition import SDM_CLIP1, SDM_CLIP2

# SHA-256 of the bits for exact_input() at the stock clip levels
GOLDEN_BITS_SHA256 = "7a14e8eeb1fa5dcfa87d79173b9f5f8a754ca3f9e7e3c63266ac4c1faba24e47"


def band_limited_signal(n=100_000, seed=1):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 4_450_000.0
    x = (0.4 * np.sin(2 * np.pi * 40_000.0 * t)
         + 0.2 * np.sin(2 * np.pi * 43_000.0 * t + 1.0))
    return np.clip(x + 0.05 * rng.standard_normal(n), -1.0, 1.0)


def exact_input():
    """Loop input and dither built from integers and power-of-two scalings.

    Every integrator sum is then exact in float64, so the bits depend
    neither on the CPU nor on the numpy version.  Segments: a full-scale
    triangle ramp, a x16-held triangle, +-1.5 (beyond full scale, so both
    integrator clips engage), silence, and a 0.75 FS ramp.
    """
    k = np.arange(4096)
    ramp = np.abs((k % 1024) - 512) / 256.0 - 1.0
    held = np.repeat(np.abs((k[:512] % 64) - 32) / 32.0 * 0.875 - 0.4375, 16)
    over = np.concatenate((np.full(512, 1.5), np.full(512, -1.5)))
    x = np.concatenate((ramp, held, over, np.zeros(1024), 0.75 * ramp))
    dither = ((np.arange(x.size) * 7919) % 2049 - 1024) / 2.0 ** 20  # |d| < 1e-3
    return x, dither


def run_loop(func, x, dither, clip1=SDM_CLIP1, clip2=SDM_CLIP2):
    out = np.empty(x.size, dtype=np.uint8)
    func(x, dither, clip1, clip2, out)
    return out


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

    @pytest.mark.parametrize("name", sorted(available_backends()))
    def test_bits_match_golden_digest(self, name):
        x, dither = exact_input()
        out = run_loop(available_backends()[name], x, dither)
        assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_BITS_SHA256

    def test_golden_input_engages_both_clips(self):
        # lifting either clip changes the bits, so the digest pins both
        x, dither = exact_input()
        bits = run_loop(pure.sigma_delta_bits, x, dither)
        for clips in ((math.inf, SDM_CLIP2), (SDM_CLIP1, math.inf)):
            assert not np.array_equal(run_loop(pure.sigma_delta_bits, x, dither, *clips),
                                      bits)

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
