import hashlib
import importlib.util
import math
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from sonarray import _kernels
from sonarray._kernels import available_backends, pure
from sonarray.acquisition import SDM_CLIP1, SDM_CLIP2

ROOT = Path(__file__).resolve().parents[1]

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


def knife_edge_input(n=65_536, seed=2):
    """Loop input whose bits hinge on exact ties (i2 + dither == 0) and on
    the last-ulp rounding of the integrator sums: multiples of 2**-53 and
    values just off 1/4, 1/2 and 1, with zero dither.  Such flips are rare;
    at this length and seed, checked against a reference loop, the bits
    change if ``i1 + u - y`` or ``i2 + i1 - y`` is reassociated or if
    ``>=`` becomes ``>``."""
    eps = 2.0 ** -53
    values = np.array([0.0, eps, -eps, 2 * eps, -2 * eps, 3 * eps, -3 * eps, 0.5, -0.5,
                       0.25 + 2 * eps, -0.25 - 2 * eps, 1 - eps, -1 + eps])
    return np.random.default_rng(seed).choice(values, n), np.zeros(n)


def run_loop(func, x, dither, clip1=SDM_CLIP1, clip2=SDM_CLIP2):
    out = np.empty(x.size, dtype=np.uint8)
    func(x, dither, clip1, clip2, out)
    return out


def checkout_files():
    return {p for p in ROOT.rglob("*") if ".git" not in p.relative_to(ROOT).parts}


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """``sigma_delta_bits`` of ``_sdm.c``, built by setup.py into a temporary
    directory and loaded from there, so it is tested whether or not an
    in-place build exists."""
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip("no C compiler on PATH")
    build_dir = tmp_path_factory.mktemp("sdm_build")
    before = checkout_files()
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(build_dir), "--build-temp", str(build_dir)],
        cwd=ROOT, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    assert checkout_files() == before, "the build wrote into the checkout"
    # the extension is optional, so a failed compile only warns: require the file
    built = list((build_dir / "sonarray" / "_kernels").glob(
        "_sdm" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert len(built) == 1, build.stderr
    spec = importlib.util.spec_from_file_location("sonarray._kernels._sdm", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sigma_delta_bits


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    if request.param == "pure":
        return pure.sigma_delta_bits
    return request.getfixturevalue("compiled")


class TestBackendSelection:
    def test_active_backend_is_available(self):
        assert _kernels.BACKEND in available_backends()


class TestBackendEquivalence:
    def test_pure_matches_compiled_bit_for_bit(self, compiled):
        x = band_limited_signal()
        dither = np.random.default_rng(2).uniform(-1e-3, 1e-3, x.size)
        assert np.array_equal(run_loop(pure.sigma_delta_bits, x, dither, 4.0, 8.0),
                              run_loop(compiled, x, dither, 4.0, 8.0))
        x, dither = knife_edge_input()
        assert np.array_equal(run_loop(pure.sigma_delta_bits, x, dither),
                              run_loop(compiled, x, dither))

    def test_bits_match_golden_digest(self, kernel):
        x, dither = exact_input()
        out = run_loop(kernel, x, dither)
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

    @pytest.mark.parametrize("x, dither, out", [
        (np.zeros(10), np.zeros(9), np.zeros(10, np.uint8)),
        (np.zeros(10), np.zeros(10), np.zeros(9, np.uint8)),
        (np.zeros(10, np.float32), np.zeros(10), np.zeros(10, np.uint8)),
        (np.zeros(10), np.zeros(10, np.float32), np.zeros(10, np.uint8)),
        (np.zeros(10), np.zeros(10), np.zeros(10, np.int64)),
        (np.zeros(20)[::2], np.zeros(10), np.zeros(10, np.uint8)),
        (np.zeros(10), np.zeros(20)[::2], np.zeros(10, np.uint8)),
        (np.zeros(10), np.zeros(10), np.zeros(20, np.uint8)[::2]),
        (np.zeros((1, 10)), np.zeros((1, 10)), np.zeros((1, 10), np.uint8)),
        (np.zeros(10), np.zeros(10), np.frombuffer(bytes(10), np.uint8)),
    ], ids=["short-dither", "short-out", "float32-x", "float32-dither", "int64-out", "strided-x",
            "strided-dither", "strided-out", "2-d", "read-only-out"])
    def test_compiled_rejects_bad_buffers(self, compiled, x, dither, out):
        # equal lengths, 1-D C-contiguous float64 inputs and a writable
        # 1-D C-contiguous uint8 output
        with pytest.raises(ValueError):
            compiled(x, dither, 4.0, 8.0, out)

    def test_pure_loop_reads_its_buffers_in_place(self, traced_peak):
        # beyond its arguments the loop holds one byte per sample; a copy
        # of x or dither as Python floats would hold 32 bytes per sample
        n = 1 << 20
        x = band_limited_signal(n)
        dither = np.random.default_rng(2).uniform(-1e-3, 1e-3, n)
        out = np.empty(n, dtype=np.uint8)
        _, peak = traced_peak(pure.sigma_delta_bits, x, dither, SDM_CLIP1, SDM_CLIP2, out)
        assert peak < 2 * n

    def test_dc_tracking(self):
        # ones-density of the selected backend tracks (x + 1) / 2
        for level, expected in ((0.0, 0.5), (0.5, 0.75), (-0.5, 0.25)):
            x = np.full(50_000, level)
            dither = np.random.default_rng(3).uniform(-1e-3, 1e-3, x.size)
            out = np.empty(x.size, dtype=np.uint8)
            _kernels.sigma_delta_bits(x, dither, 4.0, 8.0, out)
            assert abs(out.mean() - expected) < 0.01
