"""Backend selection for the sigma-delta hot loop.

The compiled Cython extension is used when it imports; otherwise the
pure-Python fallback takes over transparently.  Both stay reachable
through :func:`available_backends` for benchmarking and for verifying
backend equivalence.
"""

from __future__ import annotations

from . import pure

try:
    from . import _sdm as _impl  # type: ignore[no-redef]
    BACKEND = "compiled"
except ImportError:
    _impl = pure
    BACKEND = "pure"


def sigma_delta_bits(x, dither, clip1, clip2, out) -> None:
    """Modulate ``x`` (float64, |x| <= 1) into 1-bit ``out`` (uint8)."""
    _impl.sigma_delta_bits(x, dither, clip1, clip2, out)


def available_backends() -> dict:
    """Name-to-callable map of every importable backend."""
    backends = {"pure": pure.sigma_delta_bits}
    try:
        from . import _sdm
        backends["compiled"] = _sdm.sigma_delta_bits
    except ImportError:
        pass
    return backends
