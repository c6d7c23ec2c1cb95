"""Backend selection for the sigma-delta hot loop.

The C extension built from ``_sdm.c`` is used when it imports; otherwise
the pure-Python fallback takes over transparently.  Both stay reachable
through :func:`available_backends` for benchmarking and for verifying
backend equivalence.
"""

from __future__ import annotations

from . import pure

try:
    from . import _sdm
except ImportError:
    _sdm = None

BACKEND = "pure" if _sdm is None else "compiled"
sigma_delta_bits = (pure if _sdm is None else _sdm).sigma_delta_bits


def available_backends() -> dict:
    """Name-to-callable map of every importable backend."""
    backends = {"pure": pure.sigma_delta_bits}
    if _sdm is not None:
        backends["compiled"] = _sdm.sigma_delta_bits
    return backends
