"""Pure-Python fallback for the sigma-delta inner loop.

Kept operation-for-operation identical to the compiled version in
``_sdm.c`` (same expressions, same association order), so both
backends produce bit-identical streams.
"""

from __future__ import annotations

import numpy as np


def sigma_delta_bits(x, dither, clip1: float, clip2: float, out) -> None:
    """Second-order sigma-delta modulation of ``x`` into 1-bit ``out``.

    ``x`` and ``dither`` are float64 arrays of equal length; ``out`` is a
    uint8 array receiving 0/1 bits.  Integrators clip at +-clip1 and
    +-clip2; the quantizer feedback is +-1.
    """
    n = len(x)
    if len(dither) != n or len(out) != n:
        raise ValueError("x, dither, and out must have equal lengths")
    bits = bytearray(n)
    i1 = 0.0
    i2 = 0.0
    y = -1.0
    idx = 0
    for u, dth in zip(x.tolist(), dither.tolist()):
        i1 = i1 + u - y
        if i1 > clip1:
            i1 = clip1
        elif i1 < -clip1:
            i1 = -clip1
        i2 = i2 + i1 - y
        if i2 > clip2:
            i2 = clip2
        elif i2 < -clip2:
            i2 = -clip2
        if i2 + dth >= 0.0:
            y = 1.0
            bits[idx] = 1
        else:
            y = -1.0
        idx += 1
    out[:] = np.frombuffer(bytes(bits), dtype=np.uint8)
