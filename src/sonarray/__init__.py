"""Desk-scale model of a circular-array ultrasonic imaging sensor.

Modules:

* :mod:`sonarray.geometry` -- array layouts and steering matrices
* :mod:`sonarray.signalmodel` -- scene covariances, snapshots, sample covariances
* :mod:`sonarray.beamforming` -- Bartlett/MVDR scans, PSFs, lobe metrics
* :mod:`sonarray.waveform` -- chirps, matched filtering, range estimates
* :mod:`sonarray.acquisition` -- echo captures, PDM modulation/decimation
* :mod:`sonarray.framing` -- frame wire format and streaming parser
* :mod:`sonarray.cli` -- the ``sonarray`` command-line tool
"""

__version__ = "0.1.0"

from .errors import (ConfigError, NoPeakError, SingularMatrixError,
                     SonarrayError, UnreliableEstimateError)
from .geometry import (SPEED_OF_SOUND_MPS, ArrayGeometry, Direction,
                       build_uniform_circular_array, default_circular_array,
                       direction_unit_vector, steering_matrix)
from .signalmodel import (PointSource, Scene, SnapshotBlock,
                          covariance_analytic, sample_covariance)
from .beamforming import (GridSpec, PowerMap, PsfMetrics, doa_peaks,
                          grid_powers, power_map, psf, psf_metrics)
from .waveform import (ChirpSpec, PcmTrace, RangeEstimate, estimate_range,
                       generate_chirp, matched_filter)
from .acquisition import (MultichannelCapture, PdmStream, ReflectorTarget,
                          demodulate_capture, pdm_decimate, pdm_modulate,
                          synthesize_capture)
from .framing import (CorruptionEvent, Frame, StreamParser, StreamStats,
                      encode_frame, parse_stream)

__all__ = [
    "ArrayGeometry", "ChirpSpec", "ConfigError", "CorruptionEvent",
    "Direction", "Frame", "GridSpec", "MultichannelCapture", "NoPeakError",
    "PcmTrace", "PdmStream", "PointSource", "PowerMap", "PsfMetrics",
    "RangeEstimate", "ReflectorTarget", "SPEED_OF_SOUND_MPS", "Scene",
    "SingularMatrixError", "SnapshotBlock", "SonarrayError", "StreamParser",
    "StreamStats", "UnreliableEstimateError", "build_uniform_circular_array",
    "covariance_analytic", "default_circular_array", "demodulate_capture",
    "direction_unit_vector", "doa_peaks", "encode_frame", "estimate_range",
    "generate_chirp", "grid_powers", "matched_filter", "parse_stream",
    "pdm_decimate", "pdm_modulate", "power_map", "psf", "psf_metrics",
    "sample_covariance", "steering_matrix", "synthesize_capture",
]
