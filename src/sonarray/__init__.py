"""Desk-scale model of a circular-array ultrasonic imaging sensor.

Modules:

* :mod:`sonarray.geometry` -- array layouts and steering matrices
* :mod:`sonarray.signalmodel` -- scene covariances, snapshots, sample covariances
* :mod:`sonarray.beamforming` -- Bartlett/MVDR scans, PSFs, lobe metrics
* :mod:`sonarray.waveform` -- chirps, matched filtering, range estimates
* :mod:`sonarray.acquisition` -- echo captures, PDM modulation/decimation
* :mod:`sonarray.framing` -- frame wire format and streaming parser
* :mod:`sonarray.pipeline` -- the sensor chain: scene to frames, frames
  to range and direction
* :mod:`sonarray.cli` -- the ``sonarray`` command-line tool
"""

__version__ = "0.1.0"
