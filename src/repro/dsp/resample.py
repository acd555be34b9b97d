"""Sample-rate conversion utilities (polyphase, via scipy).

``scipy.signal`` (and the stats, interpolate and optimize stack it loads)
is imported on the first call of :func:`resample`, not with the module, so
the runtime that only re-exports the name never pays for it.
"""

from __future__ import annotations

from math import gcd

import numpy as np

__all__ = ["resample", "time_axis"]


def resample(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Resample a 1-D signal from ``fs_in`` to ``fs_out`` Hz.

    Rates must be expressible as an integer ratio after rounding to 1 Hz,
    which covers every rate used in this project (8k/16k/22.05k/44.1k/48k).
    """
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    fi, fo = int(round(fs_in)), int(round(fs_out))
    if fi == fo:
        return np.asarray(x, dtype=np.float64).copy()
    from scipy.signal import resample_poly

    g = gcd(fi, fo)
    return resample_poly(np.asarray(x, dtype=np.float64), fo // g, fi // g)


def time_axis(n_samples: int, fs: float) -> np.ndarray:
    """Time stamps (seconds) for ``n_samples`` at rate ``fs``."""
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if fs <= 0:
        raise ValueError("fs must be positive")
    return np.arange(n_samples) / fs
