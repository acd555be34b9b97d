"""Shared DSP substrate: framing, STFT, FIR design, levels, resampling.

Importing the package loads numpy and ``scipy.fft`` only: :func:`resample`
imports ``scipy.signal`` on its first call.
"""

from repro.dsp.block_fir import BlockFir, FirBank
from repro.dsp.filters import (
    apply_fir,
    fir_from_magnitude,
    fir_lowpass,
    fractional_delay_kernel,
    lagrange_fractional_delay,
    octave_band_centers,
)
from repro.dsp.levels import (
    db_to_linear,
    linear_to_db,
    mix_at_snr,
    normalize_peak,
    rms,
    snr_db,
)
from repro.dsp.resample import resample, time_axis
from repro.dsp.stft import (
    db,
    frame_signal,
    frame_signals,
    get_window,
    istft,
    magnitude,
    overlap_add,
    power,
    stft,
    stft_batch,
)

from repro.dsp.streaming import StreamingFramer, StreamingLogMel, StreamingStft
__all__ = [
    "StreamingFramer",
    "StreamingLogMel",
    "StreamingStft",

    "BlockFir",
    "FirBank",
    "apply_fir",
    "fir_from_magnitude",
    "fir_lowpass",
    "fractional_delay_kernel",
    "lagrange_fractional_delay",
    "octave_band_centers",
    "db_to_linear",
    "linear_to_db",
    "mix_at_snr",
    "normalize_peak",
    "rms",
    "snr_db",
    "resample",
    "time_axis",
    "db",
    "frame_signal",
    "frame_signals",
    "get_window",
    "istft",
    "magnitude",
    "overlap_add",
    "power",
    "stft",
    "stft_batch",
]
