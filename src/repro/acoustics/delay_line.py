"""Variable-length fractional delay lines.

The paper's simulator implements acoustic propagation with variable-length
delay lines [Smith, *Physical Audio Signal Processing*]: the source writes
into the line at the sample rate and each receiver reads at a time-varying
(fractional) delay equal to the propagation time.  A delay that shrinks as
the source approaches compresses the waveform and raises its pitch — the
Doppler effect emerges from the geometry with no explicit frequency shift.

Three implementations are provided:

- :func:`render_varying_delay` — vectorized offline evaluation used by the
  simulator; supports linear, Lagrange and windowed-sinc interpolation.
- :class:`StreamingDelayReader` — the same vectorized read, stateful across
  block boundaries: feed source samples as they exist, read output hop
  slices on demand, bit-identical to one offline call over the whole
  signal.  This is what lets :class:`repro.fleet.corridor.CorridorStream`
  render corridors incrementally instead of whole scenes up front.
- :class:`VariableDelayLine` — a sample-by-sample ring-buffer version
  (used by the real-time pipeline tests).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dsp.filters import lagrange_fractional_delay

__all__ = [
    "VariableDelayLine",
    "StreamingDelayReader",
    "render_varying_delay",
    "INTERPOLATORS",
]

INTERPOLATORS = ("linear", "lagrange", "sinc")


def _gather(xp: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Read a signal at integer indices of any shape, zero outside its support.

    ``xp`` is the signal with one zero sample padded at each end, and
    ``idx`` indexes ``xp`` (signal index + 1).  Clipping sends every index
    outside the signal onto a pad, so one ``take`` selects exactly the
    signal sample or ``0.0``.  Every interpolator below reads its taps
    through this call, from such a padded ``xp``.
    """
    return np.take(xp, idx, mode="clip")


def _interp_linear(xp: np.ndarray, pos: np.ndarray) -> np.ndarray:
    idx = np.floor(pos).astype(np.int64)
    frac = pos - idx
    idx += 1
    return (1.0 - frac) * _gather(xp, idx) + frac * _gather(xp, idx + 1)


def _interp_lagrange(xp: np.ndarray, pos: np.ndarray, order: int) -> np.ndarray:
    # Evaluate an order-N Lagrange interpolator at each fractional position:
    # the tap weights depend only on the fractional part (closed-form
    # product), and all (position, tap) reads happen in one batched gather.
    # Each weight's numerator is a running elementwise product over the
    # other taps, left to right: the order a product reduction multiplies
    # in, so the weights match ``np.prod`` bit for bit without reducing.
    base = np.floor(pos).astype(np.int64) - (order - 1) // 2
    frac = pos - np.floor(pos)
    offsets = np.arange(order + 1)
    d = frac + (order - 1) // 2
    coeffs = np.empty((*pos.shape, order + 1))
    for k in range(order + 1):
        others = [j for j in range(order + 1) if j != k]
        num = d - others[0]
        for j in others[1:]:
            num *= d - j
        coeffs[..., k] = num / float(math.prod(k - j for j in others))
    taps = _gather(xp, base[..., None] + (offsets + 1))  # (..., order + 1)
    return np.einsum("...t,...t->...", coeffs, taps)


def _interp_sinc(xp: np.ndarray, pos: np.ndarray, half_width: int) -> np.ndarray:
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    out = np.zeros_like(pos)
    # Accumulate per tap: each iteration is one batched gather over every
    # (receiver, sample) position.  Materializing the full (..., n, taps)
    # cube instead would cost gigabytes for long sinc renders.
    for k in range(-half_width + 1, half_width + 1):
        arg = k - frac
        win = np.clip(0.5 + 0.5 * np.cos(np.pi * arg / half_width), 0.0, None)
        out += np.sinc(arg) * win * _gather(xp, base + (k + 1))
    return out


def render_varying_delay(
    x: np.ndarray,
    delay_samples: np.ndarray,
    *,
    interpolation: str = "lagrange",
    order: int = 3,
    sinc_half_width: int = 16,
) -> np.ndarray:
    """Read signal ``x`` through a time-varying fractional delay.

    Output sample ``n`` equals ``x[n - delay_samples[n]]`` evaluated with the
    chosen fractional interpolator.  The source signal is treated as zero
    outside its support, so reads before the wavefront arrives return the
    interpolator's (band-limited) onset tail and exact zeros further out.

    Every (output sample, interpolator tap) read is a single batched gather
    into ``x`` — the same strategy :class:`repro.ssl.srp_fast.FastSrpPhat`
    uses for its windowed-sinc GCC reads — so one call can render many
    receivers at once.

    Parameters
    ----------
    x:
        Source signal written into the delay line at the sample rate.
    delay_samples:
        Per-output-sample delay, in (fractional) samples; all values
        non-negative.  Shape ``(len(x),)`` for a single receiver, or
        ``(..., len(x))`` to render a batch of receivers (e.g. one row per
        microphone) in one gather; the output has the same shape.
    interpolation:
        ``linear``, ``lagrange`` (default, order ``order``) or ``sinc``.
    """
    x = np.asarray(x, dtype=np.float64)
    delay_samples = np.asarray(delay_samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0 or delay_samples.shape[-1:] != x.shape:
        raise ValueError("x must be 1-D and delay_samples (..., len(x))")
    if np.any(delay_samples < 0):
        raise ValueError("delays must be non-negative")
    if interpolation not in INTERPOLATORS:
        raise ValueError(f"unknown interpolation {interpolation!r}; expected {INTERPOLATORS}")
    pos = np.arange(x.size) - delay_samples
    xp = np.pad(x, 1)
    if interpolation == "linear":
        return _interp_linear(xp, pos)
    if interpolation == "lagrange":
        if order < 1:
            raise ValueError("order must be >= 1")
        return _interp_lagrange(xp, pos, order)
    if sinc_half_width < 2:
        raise ValueError("sinc_half_width must be >= 2")
    return _interp_sinc(xp, pos, sinc_half_width)


class StreamingDelayReader:
    """Block-streaming fractional-delay read, bit-identical to the offline one.

    :func:`render_varying_delay` evaluates ``out[n] = x[n - delay[n]]`` over
    a whole signal at once; this class evaluates the *same* expression —
    the same interpolators, the same batched gathers, the same zero
    extension outside the source's support — but lets the caller interleave
    feeding source samples and reading output slices:

    >>> r = StreamingDelayReader(interpolation="linear")
    >>> r.feed(x[:4096]); hop0 = r.read(delays[:, :256])
    >>> r.feed(x[4096:]); r.end(); hop1 = r.read(delays[:, 256:512])

    Successive :meth:`read` calls advance an output cursor: the k-th call
    renders the next ``m`` output samples, where ``m`` is the last-axis
    length of its ``delay_samples`` block (leading axes render a batch of
    receivers, exactly as offline).  Concatenating every read reproduces
    the offline render of the fed signal **bit for bit** — asserted in
    ``tests/test_acoustics_delay_line.py`` — because interpolator tap
    positions are computed from *absolute* sample indices, never from
    block-relative ones, so block boundaries cannot introduce seams.

    An interpolator reads a little *ahead* of the nominal position (one tap
    for linear, more for Lagrange/sinc).  Mid-stream, a read that would
    need source samples not fed yet raises rather than silently rendering
    with a truncated kernel; after :meth:`end` declares the source
    exhausted, reads past it zero-extend exactly like the offline call.

    The fed signal is retained in full (delays may look arbitrarily far
    back), so memory matches the offline path's — the win of streaming is
    *latency*: each hop's render cost is paid when that hop is needed, not
    all up front at session start.  :meth:`end` freezes that buffer (marks
    it read-only), so many readers can share it: a corridor render holds one
    padded buffer per vehicle, and every node's reader of that vehicle
    reads it through its own output cursor (:meth:`_share`).  A reader over
    a shared buffer is ended, so it refuses :meth:`feed`.
    """

    def __init__(
        self,
        *,
        interpolation: str = "lagrange",
        order: int = 3,
        sinc_half_width: int = 16,
    ) -> None:
        if interpolation not in INTERPOLATORS:
            raise ValueError(
                f"unknown interpolation {interpolation!r}; expected {INTERPOLATORS}"
            )
        if interpolation == "lagrange" and order < 1:
            raise ValueError("order must be >= 1")
        if interpolation == "sinc" and sinc_half_width < 2:
            raise ValueError("sinc_half_width must be >= 2")
        self.interpolation = interpolation
        self.order = int(order)
        self.sinc_half_width = int(sinc_half_width)
        # Samples the interpolator reads past floor(pos).
        if interpolation == "linear":
            self._lookahead = 1
        elif interpolation == "lagrange":
            self._lookahead = self.order - (self.order - 1) // 2
        else:
            self._lookahead = self.sinc_half_width
        self._buf = np.zeros(0)
        self._n_fed = 0
        self._n_read = 0
        self._ended = False

    @property
    def n_fed(self) -> int:
        """Source samples fed so far."""
        return self._n_fed

    @property
    def n_read(self) -> int:
        """Output samples rendered so far (the output cursor)."""
        return self._n_read

    @property
    def ended(self) -> bool:
        """Whether :meth:`end` declared the source exhausted."""
        return self._ended

    def feed(self, block: np.ndarray) -> None:
        """Append source samples (1-D) to the line."""
        if self._ended:
            raise RuntimeError("cannot feed after end()")
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 1:
            raise ValueError("block must be 1-D")
        n = block.size
        # The buffer holds the fed signal zero-padded by one sample at each
        # end (the layout the interpolators read): samples at [1, n_fed + 1),
        # never-written zeros around them.
        if self._n_fed + n + 2 > self._buf.size:
            grown = np.zeros(max(2 * self._buf.size, self._n_fed + n + 2, 4096))
            grown[1 : self._n_fed + 1] = self._buf[1 : self._n_fed + 1]
            self._buf = grown
        self._buf[self._n_fed + 1 : self._n_fed + n + 1] = block
        self._n_fed += n

    def end(self) -> None:
        """Declare the source exhausted: further reads zero-extend past it,
        exactly as the offline render treats samples outside the signal.
        The padded buffer is frozen read-only from here on."""
        self._ended = True
        self._buf = self._buf[: self._n_fed + 2]
        self._buf.flags.writeable = False

    def _share(self) -> StreamingDelayReader:
        """A reader over this ended reader's frozen buffer (shared, not
        copied), with its own output cursor at 0."""
        if not self._ended:
            raise RuntimeError("only an ended reader's buffer can be shared")
        other = StreamingDelayReader(
            interpolation=self.interpolation,
            order=self.order,
            sinc_half_width=self.sinc_half_width,
        )
        other._buf = self._buf
        other._n_fed = self._n_fed
        other._ended = True
        return other

    def read(self, delay_samples: np.ndarray) -> np.ndarray:
        """Render the next block of output samples.

        ``delay_samples`` has shape ``(m,)`` or ``(..., m)`` (a batch of
        receivers); output sample ``n_read + j`` is the fed signal read at
        absolute position ``(n_read + j) - delay_samples[..., j]``.  Raises
        when the interpolator would need source samples not fed yet (feed
        more, or call :meth:`end`).
        """
        delay = np.asarray(delay_samples, dtype=np.float64)
        if delay.ndim < 1 or delay.shape[-1] == 0:
            raise ValueError("delay_samples must have a non-empty last axis")
        if np.any(delay < 0):
            raise ValueError("delays must be non-negative")
        m = delay.shape[-1]
        pos = np.arange(self._n_read, self._n_read + m) - delay
        if not self._ended:
            needed = int(np.floor(pos.max())) + self._lookahead
            if needed >= self._n_fed:
                raise ValueError(
                    f"read needs source sample {needed}, only {self._n_fed} fed "
                    f"(feed more or call end())"
                )
        if self._n_fed == 0:
            # Nothing fed (ended empty, or every read position precedes the
            # signal): the zero extension is the whole answer.
            self._n_read += m
            return np.zeros(pos.shape)
        xp = self._buf[: self._n_fed + 2]
        if self.interpolation == "linear":
            out = _interp_linear(xp, pos)
        elif self.interpolation == "lagrange":
            out = _interp_lagrange(xp, pos, self.order)
        else:
            out = _interp_sinc(xp, pos, self.sinc_half_width)
        self._n_read += m
        return out

    def reset(self) -> None:
        """Clear all state (fed samples, cursors, end flag)."""
        self._buf = np.zeros(0)
        self._n_fed = 0
        self._n_read = 0
        self._ended = False


class VariableDelayLine:
    """Streaming ring-buffer delay line with fractional (Lagrange) reads.

    Example
    -------
    >>> dl = VariableDelayLine(max_delay=1000)
    >>> out = [dl.process(xn, 44.25) for xn in signal]
    """

    def __init__(self, max_delay: float, *, order: int = 3) -> None:
        if max_delay <= 0:
            raise ValueError("max_delay must be positive")
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = int(order)
        self._size = int(np.ceil(max_delay)) + 2 * order + 4
        self._buf = np.zeros(self._size)
        self._n_written = 0
        self.max_delay = float(max_delay)

    def write(self, sample: float) -> None:
        """Push one input sample into the line."""
        self._buf[self._n_written % self._size] = sample
        self._n_written += 1

    def read(self, delay: float) -> float:
        """Read the line output at a fractional ``delay`` samples in the past.

        Reads that land before the first written sample (the wavefront has
        not arrived yet) return 0, matching :func:`render_varying_delay`.
        """
        if not 0.0 <= delay <= self.max_delay:
            raise ValueError(f"delay {delay} outside [0, {self.max_delay}]")
        pos = (self._n_written - 1) - delay
        floor_pos = int(np.floor(pos))
        frac = pos - floor_pos
        h = lagrange_fractional_delay(frac, self.order)
        idx = floor_pos - (self.order - 1) // 2 + np.arange(self.order + 1)
        valid = (idx >= 0) & (idx < self._n_written) & (idx > self._n_written - self._size)
        taps = np.where(valid, self._buf[idx % self._size], 0.0)
        return float(h @ taps)

    def process(self, sample: float, delay: float) -> float:
        """Write one sample, then read at ``delay`` — one tick of the line."""
        self.write(sample)
        return self.read(delay)

    def reset(self) -> None:
        """Clear the line state."""
        self._buf[:] = 0.0
        self._n_written = 0
