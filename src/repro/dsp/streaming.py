"""Streaming (sample-in, frame-out) front-end processors.

The real-time pipeline consumes audio in arbitrary chunks from an ADC
driver; these classes buffer samples and emit analysis frames / feature
vectors exactly when one hop of new data is available, with O(frame)
memory — the embedded implementation pattern of the paper's "real-time
low-latency operation" requirement.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.stft import get_window

__all__ = ["StreamingFramer", "StreamingStft", "StreamingLogMel"]


class StreamingFramer:
    """Buffer arbitrary-size chunks into overlapping analysis frames.

    Samples live in a preallocated circular buffer: a push writes the chunk
    at the tail (two slice copies at most) and each completed frame is read
    off the head, so ingesting a long stream as many small chunks costs
    O(samples) total — the previous implementation re-``concatenate``\\ d the
    whole pending buffer on every chunk, degrading to O(N²) exactly in the
    small-chunk regime a real ADC driver produces.  Capacity grows
    geometrically only when a single chunk outsizes it, and is bounded by
    ``2 * (frame_length + max_chunk)`` regardless of stream length.
    """

    def __init__(self, frame_length: int, hop_length: int) -> None:
        if frame_length < 1 or not 0 < hop_length <= frame_length:
            raise ValueError("need frame_length >= 1 and 0 < hop_length <= frame_length")
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        self._buf = np.zeros(2 * self.frame_length)
        self._head = 0  # read position of the oldest buffered sample
        self._size = 0  # buffered sample count

    @property
    def buffered(self) -> int:
        """Samples currently buffered."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated ring size, samples (stays O(frame + max chunk))."""
        return self._buf.size

    def _write(self, chunk: np.ndarray) -> None:
        """Copy ``chunk`` in at the tail, wrapping at the ring edge."""
        cap = self._buf.size
        tail = (self._head + self._size) % cap
        first = min(chunk.size, cap - tail)
        self._buf[tail : tail + first] = chunk[:first]
        if first < chunk.size:
            self._buf[: chunk.size - first] = chunk[first:]
        self._size += chunk.size

    def _read_frame(self) -> np.ndarray:
        """Copy one frame out at the head and advance by one hop."""
        cap = self._buf.size
        out = np.empty(self.frame_length)
        first = min(self.frame_length, cap - self._head)
        out[:first] = self._buf[self._head : self._head + first]
        if first < self.frame_length:
            out[first:] = self._buf[: self.frame_length - first]
        self._head = (self._head + self.hop_length) % cap
        self._size -= self.hop_length
        return out

    def push(self, chunk: np.ndarray) -> list[np.ndarray]:
        """Append a chunk; return every completed frame (possibly none)."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise ValueError("chunk must be 1-D")
        needed = self._size + chunk.size
        if needed > self._buf.size:
            # A chunk larger than the free space: grow geometrically and
            # linearize, so the steady state stays copy-free.
            grown = np.empty(max(2 * needed, 2 * self.frame_length))
            head, cap = self._head, self._buf.size
            first = min(self._size, cap - head)
            grown[:first] = self._buf[head : head + first]
            grown[first : self._size] = self._buf[: self._size - first]
            self._buf = grown
            self._head = 0
        self._write(chunk)
        frames = []
        while self._size >= self.frame_length:
            frames.append(self._read_frame())
        return frames

    def reset(self) -> None:
        """Drop any buffered samples."""
        self._head = 0
        self._size = 0


class StreamingStft:
    """Streaming one-sided STFT: chunks in, complex spectra out."""

    def __init__(self, n_fft: int, hop_length: int, *, window: str = "hann") -> None:
        if n_fft < 16 or n_fft & (n_fft - 1):
            raise ValueError("n_fft must be a power of two >= 16")
        self._framer = StreamingFramer(n_fft, hop_length)
        self._window = get_window(window, n_fft)
        self.n_fft = int(n_fft)
        self.hop_length = int(hop_length)

    def push(self, chunk: np.ndarray) -> list[np.ndarray]:
        """Return the spectra of every frame completed by this chunk."""
        return [np.fft.rfft(f * self._window) for f in self._framer.push(chunk)]

    def reset(self) -> None:
        """Drop buffered samples."""
        self._framer.reset()


class StreamingLogMel:
    """Streaming log-mel front-end: chunks in, (n_mels,) vectors out.

    Matches the detection features of :meth:`repro.core.hop.HopKernel.detect`
    (a pipeline's window and mel filterbank, per-frame standardized log-mel)
    so a detector trained offline runs unchanged online.
    """

    def __init__(
        self,
        fs: float,
        n_fft: int,
        hop_length: int,
        *,
        n_mels: int = 40,
        window: str = "hann",
    ) -> None:
        if fs <= 0:
            raise ValueError("fs must be positive")
        # Imported here: repro.features sits above repro.dsp in the layering,
        # so a module-level import would be circular.
        from repro.features.mel import mel_filterbank

        self._stft = StreamingStft(n_fft, hop_length, window=window)
        self._fb = mel_filterbank(n_mels, n_fft, fs)
        self.n_mels = int(n_mels)

    def push(self, chunk: np.ndarray) -> list[np.ndarray]:
        """Return standardized log-mel vectors for each completed frame."""
        out = []
        for spec in self._stft.push(chunk):
            mel = self._fb @ (np.abs(spec) ** 2)
            feat = np.log(np.maximum(mel, 1e-10))
            std = feat.std() or 1.0
            out.append((feat - feat.mean()) / std)
        return out

    def reset(self) -> None:
        """Drop buffered samples."""
        self._stft.reset()
