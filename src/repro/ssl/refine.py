"""Coarse-to-fine DOA search over a decimated grid pyramid.

The full-resolution steered-response sweep costs O(grid) per frame; in the
dense-detection regime (a siren present in *every* hop) that sweep is the
pipeline bottleneck.  This module implements the standard hierarchical fix
(cf. the Cross3D-style coarse SRP maps in :mod:`repro.ssl.cross3d`):

1. **Coarse sweep** — steer only a decimated azimuth x elevation subset of
   the grid (stride ``2 ** (levels - 1)``), using per-level steering tensors
   the localizer precomputes once.
2. **Refinement** — evaluate the full-resolution cells only inside windows
   around the ``top_k`` coarse peaks.
3. **Temporal reuse** — consecutive frames whose coarse peak stays within
   ``reuse_gate`` coarse cells of the current anchor re-use the anchor's
   refinement window, so a continuous siren replays long runs of frames
   through *identical* windows (one GEMM per run instead of per frame).

The search is sequential in its window *selection* (so a frame-at-a-time
streaming pipeline and the batched engine replay bit-identical decisions)
but batched in its window *evaluation*.  Selection runs on Python ints: the
per-frame coarse argmax and ambiguity flags come out of numpy once per call
(``tolist``), and :class:`GridPyramid` tabulates coarse cells and their
Chebyshev distances, so a frame's reuse test and top-k pick are list
lookups.

**Segments.**  One call may carry several independent streams (the hop
kernel's clips of one step): segment ``i`` is a run of consecutive frames
whose selection replays its own :class:`RefineState`.  The coarse sweep,
the ambiguity flags and the window GEMMs still run once over every frame,
and frames of different segments that share a window share its GEMM.  A
frame's power comes from that frame alone, so a segment's peaks and state
are the ones a call over that segment alone gives;
:func:`coarse_to_fine_search` is the one-segment case.

Exactness contract: the refined peak always dominates the best coarse
sample, and equals the dense sweep's argmax whenever that argmax falls in an
evaluated window — guaranteed for maps whose peak lobe is wider than one
coarse stride, and asserted as a tolerance (normalized peak-power gap, see
:func:`refinement_gap`) on adversarial inputs in
``tests/test_ssl_coarse2fine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ssl.doa import DoaGrid

__all__ = [
    "RefineConfig",
    "RefineState",
    "GridPyramid",
    "coarse_to_fine_search",
    "refinement_gap",
]


@dataclass(frozen=True)
class RefineConfig:
    """Coarse-to-fine search parameters.

    Attributes
    ----------
    levels:
        Pyramid depth; the coarse sweep decimates the grid by
        ``2 ** (levels - 1)`` per axis (clipped so at least 4 azimuth cells
        survive).  ``1`` disables refinement (dense sweep).
    top_k:
        Coarse cells refined at full resolution per (re)selection.
    reuse_gate:
        Temporal gate, in coarse cells (Chebyshev, azimuth-wrapped): while a
        frame's coarse peak stays within this distance of the anchor, the
        anchor's refinement window is reused.  ``0`` re-selects whenever the
        coarse peak moves.
    """

    levels: int = 2
    top_k: int = 2
    reuse_gate: int = 1

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.reuse_gate < 0:
            raise ValueError("reuse_gate must be >= 0")


class RefineState:
    """Mutable temporal-reuse state (one per pipeline / stream, *not* per
    localizer — fleet nodes sharing a localizer must not share windows).

    Attributes
    ----------
    anchor:
        Coarse-cell coordinates the current window was selected around.
    window:
        Full-resolution flat indices of the current refinement window.
    n_reused, n_selected:
        Hop accounting (how often the dense path ran at coarse cost).
    """

    __slots__ = ("anchor", "window", "n_reused", "n_selected")

    def __init__(self) -> None:
        self.anchor: tuple[int, int] | None = None
        self.window: np.ndarray | None = None
        self.n_reused = 0
        self.n_selected = 0

    def reset(self) -> None:
        """Forget the anchor/window (start of a new independent stream)."""
        self.anchor = None
        self.window = None
        self.n_reused = 0
        self.n_selected = 0

    def clone(self) -> "RefineState":
        """Independent snapshot of the current anchor/window/accounting.

        Streaming runtimes hand state across step boundaries by mutating one
        object; a clone checkpoints it — e.g. to compare two engines driven
        over the same hops, or to fork a speculative replay — without the
        original and the copy aliasing the window index array.
        """
        out = RefineState()
        out.anchor = self.anchor
        out.window = None if self.window is None else self.window.copy()
        out.n_reused = self.n_reused
        out.n_selected = self.n_selected
        return out


class GridPyramid:
    """Decimated-index pyramid over a :class:`~repro.ssl.doa.DoaGrid`.

    Level ``levels - 1`` is the coarse sweep grid; level 0 is the full grid.
    All levels are index subsets of the full grid, so "per-level steering
    tensors" are column subsets of the localizer's full steering tensor.

    A coarse cell is addressed either as ``(azimuth, elevation)`` cell
    coordinates or by its coarse index ``azimuth * el_cells + elevation``
    (its column in the coarse sweep).  The pyramid tabulates the index
    form once — each index's cell, and the Chebyshev distance between any
    two — so the search's per-frame window selection is Python int lookups.
    """

    def __init__(self, grid: DoaGrid, levels: int) -> None:
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.grid = grid
        stride = 2 ** (levels - 1)
        # Keep at least 4 azimuth cells in the coarse sweep; elevation may
        # collapse to a single row.
        self.az_stride = max(1, min(stride, grid.n_azimuth // 4))
        self.el_stride = max(1, min(stride, grid.n_elevation))
        az_idx = np.arange(0, grid.n_azimuth, self.az_stride)
        el_idx = np.arange(0, grid.n_elevation, self.el_stride)
        self.az_cells = int(az_idx.size)
        self.el_cells = int(el_idx.size)
        # Flat full-grid indices of the coarse cells, azimuth-major (matching
        # DoaGrid.directions()).
        self.coarse_flat = (
            az_idx[:, None] * grid.n_elevation + el_idx[None, :]
        ).ravel()
        self._cells = [divmod(c, self.el_cells) for c in range(self.coarse_flat.size)]
        # Per-(cell set, gate) window memo: windows recur heavily (temporal
        # reuse, and a bounded set of top-k combos), and handing back the
        # *same* array object for the same cell set lets the search group
        # all frames sharing it into one GEMM.
        self._cell_windows: dict[int, list[np.ndarray]] = {}
        self._window_memo: dict[tuple, np.ndarray] = {}
        self._dist: list[list[int]] | None = None
        self._near_mask: np.ndarray | None = None

    def _distances(self) -> list[list[int]]:
        """:meth:`cell_distance` between every two coarse indices, as nested
        int lists (``[a][b]``); built once, with :meth:`near_mask`."""
        if self._dist is None:
            ci, cj = np.divmod(np.arange(self.coarse_flat.size), self.el_cells)
            da = np.abs(ci[:, None] - ci[None, :])
            da = np.minimum(da, self.az_cells - da)
            dist = np.maximum(da, np.abs(cj[:, None] - cj[None, :]))
            self._dist, self._near_mask = dist.tolist(), dist < 2
        return self._dist

    def near_mask(self) -> np.ndarray:
        """Boolean ``(n_cells, n_cells)``: coarse cells within Chebyshev
        distance < 2 of each other (the "same lobe" neighbourhood used by
        the ambiguity check and the spatially-diverse top-k pick)."""
        self._distances()
        return self._near_mask

    @property
    def is_trivial(self) -> bool:
        """Whether decimation collapsed to the full grid (nothing to refine)."""
        return self.az_stride == 1 and self.el_stride == 1

    def coarse_cell(self, coarse_index: int) -> tuple[int, int]:
        """Coarse (azimuth, elevation) cell of a coarse-sweep argmax index."""
        return divmod(int(coarse_index), self.el_cells)

    def cell_distance(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Chebyshev distance between coarse cells, azimuth wrapped."""
        da = abs(a[0] - b[0])
        da = min(da, self.az_cells - da)
        return max(da, abs(a[1] - b[1]))

    def window_cols(self, cells: list[tuple[int, int]], *, gate: int = 0) -> np.ndarray:
        """Full-resolution flat indices around the given coarse cells.

        The half-width is ``(gate + 1) * stride - 1`` cells per axis: wide
        enough that while the coarse peak stays within ``gate`` coarse cells
        of the anchor (the temporal-reuse envelope), the dense argmax of a
        peak-lobe-dominated map still falls inside the reused window.
        Azimuth offsets wrap; elevation offsets clip.  The union over all
        coarse cells covers the entire full grid, which ties the refinement
        tolerance to the coarse map's peak picking rather than to coverage
        gaps.
        """
        return self._window([ci * self.el_cells + cj for ci, cj in cells], gate)

    def _window(self, indices: list[int], gate: int) -> np.ndarray:
        """:meth:`window_cols` of coarse indices (one memo for both forms)."""
        key = (tuple(sorted(indices)), gate)
        memo = self._window_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        per_cell = self._cell_lut(gate)
        if len(indices) == 1:
            out = per_cell[indices[0]]
        else:
            out = np.unique(np.concatenate([per_cell[c] for c in indices]))
        if len(memo) > 4096:  # bounded: distinct top-k combos recur heavily
            memo.clear()
        memo[key] = out
        return out

    def _cell_lut(self, gate: int) -> list[np.ndarray]:
        """Sorted window indices of every coarse cell, built once per gate."""
        lut = self._cell_windows.get(gate)
        if lut is not None:
            return lut
        n_az, n_el = self.grid.n_azimuth, self.grid.n_elevation
        half_az = min((gate + 1) * self.az_stride - 1, n_az // 2)
        half_el = (gate + 1) * self.el_stride - 1
        az_off = np.arange(-half_az, half_az + 1)
        el_off = np.arange(-half_el, half_el + 1)
        lut = []
        for ci in range(self.az_cells):
            az = (ci * self.az_stride + az_off) % n_az
            for cj in range(self.el_cells):
                el = cj * self.el_stride + el_off
                el = el[(el >= 0) & (el < n_el)]
                lut.append(np.unique((az[:, None] * n_el + el[None, :]).ravel()))
        self._cell_windows[gate] = lut
        return lut


def coarse_to_fine_search(
    power_fn: Callable[[np.ndarray | None, np.ndarray], np.ndarray],
    n_frames: int,
    pyramid: GridPyramid,
    config: RefineConfig,
    state: RefineState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the coarse-to-fine search over a block of frames.

    Parameters
    ----------
    power_fn:
        ``power_fn(rows, cols)`` evaluates the steered power of the frames in
        ``rows`` (``None`` = all frames) at the full-grid flat indices
        ``cols``, returning ``(len(rows), len(cols))``.  Localizers implement
        it as a column-subset of their batched sweep, and recognize
        ``pyramid.coarse_flat`` (by identity) to use their precomputed
        per-level tensor.
    n_frames:
        Number of frames in the block.
    pyramid, config:
        Search geometry and parameters.
    state:
        Temporal-reuse state carried across calls; ``None`` runs stateless
        (a fresh anchor for this block).

    Returns
    -------
    ``(peak_flat, maps)``: per-frame full-grid flat argmax indices and the
    partially evaluated power maps ``(n_frames, grid.size)`` (unevaluated
    cells hold ``-inf`` so downstream argmaxes can never land on them).

    This is the one-segment case of :func:`_search_segments`.
    """
    return _search_segments(power_fn, [0, n_frames], [state], pyramid, config, maps=True)


def _search_segments(
    power_fn: Callable[[np.ndarray | None, np.ndarray], np.ndarray],
    bounds: Sequence[int],
    states: Sequence[RefineState | None],
    pyramid: GridPyramid,
    config: RefineConfig,
    *,
    maps: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The search over consecutive segments of one block (module docstring,
    "Segments"): segment ``i`` is frames ``bounds[i]:bounds[i + 1]`` and
    replays ``states[i]`` (``None``: a fresh anchor).  Returns ``(peak_flat,
    maps)`` as :func:`coarse_to_fine_search` does; ``maps`` is ``None``
    unless asked for.
    """
    n_frames = bounds[-1]
    coarse_cols = pyramid.coarse_flat
    cp = power_fn(None, coarse_cols)  # (T, Gc)
    top1 = cp.argmax(axis=1)
    k = min(config.top_k, coarse_cols.size)

    # Lobe-ambiguity flag: a spatially separated coarse runner-up close to
    # the top means two source lobes compete — reusing a stale single-lobe
    # window there is exactly where coarse-to-fine diverges from the dense
    # sweep, so those frames always re-select (and their NMS top-k covers
    # both lobes).
    lo = cp.min(axis=1)
    peak_power = cp[np.arange(n_frames), top1]
    runner = np.where(pyramid.near_mask()[top1], -np.inf, cp).max(axis=1)
    ambiguous = (peak_power - runner) < 0.25 * np.maximum(peak_power - lo, 1e-30)

    # Sequential window selection on Python ints (identical in streaming
    # frame-at-a-time calls and in one batched call over the same frames).
    dist = pyramid._distances()
    cells = pyramid._cells
    gate = config.reuse_gate
    top1_l = top1.tolist()
    ambiguous_l = ambiguous.tolist()
    ranked: list[list[int]] | None = None
    groups: dict[int, tuple[np.ndarray, list[int]]] = {}
    for (start, stop), state in zip(zip(bounds, bounds[1:]), states):
        if state is None:
            state = RefineState()
        # Distance of every coarse cell to the anchor (None: nothing to reuse).
        window, anchor, from_anchor = state.window, state.anchor, None
        if window is not None and anchor is not None:
            if 0 <= anchor[0] < pyramid.az_cells and 0 <= anchor[1] < pyramid.el_cells:
                from_anchor = dist[anchor[0] * pyramid.el_cells + anchor[1]]
            else:  # an anchor from another pyramid
                from_anchor = [pyramid.cell_distance(c, anchor) for c in cells]
        for t in range(start, stop):
            cell = top1_l[t]
            if from_anchor is not None and not ambiguous_l[t] and from_anchor[cell] <= gate:
                state.n_reused += 1
            else:
                # Spatially-diverse top-k (greedy non-maximum suppression
                # over coarse cells): adjacent coarse samples of one wide
                # lobe must not crowd out a second source's lobe —
                # multi-source maps are exactly where refining only
                # clustered cells diverges from the dense sweep.
                if ranked is None:
                    ranked = _ranked_candidates(cp, k)
                chosen: list[int] = []
                for c in ranked[t]:
                    row = dist[c]
                    if all(row[s] >= 2 for s in chosen):
                        chosen.append(c)
                    if len(chosen) == k:
                        break
                window = pyramid._window(chosen, gate)
                from_anchor = dist[cell]
                state.window = window
                state.anchor = cells[cell]
                state.n_selected += 1
            group = groups.get(id(window))
            if group is None:
                groups[id(window)] = (window, [t])
            else:
                group[1].append(t)

    out = None
    if maps:
        out = np.full((n_frames, pyramid.grid.size), -np.inf, dtype=cp.dtype)
        out[:, coarse_cols] = cp

    # Batched window evaluation: one GEMM per window object (temporal reuse
    # makes these groups long runs in continuous replay).  Every frame has
    # exactly one window, so each row of the window peaks is written once.
    window_flat = np.empty(n_frames, dtype=np.intp)
    window_power = np.empty_like(peak_power)
    for w, ts in groups.values():
        rows = np.array(ts, dtype=np.intp)
        pw = power_fn(rows, w)  # (R, W)
        if out is not None:
            out[rows[:, None], w[None, :]] = pw
        window_flat[rows] = w[pw.argmax(axis=1)]
        window_power[rows] = pw.max(axis=1)
    # A window peak at least as strong as the coarse peak replaces it, so
    # the refined peak always dominates the best coarse sample.
    peak_flat = np.where(window_power >= peak_power, window_flat, coarse_cols[top1])
    return peak_flat, out


def _ranked_candidates(cp: np.ndarray, k: int) -> list[list[int]]:
    """Per frame, the ``4 * k`` best coarse indices, best first (the
    candidate pool of the spatially-diverse top-k pick)."""
    m = min(4 * k, cp.shape[1])
    if m < cp.shape[1]:
        cand = np.argpartition(cp, -m, axis=1)[:, -m:]
    else:
        cand = np.broadcast_to(np.arange(cp.shape[1]), cp.shape)
    rows = np.arange(cp.shape[0])[:, None]
    order = np.argsort(cp[rows, cand], axis=1)[:, ::-1]
    return cand[rows, order].tolist()


def refinement_gap(dense_maps: np.ndarray, peak_flat: np.ndarray) -> np.ndarray:
    """Normalized peak-power gap of refined peaks vs the dense sweep.

    ``dense_maps`` is ``(T, n_az, n_el)`` (or ``(T, grid_size)``) from the
    full sweep; ``peak_flat`` the coarse-to-fine argmax indices.  Returns the
    per-frame gap ``(dense_max - power[peak]) / (dense_max - dense_min)`` —
    0 means the refined peak *is* the dense argmax (or ties it), 1 would mean
    it found the worst cell.  This is the quantity the coarse-to-fine
    tolerance contract bounds.
    """
    dense = np.asarray(dense_maps)
    flat = dense.reshape(dense.shape[0], -1)
    hi = flat.max(axis=1)
    lo = flat.min(axis=1)
    got = flat[np.arange(flat.shape[0]), np.asarray(peak_flat, dtype=np.intp)]
    span = np.maximum(hi - lo, np.finfo(flat.dtype).tiny)
    return (hi - got) / span
