"""Direction-of-arrival grids and angular error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DoaGrid", "angular_error_deg", "azel_to_unit", "unit_to_azel"]


def azel_to_unit(azimuth_rad: np.ndarray, elevation_rad: np.ndarray) -> np.ndarray:
    """Unit vector(s) from azimuth/elevation (radians), shape ``(..., 3)``.

    Azimuth 0 points along +x, increasing towards +y; elevation is measured
    from the horizontal plane.
    """
    az = np.asarray(azimuth_rad, dtype=np.float64)
    el = np.asarray(elevation_rad, dtype=np.float64)
    cos_el = np.cos(el)
    return np.stack([cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)], axis=-1)


def unit_to_azel(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`azel_to_unit`; returns ``(azimuth, elevation)``."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != 3:
        raise ValueError("unit vectors must have a trailing axis of size 3")
    az = np.arctan2(u[..., 1], u[..., 0])
    el = np.arcsin(np.clip(u[..., 2], -1.0, 1.0))
    return az, el


def angular_error_deg(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Great-circle angle between unit vectors, in degrees."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    n1 = np.linalg.norm(u1, axis=-1)
    n2 = np.linalg.norm(u2, axis=-1)
    if np.any(n1 == 0) or np.any(n2 == 0):
        raise ValueError("zero-length direction vector")
    cos = np.sum(u1 * u2, axis=-1) / (n1 * n2)
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


@dataclass(frozen=True)
class DoaGrid:
    """Far-field azimuth x elevation search grid.

    Attributes
    ----------
    n_azimuth, n_elevation:
        Grid resolution.  Azimuth spans [-pi, pi), elevation spans
        ``[el_min, el_max]`` (radians).
    """

    n_azimuth: int = 72
    n_elevation: int = 9
    el_min: float = 0.0
    el_max: float = np.pi / 4

    def __post_init__(self) -> None:
        if self.n_azimuth < 2 or self.n_elevation < 1:
            raise ValueError("grid must have at least 2 azimuths and 1 elevation")
        if not -np.pi / 2 <= self.el_min <= self.el_max <= np.pi / 2:
            raise ValueError("need -pi/2 <= el_min <= el_max <= pi/2")
        # The axes are read on every localization call: build them once,
        # read-only so no caller can corrupt the grid they are shared by.
        azimuths = np.linspace(-np.pi, np.pi, self.n_azimuth, endpoint=False)
        if self.n_elevation == 1:
            elevations = np.array([0.5 * (self.el_min + self.el_max)])
        else:
            elevations = np.linspace(self.el_min, self.el_max, self.n_elevation)
        for name, axis in (("_azimuths", azimuths), ("_elevations", elevations)):
            axis.flags.writeable = False
            object.__setattr__(self, name, axis)

    def __getstate__(self) -> tuple:
        # Pickle the fields only: unpickling rebuilds the read-only axes
        # (a pickled array would come back writeable).
        return (self.n_azimuth, self.n_elevation, self.el_min, self.el_max)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    @property
    def azimuths(self) -> np.ndarray:
        """Azimuth samples in radians, shape ``(n_azimuth,)`` (read-only)."""
        return self._azimuths

    @property
    def elevations(self) -> np.ndarray:
        """Elevation samples in radians, shape ``(n_elevation,)`` (read-only)."""
        return self._elevations

    @property
    def shape(self) -> tuple[int, int]:
        """Map shape ``(n_azimuth, n_elevation)``."""
        return (self.n_azimuth, self.n_elevation)

    @property
    def size(self) -> int:
        """Total number of grid directions."""
        return self.n_azimuth * self.n_elevation

    def directions(self) -> np.ndarray:
        """All grid unit vectors, shape ``(n_azimuth * n_elevation, 3)``.

        Ordered azimuth-major: index ``i * n_elevation + j`` is azimuth ``i``,
        elevation ``j`` — matching the reshape used for SRP maps.
        """
        az, el = np.meshgrid(self.azimuths, self.elevations, indexing="ij")
        return azel_to_unit(az.ravel(), el.ravel())

    def index_to_azel(self, flat_index: int) -> tuple[float, float]:
        """Map a flat map index back to ``(azimuth, elevation)`` radians."""
        if not 0 <= flat_index < self.size:
            raise ValueError("flat index out of range")
        i, j = divmod(flat_index, self.n_elevation)
        return float(self.azimuths[i]), float(self.elevations[j])
