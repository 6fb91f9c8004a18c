"""Periodic-box sampled vector fields, their snapshot files, the Leray
multiplier and the weighted annulus norm.

The box is [-L, L)^d sampled at N points per axis (x_i = -L + i*h, h = 2L/N),
so wavenumbers are pi*n/L for integer n in the usual FFT layout.
``leray_apply`` is a pure Fourier multiplier, so no transform normalization
leaks out of it.

The box is a truncation device for problems posed on all of R^d: scenarios
must keep the essential support of data and force well inside the box and
time horizons short enough (sqrt(T) <= L/8 is enforced upstream) that
periodic-image contamination stays below reporting tolerances.
"""

from __future__ import annotations

import math
import os
import struct
from functools import cached_property

import numpy as np

__all__ = [
    "BoxGrid",
    "VectorFieldGrid",
    "leray_apply",
    "restrict_annulus_norm",
    "read_snapshot",
    "snapshot_header",
]

_MAGIC = b"NSVF"
_VERSION = 1
_HEADER_BYTES = 34   # magic, version, endian tag, then u32 d, u32 N, f64 L, f64 time, u32 ncomp


class BoxGrid:
    """Uniform periodic grid on [-L, L)^d with N points per axis."""

    def __init__(self, d: int, length: float, n: int):
        if d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {d!r}")
        if length <= 0:
            raise ValueError("box half-width must be positive")
        if n < 16 or n % 2 != 0:
            raise ValueError("points per axis must be even and >= 16")
        if n & (n - 1) != 0:
            raise ValueError("points per axis must be a power of two")
        self.d = d
        self.length = float(length)
        self.n = int(n)

    @property
    def spacing(self) -> float:
        return 2.0 * self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def __eq__(self, other):
        return (
            isinstance(other, BoxGrid)
            and (self.d, self.length, self.n) == (other.d, other.length, other.n)
        )

    def __hash__(self):
        return hash((self.d, self.length, self.n))

    def __repr__(self):
        return f"BoxGrid(d={self.d}, length={self.length}, n={self.n})"

    @cached_property
    def axis(self) -> np.ndarray:
        """Physical coordinates along one axis."""
        return -self.length + np.arange(self.n) * self.spacing

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points, shape (N, ..., N, d)."""
        mesh = np.meshgrid(*([self.axis] * self.d), indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def radius(self) -> np.ndarray:
        return np.sqrt(np.sum(self.points**2, axis=-1))

    @cached_property
    def wavenumbers(self) -> list:
        """Broadcastable wavenumber arrays, one per axis."""
        k = 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.spacing)
        out = []
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.n
            out.append(k.reshape(shape))
        return out

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for k in self.wavenumbers:
            k2 = k2 + k * k
        return k2

    @cached_property
    def inverse_k_squared(self) -> np.ndarray:
        """1 / |k|^2, with 0 at the zero mode."""
        k2 = self.k_squared
        return np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep |n_axis| < N/3 on every axis."""
        keep = np.ones(self.shape, dtype=bool)
        idx = np.fft.fftfreq(self.n) * self.n
        cut = self.n / 3.0
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.n
            keep &= (np.abs(idx) < cut).reshape(shape)
        return keep


class VectorFieldGrid:
    """A d-component field sampled on a BoxGrid at one time."""

    def __init__(self, grid: BoxGrid, components: np.ndarray, time: float = 0.0):
        components = np.asarray(components, dtype=float)
        if components.shape != (grid.d,) + grid.shape:
            raise ValueError(
                f"components must have shape {(grid.d,) + grid.shape}, got {components.shape}"
            )
        self.grid = grid
        self.components = components
        self.time = float(time)

    @classmethod
    def from_callable(cls, grid: BoxGrid, func):
        """Sample a vectorized callable x -> (..., d) of physical points at
        time 0."""
        values = np.asarray(func(grid.points), dtype=float)
        components = np.moveaxis(values, -1, 0)
        return cls(grid, components)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.components**2, axis=0))

    def save(self, path) -> None:
        """Write the snapshot in the flat binary format (see README):
        magic 'NSVF', version u8, endian tag '<', then little-endian
        u32 d, u32 N, f64 L, f64 time, u32 ncomp, raw f64 samples (C order)."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("B", _VERSION))
            fh.write(b"<")
            fh.write(struct.pack("<IIddI", self.grid.d, self.grid.n,
                                 self.grid.length, self.time, self.components.shape[0]))
            # the array's own buffer: no bytes copy of the samples
            fh.write(np.ascontiguousarray(self.components, dtype="<f8"))


def _read_header(fh):
    """(grid, time, sample dtype) from the header of the snapshot open in
    ``fh``; ValueError unless it is one and the file holds exactly the
    samples the header implies."""
    head = fh.read(_HEADER_BYTES)
    if head[:4] != _MAGIC:
        raise ValueError(f"not a field snapshot: bad magic {head[:4]!r}")
    if len(head) < _HEADER_BYTES:
        raise ValueError(f"snapshot header cut at {len(head)} of {_HEADER_BYTES} bytes")
    if head[4] != _VERSION:
        raise ValueError(f"unsupported snapshot version {head[4]}")
    endian = head[5:6]
    if endian not in (b"<", b">"):
        raise ValueError(f"bad endianness tag {endian!r}")
    tag = endian.decode()
    d, n, length, time, ncomp = struct.unpack(f"{tag}IIddI", head[6:])
    grid = BoxGrid(d, length, n)
    if ncomp != d:
        raise ValueError(f"snapshot has {ncomp} components in d = {d}")
    size, expected = os.fstat(fh.fileno()).st_size - _HEADER_BYTES, ncomp * n**d * 8
    if size < expected:
        raise ValueError(f"snapshot data cut at {size} of {expected} bytes")
    if size > expected:
        raise ValueError(f"snapshot data runs {size - expected} bytes past the "
                         f"{expected} its header implies")
    return grid, time, f"{tag}f8"


def snapshot_header(path) -> tuple:
    """(grid, time) of a snapshot file, checked as ``read_snapshot`` checks
    it; no sample is read."""
    with open(path, "rb") as fh:
        grid, time, _ = _read_header(fh)
    return grid, time


def read_snapshot(path) -> VectorFieldGrid:
    """Read a snapshot written by VectorFieldGrid.save; ValueError if it is
    not one, or is cut short or runs long.  The header is checked against d
    and the file size before the data array is allocated, so a header that
    claims more data than the file holds allocates nothing."""
    with open(path, "rb") as fh:
        grid, time, dtype = _read_header(fh)
        data = np.empty((grid.d,) + grid.shape, dtype=dtype)
        fh.readinto(data)
    if not data.dtype.isnative:
        data = data.astype(float)
    return VectorFieldGrid(grid, data, time=time)


def leray_apply(spec: np.ndarray, k: list, inv_k2: np.ndarray) -> np.ndarray:
    """Apply the divergence-free multiplier I - k k^T / |k|^2 modewise.

    ``k`` holds one broadcastable wavenumber array per axis and ``inv_k2`` is
    1 / |k|^2 (0 at the zero mode, which passes through).  Serves the full
    spectrum and the real-FFT half spectrum alike.
    """
    dot = np.zeros(inv_k2.shape, dtype=complex)
    for ax, k_ax in enumerate(k):
        dot += k_ax * spec[ax]
    dot *= inv_k2
    return np.stack([spec[ax] - k_ax * dot for ax, k_ax in enumerate(k)])


def restrict_annulus_norm(v: VectorFieldGrid, r_in: float, r_out: float,
                          alpha: float, p: float) -> float:
    """|| (1+|x|)^alpha u ||_p over the annulus r_in <= |x| < r_out by midpoint
    quadrature on the grid points.

    p = inf returns the sample maximum of (1+|x|)^alpha |u(x)| there.
    """
    if not (0 <= r_in < r_out <= v.grid.length):
        raise ValueError(
            f"annulus bounds must satisfy 0 <= r_in < r_out <= L, got [{r_in}, {r_out})"
        )
    if alpha < 0:
        raise ValueError("weight exponent must be >= 0")
    if not (p >= 1):
        raise ValueError("p must satisfy 1 <= p <= inf")
    r = v.grid.radius
    mask = (r >= r_in) & (r < r_out)
    w = (1.0 + r) ** alpha if alpha else 1.0
    vals = (w * v.magnitude())[mask]
    if vals.size == 0:
        return 0.0
    if math.isinf(p):
        return float(vals.max())
    h = v.grid.spacing
    return float(np.sum(vals**p) * h**v.grid.d) ** (1.0 / p)
