"""Mild-solution construction on the periodic box and far-field evaluation.

The velocity solves the integral formulation

    u(t) = heat(t) a  -  B(u, u)(t)  +  L(f)(t),

where B is the bilinear Duhamel term (projected divergence of the momentum
flux propagated by the heat flow) and L(f) the linear force response.  The
solver iterates the whole time horizon at once:

    u^(0)    = heat a + L(f)
    u^(k+1)  = heat a - B(u^(k), u^(k)) + L(f)

with every Duhamel integral evaluated by per-slice Gauss-Legendre panels,
geometrically graded toward the singular end s = t, and accumulated by the
exponential-integrator recursion

    I(t_m) = exp(-dt |k|^2) I(t_{m-1}) + (panel over [t_{m-1}, t_m]).

One such recursion carries all three terms of a sweep and yields u^(k+1)
slice by slice, with one inverse transform per slice.  The slices are
uniform, so each panel sum is a fixed real weight field per stencil slice
(the node propagators folded with the Lagrange weights, or with tau(s) for
the force), built once per sweep.  Fields are real, so the spectral work runs
on the real-FFT half spectrum.  In d = 2 the projected flux divergence is
i k_perp s with one scalar s per mode, so B accumulates scalars.  A sweep
writes each new slice over the old one as soon as its update norm is taken:
the old slice's flux has been read by then, so the iteration stays Jacobi
and the solve holds one sequence of snapshots.  The first sweep starts from
u^(0), which is the recursion's own heat a + L(f) part, so u^(0) is never
held whole.  When that sequence is files (``SnapshotFiles``), a solve holds
only the slices of a stencil or so in memory.  On large grids one helper
thread computes those fluxes' sources a few slices ahead of the recursion
(``_source_lane``).  The iteration stops once the certified distance of
u^(k) to the discrete fixed point, a Banach bound from a Lipschitz constant
of the sweep's map, is below the tolerance (see ``picard_solve``).

The box zero mode cannot represent decay at infinity, so it is split off
analytically: snapshots are stored mean-free and the uniform drift
force_integral(t) / (2L)^d is tracked separately and re-injected into the
momentum flux, which keeps the grid solution box-exact while the snapshots
approximate the free-space solution.

Far-field evaluation assembles the same three Duhamel terms at arbitrary
points from the closed-form kernels, with per-term error estimates.  The
bilinear term has one evaluator for every point, inside |x| < L/2 as well as
beyond it: a kernel sum of the stored momentum flux over the central
|y| <= L/2 sub-box.  With the gradient kernel split as
F(z, tau) = G(z) + D(z, tau), G = grad L the leading part and D the
gradient of |z|^-d Psi(z / sqrt(tau)):

* every source pair contracts G(x - y) with one flux field per evaluation
  time, Q(y) = sum over nodes of weight * flux(y, s): one spatial sum;
* D is Gaussian-local, so it is added only for the (pair, node) entries
  inside the node's reach, |x - y| < c sqrt(t - s);
* pairs with |x - y| < 2 sqrt(t - s) at the earliest node s take the full
  F at every node instead: G is singular at x = y, and where |G| far
  exceeds |F| the sum G + D cancels.

One pass over every point of a call finds these local pairs and sums their
node shares, one kernel call per node; the dense G sums then run in blocks
of points.  The cutoff c = FAR_CUTOFF puts each dropped entry at a Gaussian
tail of about 1e-12; the ``psi_cutoff`` budget entry bounds their sum
analytically, next to the time and space quadrature estimates and the
|y| > L/2 truncation bound.
In d = 2 the kernels annihilate the trace of the flux, so the history keeps
only its traceless part as one complex number per source point, and each pair
is one complex product (see ``kernels``).

Far-field values are computed when ``farfield_velocity`` is called; the
error budget, built and kept on its first read, runs the same evaluator with
GL2 and on the stride-2 sources.  No check reads it yet (per-point budgets
in each check's report are still to come), so the checks pay for the values.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import shutil
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import nearest_slice, on_slice
from .forcing import ForceModel, InitialData, force_integral, validate_assumptions
from .grid import BoxGrid, VectorFieldGrid, leray_apply, read_snapshot, snapshot_header

__all__ = [
    "SolverOptions",
    "Trajectory",
    "SnapshotFiles",
    "SolverError",
    "AdmissionError",
    "ContractionError",
    "ConvergenceError",
    "picard_solve",
    "farfield_velocity",
    "integral_residual",
    "load_trajectory",
]

# admission guard: measured force + data constants must stay below this
ADMISSION_LIMIT = 5e-2

# geometric grading of the last panel of every time quadrature toward its
# singular end
_GRADING_LEVELS = 6

# Reach c of the Gaussian part: a (source pair, time node) entry with
# |x - y| >= c sqrt(tau), tau = t - s, drops the Psi part of the kernel.  Psi
# decays like exp(-|z|^2 / (4 tau)), so a tail target exp(-c^2/4) <= 1e-12
# needs c >= 2 sqrt(12 ln 10) = 10.51; rounded up.
FAR_CUTOFF = 10.6
# Core of the split: a pair with |x - y| < _CORE sqrt(tau) at the earliest
# node takes the full kernel F at every node.  Outside it every entry has
# |z|^2 >= 4 tau, where |G| <= 4.5 |F| in d <= 3, so G + D loses under one
# digit to cancellation; nearer the source the loss grows like
# (sqrt(tau) / |z|)^(d+1).
_CORE = 2.0

# _bilinear_point: slices per history panel, and points per pair block of
# the dense G sum and of the local pass's source scan (memory only: each
# point's source sum is its own row sum and each local share its own node
# sum, so neither a point's value nor its share of the error budget depends
# on its block or its batch)
_COARSEN = 8
_CHUNK = 8
# relative margin of the local pass's point pre-filter over the rounding of
# |x - y|^2, so that it drops no local pair
_SCAN_MARGIN = 1e-9

# _linear_point: floats per block of quadrature nodes (about 1 MB)
_NODE_BLOCK = 1 << 17

# _SliceRule.fold: its propagator columns, one per distinct |k|^2, come in
# multiples of this, as the half spectrum's (N/2 + 1) N^(d-1) modes do for
# N >= 16.  A BLAS gemv may round a last partial group of columns on
# another path, and then a fold would not be bitwise the per-mode one.
_FOLD_COLUMNS = 16

# The flux-source lane of _mild_series: on grids of at least _LANE_POINTS
# points, with at least _LANE_CPUS usable CPUs, one helper thread computes
# the flux sources of the next stencil slices while the main thread runs the
# recursion: it reads each history slice, or, in a first sweep, transforms
# u^(0) back from its spectrum, then takes the source.  On smaller grids the
# thread handoffs cost more than the work they overlap.  While slice m is
# built the lane queues sources through slice m + _LANE_REACH; the stencil of
# slice m reaches m + 1 (m + 2 at m = 1).
_LANE_POINTS = 1 << 16
_LANE_CPUS = 2
_LANE_REACH = 3

# The `format` line of a trajectory manifest; `load_trajectory` reuses no other.
# Raise it whenever a change alters what a reused trajectory would hold;
# tests/test_solver.py pins a small solve under each value.
TRAJECTORY_FORMAT = 2


class SolverError(RuntimeError):
    pass


class AdmissionError(SolverError):
    """Force/data constants too large for the contraction regime."""


class ContractionError(SolverError):
    def __init__(self, message, log):
        super().__init__(message)
        self.iteration_log = log


class ConvergenceError(SolverError):
    def __init__(self, message, log):
        super().__init__(message)
        self.iteration_log = log


@dataclass(frozen=True)
class SolverOptions:
    slices: int = 64          # time slices over the whole horizon
    tol: float = 1e-10
    max_sweeps: int = 12
    refine: int = 1           # split every quadrature panel this many times


def _graded_panels(a: float, b: float, levels: int, refine: int):
    """Panels covering [a, b], geometrically graded toward b, each split `refine` times.

    ``levels = 0`` gives ``refine`` equal panels.
    """
    width = b - a
    edges = [a] + [b - width * 0.5**j for j in range(1, levels + 1)] + [b]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        for i in range(refine):
            out.append((lo + (hi - lo) * i / refine, lo + (hi - lo) * (i + 1) / refine))
    return out


def _time_panels(edges, refine: int):
    """(lo, hi) arrays of the panels over ``edges``: one per interval, split
    ``refine`` times, the last interval graded toward its end."""
    levels = [0] * (len(edges) - 2) + [_GRADING_LEVELS]
    panels = [p for lo, hi, lv in zip(edges[:-1], edges[1:], levels)
              for p in _graded_panels(lo, hi, lv, refine)]
    return tuple(np.array(panels).T)


def _lagrange_weights(ts: np.ndarray, s: float) -> np.ndarray:
    """Barycentric-free Lagrange weights for the stencil times ts at point s."""
    n = ts.size
    w = np.ones(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i] *= (s - ts[j]) / (ts[i] - ts[j])
    return w


def _stencil(m_panel: int, n_slices: int) -> list:
    """Slice indices for cubic interpolation on panel [t_{m-1}, t_m]."""
    lo = max(0, min(m_panel - 2, n_slices - 3))
    return list(range(lo, min(lo + 4, n_slices + 1)))


@functools.lru_cache(maxsize=None)
def _unit_gradient_l1(d: int) -> float:
    """L1 norm of the gradient kernel at t = 1, computed on first use."""
    return kernels.oseen_l1_gradient_norm(1.0, d)


def grid_l2(components: np.ndarray, grid: BoxGrid, out: np.ndarray | None = None) -> float:
    """L2 norm of a field on the grid; ``out``, if given, takes the squares."""
    squares = np.multiply(components, components, out=out)
    return float(np.sqrt(np.sum(squares) * grid.spacing**grid.d))


class _SpectralOps:
    """Shared spectral machinery bound to one grid, on the real-FFT half spectrum.

    Fields are real, so only the last axis' modes 0..N/2 are kept
    (``rfftn``/``irfftn``); every multiplier is sliced to match.  A real field
    has no odd part at the Nyquist wavenumber, so ``k`` (first derivatives)
    is zero there and the Nyquist entries live in ``k_nyquist``; ``k2`` keeps
    the full |k|^2.

    The bilinear integrand, the projected divergence of the momentum flux,
    is a source and its lift, ``lift(flux_source)``.  In d = 2 the source is
    one scalar per mode and the lift is i k_perp, k_perp = (-k_1, k_0); in
    d = 3 the source is the projected vector itself and the lift is the
    identity.  Both live on the dealiased block only: the two-thirds rule
    zeroes every mode with some |n_axis| >= N/3, so B is stored at the
    kept modes, rows n = 0..K-1 and N-K+1..N-1 of every leading axis (two
    slabs) and columns n = 0..K-1 of the last, K the count of kept n >= 0.
    The Duhamel recursion accumulates sources and lifts once per slice.
    """

    def __init__(self, grid: BoxGrid):
        self.grid = grid
        half = (Ellipsis, slice(0, grid.n // 2 + 1))
        self.axes = tuple(range(1, grid.d + 1))
        nyquist = [k == k.min() for k in grid.wavenumbers]   # fftfreq's -N/2 entry
        self.k = [np.where(nq, 0.0, k)[half] for k, nq in zip(grid.wavenumbers, nyquist)]
        self.k_nyquist = [np.where(nq, k, 0.0)[half]
                          for k, nq in zip(grid.wavenumbers, nyquist)]
        self.k2 = grid.k_squared[half]
        self.inv_k2 = grid.inverse_k_squared[half]
        self.shape = self.k2.shape
        # the mask is one 1-d rule per axis: read it along axis 0
        self._rows = np.flatnonzero(grid.dealias_mask[(slice(None),) + (0,) * (grid.d - 1)])
        n = grid.n
        kept = int(np.count_nonzero(self._rows <= n // 2))
        self._kept = kept
        self.block_shape = (self._rows.size,) * (grid.d - 1) + (kept,)
        runs = ((slice(0, kept), slice(0, kept)), (slice(n - kept + 1, n), slice(kept, None)))
        self._slabs = [tuple(zip(*run, (slice(0, kept), slice(None))))
                       for run in itertools.product(runs, repeat=grid.d - 1)]
        self._k_block = [self.block(k) for k in self.k]
        self._inv_k2_block = self.block(self.inv_k2)
        if grid.d == 2:
            k0, k1 = self._k_block
            inv = self._inv_k2_block
            self._source_weights = (-2.0 * k0 * k1 * inv, (k0 * k0 - k1 * k1) * inv)
            self._lift = np.stack(np.broadcast_arrays(-1j * k1, 1j * k0))

    def fft(self, comps):
        return np.fft.rfftn(comps, axes=self.axes)

    def ifft(self, spec):
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self.axes)

    def block(self, spec):
        """The dealiased block of a half-spectrum array or multiplier; leading
        axes beyond the grid's are batch axes, and axes of length 1 broadcast."""
        spec = spec[..., :self._kept]
        for ax in range(-2, -self.grid.d - 1, -1):
            if spec.shape[ax] > 1:
                spec = np.take(spec, self._rows, axis=ax)
        return spec

    def subtract_block(self, spec, block) -> None:
        """spec -= block at the block's modes, in place."""
        for full, part in self._slabs:
            spec[(Ellipsis,) + full] -= block[(Ellipsis,) + part]

    def _block_rfftn(self, comps):
        """The dealiased block of ``rfftn`` over the grid axes of ``comps``.

        ``np.fft.rfftn`` takes the rfft along the last axis, then an fft
        along each earlier axis, last to first.  The same passes run here in
        the same order, each later one on the kept columns and rows only, so
        every kept value is bitwise the one ``rfftn`` gives.
        """
        spec = np.fft.rfft(comps, axis=-1)[..., :self._kept]
        for ax in range(-2, -self.grid.d - 1, -1):
            spec = np.take(np.fft.fft(spec, axis=ax), self._rows, axis=ax)
        return spec

    def project(self, spec):
        """Leray projection of a real field's half spectrum.

        At a mode with some axes at the Nyquist index, the projector of a real
        field is the mean of k k^T / |k|^2 over the mode and its mirror image;
        that drops the cross terms between Nyquist and other axes and leaves
        two rank-one parts, (k k^T + k_nyquist k_nyquist^T) / |k|^2.  They
        act on orthogonal vectors, so they are applied one after the other.
        """
        return leray_apply(leray_apply(spec, self.k, self.inv_k2), self.k_nyquist,
                           self.inv_k2)

    def flux_source(self, u_phys: np.ndarray, drift: np.ndarray):
        """The bilinear integrand before its lift on the dealiased block, for
        W the dealiased product (u + drift) (x) (u + drift).

        In d = 2, with f = u + drift, the trace part of W has a gradient for
        its divergence, which the projector removes.  Only a = (f_0^2 - f_1^2)/2
        and b = f_0 f_1 are transformed, and P[i k . W] = i k_perp s with
        s = [(k_0^2 - k_1^2) b - 2 k_0 k_1 a] / |k|^2.  The block holds no
        Nyquist mode, so s has no Nyquist part and the full projector is this
        one term.  In d = 3 the source is P[i k . W].
        """
        d = self.grid.d
        full = u_phys + drift.reshape((d,) + (1,) * d)
        if d == 2:
            f0, f1 = full
            b = f0 * f1
            f0 *= f0
            f0 -= f1 * f1
            f0 *= 0.5                         # f0 holds a now
            # one component at a time: the same values, half the spectra held
            wa, wb = self._source_weights
            return wa * self._block_rfftn(f0) + wb * self._block_rfftn(b)
        k = self._k_block
        div = np.zeros((d,) + self.block_shape, dtype=complex)
        for kk in range(d):
            for ll in range(kk, d):
                w_hat = self._block_rfftn(full[kk] * full[ll])
                div[kk] += 1j * k[ll] * w_hat
                if ll != kk:
                    div[ll] += 1j * k[kk] * w_hat
        # the block holds no Nyquist mode: the rank-one Nyquist part is idle
        return leray_apply(div, k, self._inv_k2_block)

    def lift(self, source):
        """The projected flux divergence of a block source: i k_perp s in d = 2."""
        if self.grid.d == 3:
            return source
        return self._lift * source


def _snapshot_name(i: int) -> str:
    return f"u{i:05d}.nsvf"


def _staging_prefix(directory) -> tuple:
    """(parent, name prefix) of the hidden siblings that stage ``directory``."""
    parent, name = os.path.split(os.path.abspath(directory))
    return parent, f".{name}."


def _staging_directory(directory) -> str:
    """A new, empty hidden sibling of ``directory``."""
    parent, prefix = _staging_prefix(directory)
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=parent)


class SnapshotFiles:
    """The snapshots of one trajectory as the ``u{i:05d}.nsvf`` files of one
    directory, for a trajectory that is not held in memory.

    Reading slice i reads its file (``read_snapshot``), and assigning or
    appending a slice writes it; no file stays open.  A file whose header no
    longer holds this trajectory's grid and slice time raises ValueError.
    """

    def __init__(self, directory, grid: BoxGrid, times: np.ndarray, count: int = 0):
        self.directory = os.path.abspath(directory)
        self.grid = grid
        self.times = times
        self._count = count

    def path(self, i: int) -> str:
        return os.path.join(self.directory, _snapshot_name(i))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(self._count)[i]
        fld = read_snapshot(self.path(i))
        if fld.grid != self.grid or fld.time != float(self.times[i]):
            raise ValueError(f"{self.path(i)} no longer holds slice {i} of its trajectory")
        return fld.components

    def __iter__(self):
        return (self[i] for i in range(self._count))

    def __setitem__(self, i: int, comps: np.ndarray) -> None:
        i = range(self._count)[i]
        VectorFieldGrid(self.grid, comps, time=float(self.times[i])).save(self.path(i))

    def append(self, comps: np.ndarray) -> None:
        self._count += 1
        self[-1] = comps


def _decay_sup(comps: np.ndarray, weight: np.ndarray) -> float:
    """max over the grid of weight * |u| for one snapshot's components."""
    mag = comps[0] * comps[0]
    for c in comps[1:]:
        mag += c * c
    np.sqrt(mag, out=mag)
    mag *= weight
    return float(mag.max())


class Trajectory:
    """Solved trajectory: mean-free snapshots plus analytic drift bookkeeping.

    ``snapshots`` is a list of (d, N..N) mean-free arrays, or ``SnapshotFiles``
    that read them from disk one at a time.  ``kappa`` is the Lipschitz
    constant of the Picard map certified at the last sweep, and ``bound``
    the certified distance of the snapshots to the discrete fixed point, or
    None when kappa > 1/2 certifies none (see ``picard_solve``).  ``decay``,
    when the solve measured it, is the value of ``decay_constant``.
    """

    def __init__(self, grid: BoxGrid, times: np.ndarray, snapshots,
                 drift: np.ndarray, iteration_log: list, scenario_hash: str = "", *,
                 kappa: float, bound: float | None, decay: float | None = None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.snapshots = snapshots
        self.drift = np.asarray(drift)      # (M+1, d) uniform box drift
        self.iteration_log = list(iteration_log)
        self.scenario_hash = scenario_hash
        self.kappa = kappa
        self.bound = bound
        self._cache = {}                    # derived data built on first use
        if decay is not None:
            self._cache["decay_constant"] = decay

    def _cached(self, key, build):
        """The cache entry under ``key``, built by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def contractive(self) -> bool:
        """kappa <= 1/2 when the solve certified its fixed point; else, for a
        solve that stopped on its last update alone, a strictly decreasing
        update log."""
        if self.bound is not None:
            return self.kappa <= 0.5
        log = self.iteration_log
        return all(log[i] < log[i - 1] for i in range(2, len(log)))

    def slice_index(self, t: float) -> int:
        if not on_slice(self.times, t):
            raise ValueError(f"time {t} is not a sample time of this trajectory")
        return nearest_slice(self.times, t)

    def nearest_time(self, t: float) -> float:
        """Snap to the closest sample time."""
        return float(self.times[nearest_slice(self.times, t)])

    def field_at(self, t: float) -> VectorFieldGrid:
        i = self.slice_index(t)
        return VectorFieldGrid(self.grid, self.snapshots[i].copy(), time=float(self.times[i]))

    def decay_constant(self) -> float:
        """Measured sup over slices of (1+|x|)^d |u| on the grid snapshots,
        in one pass over them."""
        def build():
            w = (1.0 + self.grid.radius) ** self.grid.d
            best = 0.0
            for comps in self.snapshots:
                best = max(best, _decay_sup(comps, w))
            return best

        return self._cached("decay_constant", build)

    # -- bilinear history on the central |y| <= L/2 sub-box ------------------

    def flux_history(self, stride: int = 1):
        """Per-slice momentum flux of u + D, D the drift, on |y| <= L/2 at
        every ``stride``-th grid point along each axis.

        Returns (points (n_y, d), fluxes): one array per slice.  In d = 2 a
        flux is its traceless part sigma = (Q_11 - Q_22)/2 + i Q_12 of
        Q = (u+D)(x)(u+D), that is ((u_0+D_0) + i (u_1+D_1))^2 / 2, complex
        of shape (n_y,): every far-field kernel annihilates the identity, so
        the trace drops out (see ``kernels``).  In d = 3 it is Q itself, real
        of shape (n_y, d, d).
        """
        def build():
            d, n = self.grid.d, self.grid.n
            region = (slice(n // 4, 3 * n // 4, stride),) * d
            pts = self.grid.points[region].reshape(-1, d)
            fluxes = []
            for i, comps in enumerate(self.snapshots):
                u = comps[(slice(None),) + region].reshape(d, -1)
                u = u + self.drift[i][:, None]
                if d == 2:
                    w = u[0] + 1j * u[1]
                    fluxes.append(0.5 * (w * w))
                else:
                    fluxes.append(np.einsum("ky,ly->ykl", u, u))
            return pts, fluxes

        return self._cached(("flux", stride), build)

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> None:
        """Write the snapshots and manifest into ``directory``, replacing it whole.

        Everything is written into a hidden sibling directory that is then
        renamed into place, so an interrupted save leaves the previous
        directory complete, or no directory at all, and never a partial one.
        The snapshot files that ``picard_solve(..., directory=directory)``
        staged in such a sibling stay there: the save adds the manifest,
        renames that sibling into place, and they are read from
        ``directory`` from then on.  Other snapshots are appended to a new
        sibling's ``SnapshotFiles``.  A directory already in place is first
        renamed aside, then deleted, and so are the siblings that a killed
        run left behind.
        """
        directory = os.path.abspath(directory)
        parent, prefix = _staging_prefix(directory)
        os.makedirs(parent, exist_ok=True)
        siblings = {os.path.join(parent, e) for e in os.listdir(parent) if e.startswith(prefix)}
        source = self.snapshots.directory if isinstance(self.snapshots, SnapshotFiles) else None
        staged = source in siblings
        for path in siblings - {source}:
            shutil.rmtree(path, ignore_errors=True)
        files = self.snapshots if staged else \
            SnapshotFiles(_staging_directory(directory), self.grid, self.times)
        staging = files.directory
        old = None
        try:
            if not staged:
                for comps in self.snapshots:
                    files.append(comps)
            lines = [f"format {TRAJECTORY_FORMAT}",
                     f"scenario_hash {self.scenario_hash}",
                     f"slices {len(files) - 1}",
                     "iteration_log " + " ".join(repr(float(v)) for v in self.iteration_log),
                     f"kappa {float(self.kappa)!r}",
                     f"bound {'none' if self.bound is None else repr(float(self.bound))}"]
            for i, t in enumerate(self.times):
                drift = " ".join(repr(float(v)) for v in self.drift[i])
                lines.append(f"snapshot {i} {float(t)!r} {_snapshot_name(i)} {drift}")
            with open(os.path.join(staging, "manifest.txt"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            if os.path.isdir(directory):
                old = _staging_directory(directory)
                os.replace(directory, old)
            os.replace(staging, directory)
            files.directory = directory
        finally:
            # after a completed save the staging directory is gone already
            shutil.rmtree(staging, ignore_errors=True)
            if old is not None:
                shutil.rmtree(old, ignore_errors=True)


def load_trajectory(directory) -> Trajectory:
    """Open a ``Trajectory.save`` directory; ValueError unless the manifest is
    whole and current and every snapshot's header and size agree with it and
    with the first snapshot's grid.  No sample is read here: the trajectory's
    ``SnapshotFiles`` read each snapshot when it is asked for.

    Every header line (all but the ``snapshot`` lines) appears exactly once;
    the numbers on the ``iteration_log``, ``kappa`` and ``bound`` lines are
    finite, and ``bound none`` stands for no certified bound.
    """
    with open(os.path.join(directory, "manifest.txt")) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]

    def single(key: str) -> list:
        found = [parts[1:] for parts in lines if parts[0] == key]
        if len(found) != 1:
            raise ValueError(f"{directory}: the manifest has {len(found)} {key} lines, not 1")
        return found[0]

    def finite(values: list, one: bool = False) -> list:
        numbers = [float(v) for v in values]
        if not all(map(math.isfinite, numbers)) or (one and len(numbers) != 1):
            raise ValueError(f"{directory}: the manifest has {' '.join(values)!r} where "
                             f"{'one finite number' if one else 'finite numbers'} belong")
        return numbers

    if single("format") != [str(TRAJECTORY_FORMAT)]:
        raise ValueError(f"{directory}: the manifest is not of format {TRAJECTORY_FORMAT}")
    scenario_hash = " ".join(single("scenario_hash"))
    slices = single("slices")
    log = finite(single("iteration_log"))
    kappa, = finite(single("kappa"), one=True)
    bound = single("bound")
    bound = None if bound == ["none"] else finite(bound, one=True)[0]
    entries = [parts for parts in lines if parts[0] == "snapshot"]
    cut = [" ".join(parts) for parts in entries if len(parts) < 4]
    if cut:
        raise ValueError(f"{directory}: the manifest line {cut[0]!r} is cut")
    if not entries:
        raise ValueError(f"{directory}: the manifest lists no snapshot")
    if slices != [str(len(entries) - 1)]:
        raise ValueError(f"{directory}: the manifest lists {len(entries)} snapshots "
                         f"for {' '.join(slices)!r} slices")
    entries.sort(key=lambda p: int(p[1]))
    times, drifts = [], []
    grid = None
    for i, parts in enumerate(entries):
        if int(parts[1]) != i or parts[3] != _snapshot_name(i):
            raise ValueError(f"{directory}: the manifest line {' '.join(parts[:4])!r} "
                             f"is not slice {i} in {_snapshot_name(i)}")
        times.append(float(parts[2]))
        snap_grid, snap_time = snapshot_header(os.path.join(directory, parts[3]))
        if len(parts) != 4 + snap_grid.d:
            raise ValueError(f"{directory}: snapshot {i} lists {len(parts) - 4} "
                             f"drift components for d = {snap_grid.d}")
        # header and manifest are written from the same grid and float(t)
        if grid is not None and snap_grid != grid:
            raise ValueError(f"{directory}: snapshot {i} is on {snap_grid!r}, "
                             f"the first on {grid!r}")
        if snap_time != times[-1]:
            raise ValueError(f"{directory}: snapshot {i} holds time {snap_time!r}, "
                             f"the manifest lists {times[-1]!r}")
        grid = snap_grid
        drifts.append([float(v) for v in parts[4:]])
    times = np.array(times)
    return Trajectory(grid, times, SnapshotFiles(directory, grid, times, len(entries)),
                      np.array(drifts), log, scenario_hash, kappa=kappa, bound=bound)


# ---------------------------------------------------------------------------
# grid-mode Duhamel terms
# ---------------------------------------------------------------------------


def _uniform_step(times: np.ndarray) -> float:
    """Width of the slices between ``times``; they must be uniform."""
    if times.size < 2:
        return 0.0
    dt = float(times[-1] - times[0]) / (times.size - 1)
    if np.abs(np.diff(times) - dt).max() > 1e-9 * dt:
        raise ValueError("slice times must be uniformly spaced (to 1e-9 relative)")
    return dt


@dataclass(frozen=True)
class _SliceRule:
    """The graded GL4 rule of one slice, folded with the heat flow.

    Slices are uniform, so a node's offset inside its slice, and with it the
    propagator exp(-(t1 - s)|k|^2) to the slice end, is the same in every
    slice.  ``offsets``/``weights`` are the nodes' s - t0 and half * wgt;
    ``factors`` holds one propagator per node and distinct |k|^2, and
    ``index`` maps each half-spectrum mode to its |k|^2 column;
    ``decay`` is exp(-dt |k|^2).
    """

    dt: float
    offsets: np.ndarray
    weights: np.ndarray
    factors: np.ndarray
    index: np.ndarray
    decay: np.ndarray

    def columns(self, node_weights: np.ndarray) -> np.ndarray:
        """sum over nodes of weights * node_weights * propagator, per |k|^2 column."""
        return np.tensordot(self.weights * node_weights, self.factors, axes=1)

    def fold(self, node_weights: np.ndarray) -> np.ndarray:
        """``columns`` spread over the half-spectrum modes: one field."""
        return self.columns(node_weights)[self.index]


def _slice_rule(ops: _SpectralOps, times: np.ndarray, opts: SolverOptions) -> _SliceRule:
    dt = _uniform_step(times)
    offsets, weights = (a.ravel() for a in kernels.gauss_panels(
        *_time_panels([0.0, dt], opts.refine), 4))
    k2, index = np.unique(ops.k2, return_inverse=True)
    k2 = np.concatenate([k2, np.zeros(-k2.size % _FOLD_COLUMNS)])
    factors = np.exp(np.multiply.outer(-(dt - offsets), k2))
    return _SliceRule(dt, offsets, weights, factors, index.reshape(ops.shape),
                      np.exp(-dt * ops.k2))


def _stencil_columns(rule: _SliceRule):
    """The stencil weights of B's recursion, per |k|^2 column of ``rule``.

    Slice m adds sum_j E_j source(t_{idx_j}) over its cubic stencil idx,
    where E_j folds the Lagrange weight of stencil slice j into the node
    propagators.  E_j depends only on the stencil's position relative to the
    slice, (m - idx[0], len(idx)): the returned function maps that pattern to
    [E_j], each built once.  ``_mild_series`` spreads them over the modes and
    ``_flux_weight`` reads them as they are.
    """
    @functools.cache
    def columns(offset: int, size: int) -> list:
        lw = np.stack([_lagrange_weights(np.arange(size) * rule.dt, (offset - 1) * rule.dt + s)
                       for s in rule.offsets])
        return [rule.columns(lw[:, j]) for j in range(size)]

    return columns


def _flux_weight(ops: _SpectralOps, times: np.ndarray, opts: SolverOptions) -> float:
    """W_h = max over slices m of sum_n sup_k |k| |c_{m,n}(k)|, k over the
    dealiased block, in O(slices x |k|^2 columns) time.

    c_{m,n} is the weight with which slice n's flux source enters slice m in
    ``_mild_series``: c_{m,n} = decay c_{m-1,n}, plus E_j when slice m's
    stencil holds n at position j.  So c_{n+l,n} depends on n only through
    the record of which stencils hold n, where and how: sources with one
    record share one impulse response in the lag l = m - n.  The interior
    sources share one record, and the first and last few sources add a few
    more.  Each response runs once, on the block's distinct |k|^2 (c depends
    on k only through |k|^2), and keeps only its sup over k at every lag.
    """
    n_slices = times.size - 1
    rule = _slice_rule(ops, times, opts)
    columns = _stencil_columns(rule)
    # np.unique without return_inverse would import numpy.ma (1.3 MB)
    k2, decay, block = np.zeros((3, rule.factors.shape[1]))
    k2[rule.index], decay[rule.index], block[ops.block(rule.index)] = ops.k2, rule.decay, 1.0
    cols = np.flatnonzero(block)
    modulus, decay = np.sqrt(k2[cols]), decay[cols]
    records = [[] for _ in range(n_slices + 1)]
    for m in range(1, n_slices + 1):
        idx = _stencil(m, n_slices)
        for j, n in enumerate(idx):
            records[n].append((m - n, m - idx[0], len(idx), j))
    records = [tuple(rec) for rec in records]
    row = {rec: i for i, rec in enumerate(sorted(set(records)))}
    terms = {}                                  # lag -> [(row, E_j)]
    for rec, i in row.items():
        for lag, offset, size, j in rec:
            terms.setdefault(lag, []).append((i, columns(offset, size)[j][cols]))
    first = min(terms)                          # the least lag: stencils reach ahead
    c = np.zeros((len(row), cols.size))         # one impulse response per row
    sups = np.zeros((len(row), n_slices + 1 - first))
    for lag in range(first, n_slices + 1):
        c *= decay
        for i, e in terms.get(lag, ()):
            c[i] += e
        sups[:, lag - first] = np.max(modulus * np.abs(c), axis=1)
    totals = np.zeros(n_slices + 1)
    for n, rec in enumerate(records):
        lo = max(1, n + first)
        totals[lo:] += sups[row[rec], lo - n - first:n_slices + 1 - n - first]
    return float(totals.max())


def _force_spectra(ops: _SpectralOps, f: ForceModel):
    """Projected, mean-free spectra of the separable force terms."""
    out = []
    for term in f.terms:
        rho_hat = np.fft.rfftn(term.profile.value(ops.grid.points))
        spec = np.stack([rho_hat * amp for amp in term.amplitude])
        spec[(slice(None),) + (0,) * ops.grid.d] = 0.0  # mean handled as drift
        out.append(ops.project(spec))
    return out


def _source_lane(grid: BoxGrid):
    """A one-thread executor for flux sources, or None below the lane's gate
    (``_LANE_POINTS``, ``_LANE_CPUS``)."""
    if grid.n ** grid.d < _LANE_POINTS:
        return None
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < _LANE_CPUS:
        return None
    from concurrent.futures import ThreadPoolExecutor   # only grids above the gate
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="flux-source")


def _mild_series(ops: _SpectralOps, times: np.ndarray, opts: SolverOptions,
                 a: InitialData | None = None, f: ForceModel | None = None,
                 history: tuple | None = None):
    """heat(a) + L(f) - B(history) at every slice time, yielded slice by slice.

    One exponential-integrator recursion carries all three Duhamel terms; a
    term whose argument is None is left out.  The vector accumulator starts
    at the projected, mean-free data spectrum and each slice adds one field
    (the node propagators folded with the force's tau(s)) times each force
    term's spectrum.  B's source (``_SpectralOps.flux_source``: one scalar
    per mode in d = 2) goes into a second accumulator on the dealiased
    block: slice m adds sum_j E_j source(t_{idx_j}) over its cubic stencil
    idx, with E_j from ``_stencil_columns``; each pattern's fields are
    spread over the modes once per call, and only their block is kept.  Each
    slice costs one lift, taken off a copy of the vector accumulator at the
    block, and one inverse transform.

    ``history`` is (snapshots, drift), and with it each slice comes as the
    pair (slice, the history slice it replaces).  A history slice at an
    index >= len(snapshots), every one in a first sweep, is u^(0) =
    heat(a) + L(f), the inverse transform of the vector accumulator there:
    the accumulator runs ahead of the slice being built, a copy kept per
    slice, as far as the sources are queued.  Slice m's stencil reaches an
    index >= m, so the source of history slice m is taken, or queued on the
    lane (``_source_lane``), before slice m is yielded: a caller may then
    replace snapshots[m] (m >= 1) with the yielded slice m.  The lane makes
    the same calls on the same arrays as the inline path, so every value is
    the same with and without it.
    """
    d = ops.grid.d
    rule = _slice_rule(ops, times, opts)
    specs = [] if f is None else _force_spectra(ops, f)

    def linear():
        acc = np.zeros((d,) + ops.shape, dtype=complex)
        if a is not None:
            acc += ops.project(ops.fft(a.to_field(ops.grid).components))
            acc[(slice(None),) + (0,) * d] = 0.0
        yield acc
        for m in range(1, times.size):
            acc *= rule.decay
            tv = f.time_profile.value(times[m - 1] + rule.offsets) if specs else 0.0
            if np.any(tv):
                fold = rule.fold(tv)
                for spec in specs:
                    acc += fold * spec
            yield acc

    if history is None:
        for acc in linear():
            yield ops.ifft(acc)
        return

    snapshots, drift = history
    n_slices = times.size - 1
    decay = ops.block(rule.decay)
    bil = np.zeros(ops.block_shape if d == 2 else (d,) + ops.block_shape, dtype=complex)
    columns = _stencil_columns(rule)
    lane = _source_lane(ops.grid)
    spectra = enumerate(linear())
    ahead = {}          # slice -> its heat(a) + L(f) spectrum, until the slice is built
    sources = {}        # slice -> (history slice, flux source), or the lane's future
    queued = 0

    @functools.cache
    def stencil_fields(offset: int, size: int):
        return [ops.block(c[rule.index]) for c in columns(offset, size)]

    def spectrum(i: int) -> np.ndarray:
        while i not in ahead:
            j, acc = next(spectra)
            ahead[j] = acc.copy()
        return ahead[i]

    def source(i: int, spec) -> tuple:
        u = snapshots[i] if spec is None else ops.ifft(spec)
        return u, ops.flux_source(u, drift[i])

    def queue(last: int) -> None:
        """Take, or queue on the lane, every source through slice ``last``."""
        nonlocal queued
        for i in range(queued, min(last, n_slices) + 1):
            spec = spectrum(i) if i >= len(snapshots) else None
            sources[i] = source(i, spec) if lane is None else lane.submit(source, i, spec)
            queued = i + 1

    def taken(i: int) -> tuple:
        return sources[i] if lane is None else sources[i].result()

    try:
        queue(_LANE_REACH if lane is not None else 0)
        yield ops.ifft(spectrum(0)), taken(0)[0]
        for m in range(1, times.size):
            del ahead[m - 1]
            idx = _stencil(m, n_slices)
            for i in [i for i in sources if i < idx[0]]:
                del sources[i]
            queue(idx[-1] if lane is None else m + _LANE_REACH)
            bil *= decay
            for i, weight in zip(idx, stencil_fields(m - idx[0], len(idx))):
                bil += weight * taken(i)[1]
            total = spectrum(m)
            ops.subtract_block(total, ops.lift(bil))
            yield ops.ifft(total), taken(m)[0]
    finally:
        if lane is not None:
            lane.shutdown(cancel_futures=True)


def _linear_series(ops: _SpectralOps, f: ForceModel, times: np.ndarray,
                   opts: SolverOptions):
    """L(f) at every slice time; mean-free."""
    return list(_mild_series(ops, times, opts, f=f))


def _sweep(ops: _SpectralOps, a: InitialData, f: ForceModel, snapshots,
           drift: np.ndarray, times: np.ndarray, opts: SolverOptions) -> tuple:
    """(update, peak, decay) of one Picard sweep: the sup over slice times
    of the L2 update norm, an upper bound on sup |u + D| over the new
    slices, and their ``Trajectory.decay_constant``.

    Slice m >= 1 of the sweep replaces snapshots[m] right after its norm is
    taken; ``_mild_series`` has read the old slice by then, so this is still
    the Jacobi iteration.  Slice 0 is heat(a) at t = 0 in every sweep.  An
    empty ``snapshots`` makes this the first sweep: it starts from u^(0) =
    heat(a) + L(f), which the series builds on the way, and appends every
    slice.  The peak of a slice is sqrt(sum_i max(|max u_i + D_i|,
    |min u_i + D_i|)^2) over its components i, which makes no full-grid
    temporary.
    """
    update = peak = decay = 0.0
    diff = None
    weight = (1.0 + ops.grid.radius) ** ops.grid.d
    for m, (new, old) in enumerate(_mild_series(ops, times, opts, a, f, (snapshots, drift))):
        extremes = [max(abs(c.max() + dv), abs(c.min() + dv)) for c, dv in zip(new, drift[m])]
        peak = max(peak, math.sqrt(sum(e * e for e in extremes)))
        decay = max(decay, _decay_sup(new, weight))
        diff = np.subtract(new, old, out=diff)
        update = max(update, grid_l2(diff, ops.grid, out=diff))
        if m == len(snapshots):
            snapshots.append(new)
        elif m > 0:
            snapshots[m] = new
    return update, peak, decay


def picard_solve(a: InitialData, f: ForceModel, grid: BoxGrid, horizon: float,
                 opts: SolverOptions = SolverOptions(),
                 scenario_hash: str = "", assumptions=None,
                 directory=None) -> Trajectory:
    """Iterate the integral formulation to its discrete fixed point.

    The trajectory's snapshots are a list, or, when ``directory`` is given,
    ``SnapshotFiles`` in a new hidden sibling of it that its ``save(directory)``
    renames into place (a solve that raises removes it): each sweep writes
    every slice to its file as it is built, and the solve holds no more than
    a stencil of slices in memory.  u^(0) = heat a + L(f) is the first
    sweep's own linear part, never a list of slices.

    Sweep k applies the discrete Picard map Phi(u) = heat a + L(f) - B(u, u)
    to the iterate u_{k-1} on every slice at once and gives u_k.  With
    update_k = ||u_k - u_{k-1}|| (sup over slices of the grid L2 norm), the
    solve stops after the first sweep with

        update_k < tol,   or   kappa <= 1/2 and kappa / (1 - kappa) update_k < tol,

    where kappa = 2 W_h (S_k + h^(-d/2) update_k) is a Lipschitz constant of
    Phi on the closed ball of radius update_k about u_k:

    * Phi(u) - Phi(v) = -B(u - v, u + D) - B(v + D, u - v), D the drift.
      Slice m of B sums, over slices n, c_{m,n} times the projected
      divergence of the flux at slice n on the dealiased block.  With
      |P ik.W^| <= |k| |W^|, Parseval, the block being a projection, and
      ||w (x) z|| <= ||w|| sup|z| on the grid, ||Phi(u) - Phi(v)|| <=
      W_h (sup|u + D| + sup|v + D|) ||u - v||; W_h = max_m sum_n
      sup_k |k| |c_{m,n}(k)| (``_flux_weight``, built once per solve).
    * On the grid sup|w| <= h^(-d/2) ||w||, so every w in the ball has
      sup|w + D| <= S_k + h^(-d/2) update_k, S_k the sup over slices of
      |u_k + D| (bounded from above by ``_sweep``'s peak).  So Phi is
      kappa-Lipschitz on the ball.
    * The ball holds u_{k-1}, and Phi(u_{k-1}) = u_k.  For w in the ball,
      ||Phi(w) - u_k|| <= kappa ||w - u_{k-1}|| <= 2 kappa update_k, so
      2 kappa <= 1 makes Phi map the ball into itself.  By Banach's theorem
      its fixed point u* lies in the ball, and ||u* - u_k|| <=
      kappa ||u* - u_{k-1}|| <= kappa (||u* - u_k|| + update_k) gives
      ||u* - u_k|| <= kappa / (1 - kappa) update_k.

    So opts.tol bounds the certified distance of the returned iterate to the
    discrete fixed point; the trajectory keeps kappa and that bound.  When
    kappa > 1/2 nothing is certified, update_k < tol alone stops the solve,
    and the bound is None.  W_h is the grid form of the heat flow's
    smoothing, sup_k |k| exp(-tau k^2) = (2 e tau)^(-1/2), which gives
    W <= sqrt(2T/e) (Fujita & Kato, Arch. Rational Mech. Anal. 16, 1964).

    Raises AdmissionError when the measured smallness constants exceed the
    empirical contraction guard, ContractionError when update norms fail to
    decrease, ConvergenceError when max_sweeps is exhausted.  A caller that
    has already measured the force constants (``validate_assumptions`` at
    ADMISSION_LIMIT on its default lattice) passes the report as
    ``assumptions``.
    """
    if math.sqrt(horizon) > grid.length / 8.0 + 1e-12:
        raise ValueError(
            f"sqrt(horizon) = {math.sqrt(horizon):.3g} exceeds L/8 = {grid.length / 8:.3g}; "
            "periodic truncation would contaminate the far field")
    rep = assumptions
    if rep is None:
        rep = validate_assumptions(f, ADMISSION_LIMIT)
    combined = rep.combined() + a.l1_norm + a.sup_weighted
    if combined > ADMISSION_LIMIT:
        raise AdmissionError(
            f"combined force/data constants {combined:.3g} exceed the "
            f"admission threshold {ADMISSION_LIMIT:g}")

    ops = _SpectralOps(grid)
    times = np.linspace(0.0, horizon, opts.slices + 1)
    vol = (2.0 * grid.length) ** grid.d
    drift = np.stack([force_integral(f, float(t)) / vol for t in times])

    weight = _flux_weight(ops, times, opts)
    snapshots = ([] if directory is None
                 else SnapshotFiles(_staging_directory(directory), grid, times))
    log = []
    try:
        for sweep in range(1, opts.max_sweeps + 1):
            update, peak, decay = _sweep(ops, a, f, snapshots, drift, times, opts)
            log.append(update)
            kappa = 2.0 * weight * (peak + grid.spacing ** (-grid.d / 2) * update)
            bound = kappa / (1.0 - kappa) * update if kappa <= 0.5 else None
            if update < opts.tol or (bound is not None and bound < opts.tol):
                break
            if len(log) >= 2 and log[-1] >= log[-2] and update > opts.tol * 10:
                raise ContractionError(
                    f"update norms stopped decreasing at sweep {sweep}: {log}", log)
        else:
            raise ConvergenceError(
                f"no convergence to tol={opts.tol:g} in {opts.max_sweeps} sweeps: {log}", log)
    except BaseException:
        if directory is not None:
            shutil.rmtree(snapshots.directory, ignore_errors=True)
        raise

    return Trajectory(grid, times, snapshots, drift, log, scenario_hash,
                      kappa=kappa, bound=bound, decay=decay)


def integral_residual(traj: Trajectory, a: InitialData, f: ForceModel,
                      opts: SolverOptions = SolverOptions()) -> float:
    """Max over sample times of the L2 defect of the integral equation: the
    update norm of one more Picard sweep, reading one stencil at a time."""
    series = _mild_series(_SpectralOps(traj.grid), traj.times, opts, a, f,
                          (traj.snapshots, traj.drift))
    return max(grid_l2(new - old, traj.grid) for new, old in series)


# ---------------------------------------------------------------------------
# point-mode Duhamel terms
# ---------------------------------------------------------------------------


def _require_points(x, d: int) -> tuple:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(1, -1) if single else x.reshape(-1, d)
    return pts, single, x.shape[:-1]


def _linear_point(f: ForceModel, x: np.ndarray, edges: np.ndarray, opts: SolverOptions,
                  order: int = 4) -> np.ndarray:
    """L(f)(x, t), t = edges[-1], by closed-form time quadrature with the
    GL``order`` panel rule over ``edges``: in ``farfield_velocity`` the slice
    times up to t, where a config's force switches, so tau is smooth on every
    panel.  A force built with a switch inside a slice shares the solve's
    quadrature error there, which ``_linear_gap`` does not see.

    Each Gaussian force term contributes tau(s) * P[c rho_{t-s}](x - center)
    with rho_{t-s} the heat-fattened bump; the projection of a radial Gaussian
    is evaluated in closed form, so only the s-integral is numerical.  The
    (node, term) entries with tau(s) != 0 go through ``projected_gaussian``
    in blocks of about ``_NODE_BLOCK`` floats, one call per block, and are
    summed in node order.  ``_linear_gap`` estimates the error.
    """
    d = f.d
    t = float(edges[-1])
    if len(edges) < 2 or not f.terms or not x.size:   # no panel: t is slice 0
        return np.zeros_like(x)
    panels = _time_panels(edges, opts.refine)
    centers = np.array([term.profile.center for term in f.terms])
    amplitudes = np.array([term.amplitude for term in f.terms])
    block = max(1, _NODE_BLOCK // x.size)
    s, w = (a.ravel() for a in kernels.gauss_panels(*panels, order))
    tv = np.broadcast_to(f.time_profile.value(s)[:, None], (s.size, len(f.terms)))
    ii, jj = np.nonzero(tv)          # node-major, as the quadrature sum runs
    coef = w[ii] * tv[ii, jj]
    evolved = np.array([f.terms[j].profile.heat_evolved(t - s[i])
                        for i, j in zip(ii, jj)]).reshape(-1, 2)
    acc = np.zeros_like(x)
    for b0 in range(0, ii.size, block):
        e = slice(b0, b0 + block)
        vals = kernels.projected_gaussian(x - centers[jj[e], None], evolved[e, :1],
                                          evolved[e, 1:], amplitudes[jj[e], None], d)
        vals *= coef[e, None, None]
        vals[0] += acc
        acc = vals.sum(axis=0)
    return acc


def _linear_gap(values: np.ndarray, f: ForceModel, x: np.ndarray, edges: np.ndarray,
                opts: SolverOptions) -> float:
    """Error estimate of ``_linear_point``'s ``values`` on the same ``edges``:
    the largest distance over the points to the embedded GL2 rule."""
    coarse = _linear_point(f, x, edges, opts, order=2)
    return float(np.max(np.linalg.norm(values - coarse, axis=-1), initial=0.0))


def _history_rule(times: np.ndarray, m_t: int, opts: SolverOptions, order: int) -> list:
    """GL``order`` nodes of the history integral over [0, times[m_t]].

    Panels group `_COARSEN` slices and are graded toward s = t; each node
    carries (s, weight, stencil slice indices, Lagrange weights).
    """
    panels = _time_panels(times[list(range(0, m_t, _COARSEN)) + [m_t]], opts.refine)
    n_slices = times.size - 1
    nodes = []
    for s, weight in zip(*(a.ravel() for a in kernels.gauss_panels(*panels, order))):
        idx = _stencil(int(np.searchsorted(times, s, side="right")), n_slices)
        nodes.append((s, weight, idx, _lagrange_weights(times[idx], s)))
    return nodes


def _collapse(nodes: list, fluxes: list):
    """sum over nodes of weight * flux(s) interpolated on the node's stencil,
    as one weight per slice times that slice's flux."""
    w = np.zeros(len(fluxes))
    for _, weight, idx, lw in nodes:
        w[idx] += weight * lw
    return sum(w[i] * fluxes[i] for i in np.flatnonzero(w))


def _collapsed_history(traj: Trajectory, m_t: int, opts: SolverOptions, order: int,
                       stride: int = 1):
    """The history integral at one evaluation time, for the leading-part sum:
    (GL``order`` nodes of ``_history_rule``, the flux they collapse to in the
    form of ``Trajectory.flux_history(stride)``)."""
    def build():
        nodes = _history_rule(traj.times, m_t, opts, order)
        return nodes, _collapse(nodes, traj.flux_history(stride)[1])

    return traj._cached(("collapsed", m_t, opts.refine, order, stride), build)


def _flux_mass(fluxes: list, nodes: list) -> np.ndarray:
    """sum over ``nodes`` of weight * sum_j |lw_j| |Q_j|_F at each source point,
    which bounds the node sum of |Q(s)|_F there.  Q = (u+D)(x)(u+D) has rank
    one, so |Q|_F = |u+D|^2 = 2 |sigma| in d = 2."""
    w_abs = np.zeros(len(fluxes))
    for _, weight, idx, lw in nodes:
        w_abs[idx] += weight * np.abs(lw)
    mass = 0.0
    for i in np.flatnonzero(w_abs):
        q = fluxes[i]
        norm = 2.0 * np.abs(q) if np.iscomplexobj(q) else np.sqrt(np.sum(q**2, axis=(-2, -1)))
        mass = mass + w_abs[i] * norm
    return mass


def _flux_at(fluxes, idx, lw) -> np.ndarray:
    """The flux at one time node, interpolated on its stencil from the
    per-slice flux arrays ``fluxes[i]``."""
    flux = lw[0] * fluxes[idx[0]]
    for j in range(1, len(idx)):
        flux = flux + lw[j] * fluxes[idx[j]]
    return flux


def _core_pairs(r2, tau) -> np.ndarray:
    """The mask of the core pairs of ``_local_shares``, which drop no entry,
    among pairs at squared distances ``r2``, for nodes at tau = t - s:
    |z| < _CORE sqrt(tau) at the earliest node, or inside every node's reach."""
    return r2 < max(FAR_CUTOFF**2 * tau.min(), _CORE**2 * tau.max())


def _local_shares(x, pts_y, t: float, nodes, fluxes):
    """The Gaussian-local shares of every point of a far-field call.

    With F(z, tau) = G(z) + D(z, tau) (see the module docstring), a pair
    z = x - y is local when a node's reach covers it, |z|^2 < c^2 tau.  Its
    share, the node sum of weight * D with the flux interpolated at the
    node, adds to its G share; a core pair (``_core_pairs``) takes the node
    sum of the full F instead, which replaces its G share.

    A point whose squared distance to the sources' bounding box is at least
    the largest local |z|^2, widened by ``_SCAN_MARGIN``, has no local pair
    and scans no source; the others scan every source in blocks of
    ``_CHUNK`` points.  Sorted by |z|^2, the non-core pairs that a node
    covers are a prefix: one ``psi_grad_contract`` call per node, and one
    ``oseen_grad_contract`` call for all (node, core pair) entries, each
    core pair's node sum in node order.  Each node's interpolated flux
    serves both gathers and is dropped before the next node's.

    Returns (point, source, share, core) in point-major order: indices into
    ``x`` and ``pts_y``, shares per unit cell of shape (n, c) as in
    ``_pair_values``, and the core mask.
    """
    d = pts_y.shape[-1]
    tau = t - np.array([s for s, *_ in nodes])
    reach = FAR_CUTOFF**2 * tau
    lim = reach.max()   # the core lies inside it, as _CORE < FAR_CUTOFF
    gap = np.maximum(np.maximum(pts_y.min(axis=0) - x, x - pts_y.max(axis=0)), 0.0)
    scan = np.flatnonzero(np.sum(gap * gap, axis=-1) < lim * (1.0 + _SCAN_MARGIN))
    hits = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
    for c0 in range(0, scan.size, _CHUNK):
        rows = scan[c0:c0 + _CHUNK]
        z = x[rows, None, :] - pts_y[None, :, :]
        r2 = np.sum(z * z, axis=-1)
        ix, iy = np.nonzero(r2 < lim)
        hits.append((rows[ix], iy, r2[ix, iy]))
    point, source, r2 = (np.concatenate(a) for a in zip(*hits))

    core = _core_pairs(r2, tau)
    near = np.flatnonzero(~core)
    near = near[np.argsort(r2[near], kind="stable")]
    ks = np.searchsorted(r2[near], reach)
    z_near = x[point[near]] - pts_y[source[near]]
    y_near, y_core = source[near], source[core]
    n_c = 1 if np.iscomplexobj(fluxes[0]) else d
    shares = np.zeros((point.size, n_c), dtype=fluxes[0].dtype)
    acc = np.zeros((near.size, n_c), dtype=shares.dtype)
    core_flux = np.empty((tau.size, y_core.size) + fluxes[0].shape[1:], dtype=shares.dtype)
    for n, ((s, weight, idx, lw), k) in enumerate(zip(nodes, ks)):
        if not (k or y_core.size):
            continue
        flux = _flux_at(fluxes, idx, lw)
        if k:
            acc[:k] += weight * kernels.psi_grad_contract(
                z_near[:k], t - s, d, flux[y_near[:k]]).reshape(k, n_c)
        core_flux[n] = flux[y_core]
    shares[near] = acc

    if y_core.size:
        z_core = x[point[core]] - pts_y[y_core]
        # (node, core pair) entries, node-major
        zi = np.broadcast_to(z_core, (tau.size,) + z_core.shape).reshape(-1, d)
        full = kernels.oseen_grad_contract(zi, np.repeat(tau, y_core.size), d,
                                           core_flux.reshape((-1,) + fluxes[0].shape[1:]))
        acc = np.zeros((y_core.size, n_c), dtype=shares.dtype)
        for (_, weight, _, _), f in zip(nodes, full.reshape(tau.size, y_core.size, n_c)):
            acc += weight * f
        shares[core] = acc
    return point, source, shares, core


def _block_shares(local, c0: int, c1: int):
    """The local pairs of points c0 <= i < c1 of ``_local_shares``' result,
    with their point indices relative to c0."""
    point, source, shares, core = local
    lo, hi = np.searchsorted(point, (c0, c1))
    return point[lo:hi] - c0, source[lo:hi], shares[lo:hi], core[lo:hi]


def _pair_values(z, q, local):
    """Every (x, y) pair's share of B(x, t) per unit cell, shape (n_x, c, n_y),
    for one block of points.

    A share is the complex o_0 + i o_1 in d = 2 (c = 1, the flux is sigma)
    and the d real components in d = 3 (c = d).  ``z`` holds x - y, shape
    (n_x, n_y, d).  Every pair contracts G = grad L with the collapsed flux
    ``q``; the block's local pairs ``local`` (``_block_shares``) then add
    their D share to it, or, as core pairs, replace it by their F share.
    """
    n_x, n_y, d = z.shape
    rows, source, shares, core = local
    lead_z = z
    if core.any():
        # core pairs get a placeholder z here; their values are replaced below
        lead_z = z.copy()
        lead_z[rows[core], source[core]] = 1.0
    # (n_x, c, n_y): each point's sum over sources runs along a contiguous row
    lead = kernels.grad_leading_contract(lead_z, d, q).reshape(n_x, n_y, -1)
    vals = np.ascontiguousarray(np.moveaxis(lead, -1, 1))
    near = ~core
    vals[rows[near], :, source[near]] += shares[near]
    vals[rows[core], :, source[core]] = shares[core]
    return vals


def _components(v) -> np.ndarray:
    """Per-point sums (n, c) of ``_pair_values`` shares as real (n, d) vectors:
    o_0 + i o_1 becomes (o_0, o_1), and real components stay as they are."""
    return np.ascontiguousarray(v).view(float)


class _Budget(Mapping):
    """A read-only error budget whose entries ``build()`` computes together,
    on the first read of any of them; the entries are kept."""

    def __init__(self, build):
        self._build = build

    @functools.cached_property
    def _entries(self) -> dict:
        return self._build()

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def _bilinear_point(traj: Trajectory, x: np.ndarray, t: float, opts: SolverOptions,
                    order: int = 4, stride: int = 1) -> np.ndarray:
    """B(u,u)(x, t) by kernel quadrature over the |y| <= L/2 history, with the
    GL``order`` history rule and every ``stride``-th source along each axis.

    One local pass over every point of the call (``_local_shares``) finds
    the pairs that the Gaussian-local rest of the kernel reaches and sums
    their node shares.  Then, in blocks of ``_CHUNK`` points, every source
    pair contracts grad L(x - y) with the collapsed flux, one spatial sum,
    and the block's local shares join it before each point's row sum (see
    ``_pair_values``).  In d = 2 each point's row sum o_0 + i o_1 becomes
    the vector (o_0, o_1).  ``_bilinear_gap`` estimates the error.
    """
    d = traj.grid.d
    m_t = traj.slice_index(t)
    out = np.zeros_like(x)
    if m_t > 0:
        pts_y, fluxes = traj.flux_history(stride)
        nodes, q = _collapsed_history(traj, m_t, opts, order, stride)
        local = _local_shares(x, pts_y, t, nodes, fluxes)
        cell = (traj.grid.spacing * stride)**d
        for c0 in range(0, x.shape[0], _CHUNK):
            xs = x[c0:c0 + _CHUNK]
            z = xs[:, None, :] - pts_y[None, :, :]
            pairs = _pair_values(z, q, _block_shares(local, c0, c0 + xs.shape[0]))
            out[c0:c0 + xs.shape[0]] = _components(cell * pairs.sum(axis=-1))
    return out


def _bilinear_gap(values: np.ndarray, traj: Trajectory, x: np.ndarray, t: float,
                  opts: SolverOptions) -> dict:
    """The error budget of ``_bilinear_point``'s ``values`` at the points ``x``.

    Each entry is a maximum over the points, so it depends on the point set
    alone.  Quadrature error is the distance of each point's value to the
    embedded GL2 rule in s and to the stride-2 subsample in y, both doubled
    as a safety margin; the dropped Psi part and the |y| > L/2 truncation are
    bounded analytically.
    """
    d = traj.grid.d
    m_t = traj.slice_index(t)
    budget = dict.fromkeys(("time_quadrature", "space_quadrature", "truncation",
                            "psi_cutoff"), 0.0)
    if m_t == 0:
        return budget

    def gap(**rule):   # twice the largest distance to a coarser rule's values
        coarse = _bilinear_point(traj, x, t, opts, **rule)
        return 2.0 * float(np.max(np.linalg.norm(values - coarse, axis=-1), initial=0.0))

    pts_y, fluxes = traj.flux_history()
    nodes, _ = _collapsed_history(traj, m_t, opts, 4)
    mass = _flux_mass(fluxes, nodes)
    tau = t - np.array([s for s, *_ in nodes])
    psi_mass = 0.0
    for c0 in range(0, x.shape[0], _CHUNK):
        z = x[c0:c0 + _CHUNK, None, :] - pts_y[None, :, :]
        r2 = np.sum(z * z, axis=-1)
        # a dropped (pair, node) entry has tau <= |z|^2 / c^2: its Psi part is
        # at most psi_gradient_bound(1, 1/c^2) |z|^-(d+1) times the node flux
        psi_mass = max(psi_mass, float((np.where(_core_pairs(r2, tau), np.inf, r2)
                                        ** (-(d + 1) / 2.0) @ mass).max()))

    c_dec = traj.decay_constant()
    tail = (c_dec**2 * (1.0 + traj.grid.length / 2.0) ** (-2 * d) * 2.0
            * _unit_gradient_l1(d) * math.sqrt(t))
    budget.update({
        "time_quadrature": gap(order=2),
        "space_quadrature": gap(stride=2),
        "truncation": float(tail),
        "psi_cutoff": (kernels.psi_gradient_bound(1.0, FAR_CUTOFF**-2, d)
                       * traj.grid.spacing**d * psi_mass if psi_mass else 0.0),
    })
    return budget


def farfield_velocity(traj: Trajectory, a: InitialData, f: ForceModel, x, t: float,
                      opts: SolverOptions = SolverOptions()):
    """Velocity at arbitrary points from the closed-form Duhamel terms.

    Returns (values (..., d), error_budget).  The linear term and its budget
    integrate over one set of panel edges, the slice times up to t.  The
    bilinear term of every point, inside |x| < L/2 as well, is the
    gradient-kernel quadrature of ``_bilinear_point``; its four budget
    entries carry the ``bilinear_`` prefix.  The values are computed here.
    The budget is a read-only mapping that computes all its entries on the
    first read, over every point of the call: the GL2 rules of both
    quadratures, the bilinear values on the stride-2 sources and the decay
    constant behind the truncation bound.  A caller that reads only the
    values, as every check does until the checks report per-point budgets,
    pays for none of it.
    """
    d = traj.grid.d
    pts, single, lead = _require_points(x, d)
    t = float(t)
    edges = np.append(traj.times[:traj.slice_index(t)], t)
    lin_vals = _linear_point(f, pts, edges, opts)
    bil = _bilinear_point(traj, pts, t, opts)
    total = a.value(pts, t) + lin_vals - bil
    out = total.reshape(lead + (d,)) if not single else total[0]
    pts = pts.copy()

    def budget():
        bilinear = _bilinear_gap(bil, traj, pts, t, opts)
        return {"heat": 0.0,   # the heat term is exact
                "linear_quadrature": _linear_gap(lin_vals, f, pts, edges, opts),
                **{f"bilinear_{k}": v for k, v in bilinear.items()}}

    return out, _Budget(budget)


def scenario_digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]
