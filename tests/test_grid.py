"""Periodic-box fields: the Leray multiplier, the annulus norm, snapshot IO."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import divergence_defect, rewrite_snapshot_header
from nsfarfield.grid import (
    BoxGrid,
    VectorFieldGrid,
    leray_apply,
    read_snapshot,
    restrict_annulus_norm,
    snapshot_header,
)


@pytest.fixture(scope="module")
def box2():
    return BoxGrid(2, 16.0, 128)


def random_field(grid, seed=0, smooth=True):
    rng = np.random.default_rng(seed)
    if not smooth:
        return VectorFieldGrid(grid, rng.normal(size=(grid.d,) + grid.shape))
    # band-limited random field: fill low modes only
    spec = np.zeros((grid.d,) + grid.shape, dtype=complex)
    m = 6
    for c in range(grid.d):
        block = rng.normal(size=(2 * m + 1,) * grid.d) + 1j * rng.normal(size=(2 * m + 1,) * grid.d)
        idx = np.ix_(*([np.r_[0 : m + 1, grid.n - m : grid.n]] * grid.d))
        full = np.zeros(grid.shape, dtype=complex)
        full[idx] = block[tuple(slice(0, 2 * m + 1) for _ in range(grid.d))][
            tuple(np.r_[0 : m + 1, m + 1 : 2 * m + 1] for _ in range(grid.d))
        ]
        spec[c] = full
    axes = tuple(range(1, grid.d + 1))
    return VectorFieldGrid(grid, np.real(np.fft.ifftn(spec, axes=axes)))


class TestBoxGrid:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoxGrid(2, 16.0, 12)  # too few points
        with pytest.raises(ValueError):
            BoxGrid(2, 16.0, 48)  # not a power of two
        with pytest.raises(ValueError):
            BoxGrid(2, -1.0, 32)
        with pytest.raises(ValueError):
            BoxGrid(4, 16.0, 32)

    def test_axis_and_spacing(self, box2):
        assert box2.spacing == pytest.approx(0.25)
        assert box2.axis[0] == -16.0
        assert box2.axis[-1] == pytest.approx(16.0 - 0.25)


def project(v):
    """The projector on the full spectrum of a 2-d field, back in physical
    space: the real part of the inverse transform."""
    spec = np.fft.fftn(v.components, axes=(1, 2))
    k, inv_k2 = v.grid.wavenumbers, v.grid.inverse_k_squared
    return np.real(np.fft.ifftn(leray_apply(spec, k, inv_k2), axes=(1, 2)))


class TestLerayProject:
    def test_annihilates_gradients(self, box2):
        # v = grad(phi) for a Gaussian bump phi has zero projection (up to the
        # mean mode, which a gradient does not carry)
        phi = np.exp(-(box2.radius**2))
        spec_phi = np.fft.fftn(phi)
        grad = np.stack(
            [np.real(np.fft.ifftn(1j * k * spec_phi)) for k in box2.wavenumbers]
        )
        v = VectorFieldGrid(box2, grad)
        out = project(v)
        assert np.abs(out).max() < 1e-10 * np.abs(v.components).max()

    def test_fixes_divergence_free_fields(self, box2):
        u = random_field(box2, seed=3)
        v = VectorFieldGrid(box2, project(u))
        w = project(v)
        assert np.abs(w - v.components).max() < 1e-12 * np.abs(v.components).max()
        assert divergence_defect(v) < 1e-10

    def test_idempotent(self, box2):
        v = random_field(box2, seed=4)
        once = leray_apply(np.fft.fftn(v.components, axes=(1, 2)), box2.wavenumbers,
                           box2.inverse_k_squared)
        twice = leray_apply(once, box2.wavenumbers, box2.inverse_k_squared)
        once, twice = (np.real(np.fft.ifftn(s, axes=(1, 2))) for s in (once, twice))
        assert np.abs(twice - once).max() < 1e-12 * np.abs(once).max()

    def test_self_adjoint(self, box2):
        u = random_field(box2, seed=5)
        v = random_field(box2, seed=6)
        pu, pv = project(u), project(v)
        lhs = np.sum(pu * v.components)
        rhs = np.sum(u.components * pv)
        scale = np.sum(np.abs(u.components * v.components))
        assert abs(lhs - rhs) < 1e-10 * scale


class TestWeightedNorm:
    # the weighted norm on the annulus [0, L), the whole box but its corners:
    # a field that vanishes for |x| >= L has its full-box norm there, and the
    # other cases hold on any region
    def test_zero_field(self, box2):
        z = VectorFieldGrid(box2, np.zeros((2,) + box2.shape))
        for alpha, p in [(0, 1), (1, 2), (2, math.inf)]:
            assert restrict_annulus_norm(z, 0.0, box2.length, alpha, p) == 0.0

    def test_parseval(self, box2):
        # the transform is unnormalized: the lattice sum of |v|^2 h^d is the
        # spectral energy over N^d
        v = random_field(box2, seed=11)
        h = box2.spacing
        n2 = np.sum(v.components**2) * h**box2.d
        spec = np.fft.fftn(v.components, axes=(1, 2))
        spec_energy = np.sum(np.abs(spec) ** 2) / box2.n**box2.d * h**box2.d
        assert n2 == pytest.approx(spec_energy, rel=1e-10)

    def test_gaussian_against_radial_quadrature(self):
        # isotropic field with |v| = sqrt(2) e^{-r^2}; alpha=1, p=2 in d=2.
        # the (1+|x|) weight has a kink at 0, so the lattice rule is O(h^3);
        # h = 1/64 puts it past the 1e-6 oracle tolerance.
        grid = BoxGrid(2, 8.0, 1024)
        comp = np.stack([np.exp(-(grid.radius**2))] * 2)
        v = VectorFieldGrid(grid, comp)
        val = restrict_annulus_norm(v, 0.0, grid.length, 1.0, 2.0)
        integrand = lambda r: (1 + r) ** 2 * 2.0 * np.exp(-2 * r**2) * 2 * math.pi * r
        oracle = math.sqrt(quad(integrand, 0, 12, epsabs=1e-14)[0])
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_alpha(self, box2):
        v = random_field(box2, seed=12)
        vals = [restrict_annulus_norm(v, 0.0, box2.length, a, 2.0)
                for a in (0.0, 0.5, 1.0, 1.5)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_sup_norm(self, box2):
        v = random_field(box2, seed=13)
        inside = box2.radius < box2.length
        expected = ((1 + box2.radius) * v.magnitude())[inside].max()
        assert restrict_annulus_norm(v, 0.0, box2.length, 1.0, math.inf) == pytest.approx(
            expected, rel=0)


class TestAnnulusNorm:
    def test_matches_full_norm_for_interior_support(self, box2):
        comp = np.stack([np.exp(-(box2.radius**2))] * 2)
        v = VectorFieldGrid(box2, comp)
        full = math.sqrt(np.sum(((1 + box2.radius) * v.magnitude()) ** 2) * box2.spacing**2)
        ann = restrict_annulus_norm(v, 0.0, box2.length, 1.0, 2.0)
        # the annulus r < L misses only the corners, where the field is ~e^{-256}
        assert ann == pytest.approx(full, abs=1e-12)

    def test_zero_outside_support(self, box2):
        comp = np.zeros((2,) + box2.shape)
        comp[0] = np.where(box2.radius < 2.0, 1.0, 0.0)
        v = VectorFieldGrid(box2, comp)
        assert restrict_annulus_norm(v, 4.0, 8.0, 0.0, 2.0) == 0.0

    def test_log_mass_of_inverse_square_field(self):
        # |u| = |x|^{-2} over the annulus [8, 16) in d=2 integrates to 2 pi ln 2
        grid = BoxGrid(2, 16.0, 512)
        r = grid.radius
        comp = np.stack([np.where(r > 0.5, r, 1.0) ** (-2.0), np.zeros(grid.shape)])
        v = VectorFieldGrid(grid, comp)
        val = restrict_annulus_norm(v, 8.0, 16.0, 0.0, 1.0)
        assert val == pytest.approx(2 * math.pi * math.log(2), rel=0.02)

    def test_bounds_validated(self, box2):
        v = VectorFieldGrid(box2, np.zeros((2,) + box2.shape))
        with pytest.raises(ValueError):
            restrict_annulus_norm(v, 8.0, 4.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            restrict_annulus_norm(v, 0.0, 32.0, 0.0, 2.0)


class TestSnapshotIO:
    def test_round_trip_lossless(self, box2, tmp_path):
        v = random_field(box2, seed=14, smooth=False)
        v.time = 0.625
        path = tmp_path / "snap.nsvf"
        v.save(path)
        w = read_snapshot(path)
        assert w.grid == box2
        assert w.time == 0.625
        np.testing.assert_array_equal(w.components, v.components)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.nsvf"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_big_endian_snapshot(self, box2, tmp_path):
        # the format's '>' tag: header and samples big-endian, written by hand
        v = random_field(box2, seed=16, smooth=False)
        path = tmp_path / "big.nsvf"
        path.write_bytes(b"NSVF" + struct.pack("B", 1) + b">"
                         + struct.pack(">IIddI", 2, box2.n, box2.length, 0.375, 2)
                         + v.components.astype(">f8").tobytes())
        w = read_snapshot(path)
        assert w.grid == box2 and w.time == 0.375
        assert w.components.dtype == np.float64 and w.components.dtype.isnative
        np.testing.assert_array_equal(w.components, v.components)

    def test_short_data_rejected(self, box2, tmp_path):
        path = tmp_path / "short.nsvf"
        random_field(box2, seed=17).save(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="cut"):
            read_snapshot(path)

    def test_long_data_rejected(self, box2, tmp_path):
        # one byte past the samples the header implies: the header read alone
        # refuses it as well
        path = tmp_path / "long.nsvf"
        random_field(box2, seed=17).save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        for read in (read_snapshot, snapshot_header):
            with pytest.raises(ValueError, match="past"):
                read(path)

    @pytest.mark.parametrize("field", [{"n": 1 << 20}, {"ncomp": 64}])
    def test_lying_header_rejected_before_allocating(self, box2, tmp_path, field):
        # a header that claims more data than the file holds raises ValueError,
        # and no allocation reaches the size of the file, let alone the claim
        path = tmp_path / "lying.nsvf"
        random_field(box2, seed=18).save(path)
        rewrite_snapshot_header(path, **field)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                read_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_byte_identical_rewrites(self, box2, tmp_path):
        v = random_field(box2, seed=15)
        p1, p2 = tmp_path / "a.nsvf", tmp_path / "b.nsvf"
        v.save(p1)
        v.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
