import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shell_profile import radial_profile, scan_cutoff, shell_mass_at

from nimbus import spectral
from nimbus.errors import DomainError


def naive_dft2(x):
    """O(N^2) double-sum DFT oracle."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    ys, xs = np.arange(h), np.arange(w)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (u * ys[:, None] / h + v * xs[None, :] / w))
            out[u, v] = (x * phase).sum()
    return out


class TestFft2:
    """The unshifted ``np.fft.fft2`` layout that every spectral function reads."""

    def test_constant_field(self):
        x = np.full((8, 8), 3.0)
        coeffs = np.fft.fft2(x)
        assert coeffs[0, 0] == pytest.approx(3.0 * 64)
        rest = coeffs.copy()
        rest[0, 0] = 0
        assert np.abs(rest).max() < 1e-10

    def test_unit_impulse(self):
        x = np.zeros((8, 8))
        x[0, 0] = 1.0
        np.testing.assert_allclose(np.fft.fft2(x), np.ones((8, 8)), atol=1e-12)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 16))
        np.testing.assert_allclose(np.fft.fft2(x), naive_dft2(x), rtol=1e-6, atol=1e-6)

    def test_roundtrip_arbitrary_sizes(self):
        rng = np.random.default_rng(1)
        for h, w in [(8, 8), (12, 20), (9, 7), (16, 30)]:
            x = rng.standard_normal((h, w))
            back = np.fft.ifft2(np.fft.fft2(x)).real
            np.testing.assert_allclose(back, x, rtol=1e-5, atol=1e-8)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for n in (8, 12, 16, 64):
            x = rng.standard_normal((n, n))
            lhs = np.sum(x**2)
            rhs = np.sum(np.abs(np.fft.fft2(x)) ** 2) / (n * n)
            assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_nonfinite_rejected(self):
        # band_energy transforms its own input, so it checks it.
        x = np.zeros((4, 4))
        x[1, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            spectral.band_energy(x, [0.0, spectral.R_CORNER])


def cosine_field(h, w, fy, fx):
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.cos(2 * np.pi * (fy * yy / h + fx * xx / w))


def cutoff(x, gamma):
    return spectral.energy_cutoff(np.fft.fft2(x), gamma)


class TestRadialProfile:
    """The test-side shell profile, and energy_cutoff read against it."""

    def test_pure_cosine_single_shell(self):
        # Radius 0.5 on a 64x64 grid: frequency index 16 along one axis. All
        # energy sits in one ring, so every gamma cuts at that ring's edge.
        x = cosine_field(64, 64, 16, 0)
        edges, _, cumulative = radial_profile(x)
        r0 = 0.5
        np.testing.assert_allclose(cumulative[edges < r0 - 1e-9], 0.0, atol=1e-12)
        np.testing.assert_allclose(cumulative[edges >= r0], 1.0, atol=1e-12)
        ring = edges[np.searchsorted(edges, r0 + 1e-9)]
        # gamma = 1 is left out: round-off leaks ~1e-16 of |F| into other shells.
        for gamma in (0.01, 0.25, 0.5, 0.99):
            assert cutoff(x, gamma) == pytest.approx(ring)

    def test_shell_totals_partition_total(self):
        x = np.random.default_rng(3).standard_normal((32, 48))
        edges, _, cumulative = radial_profile(x)
        assert len(edges) == 24 and edges[-1] == pytest.approx(spectral.R_CORNER)
        # E is a normalized cumsum of shell totals; the last entry is 1.
        assert cumulative[-1] == pytest.approx(1.0, abs=1e-9)
        assert cutoff(x, 1.0) == pytest.approx(edges[-1])

    def test_monotone_cumulative(self):
        x = np.random.default_rng(4).standard_normal((16, 16))
        _, _, cumulative = radial_profile(x)
        assert np.all(np.diff(cumulative) >= -1e-15)

    def test_degenerate_zero_field(self):
        edges, _, cumulative = radial_profile(np.zeros((8, 8)))
        np.testing.assert_array_equal(cumulative, 1.0)
        for gamma in (0.25, 1.0):
            assert cutoff(np.zeros((8, 8)), gamma) == edges[0]


class TestCutoff:
    def test_gamma_one_gives_max_radius(self):
        x = np.random.default_rng(0).standard_normal((16, 16))
        assert cutoff(x, 1.0) == pytest.approx(spectral.R_CORNER)

    def test_dc_only_field(self):
        x = np.full((16, 16), 2.0)
        edges, _, _ = radial_profile(x)
        for gamma in (0.25, 0.5, 0.75, 1.0):
            assert cutoff(x, gamma) == pytest.approx(edges[0])

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        r = spectral.normalized_radius(64, 64)
        amp = (r + 2 / 64.0) ** -2.0
        x = np.fft.ifft2(amp * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))).real
        for gamma in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert cutoff(x, gamma) == pytest.approx(scan_cutoff(x, gamma))

    def test_monotone_in_gamma(self):
        x = np.random.default_rng(6).standard_normal((32, 32))
        cuts = [cutoff(x, g) for g in (0.1, 0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_planes_match_the_per_plane_loop(self):
        x = np.random.default_rng(7).standard_normal((2, 3, 16, 32))
        x[1, 2] = 0.0  # one all-zero (degenerate) plane
        radii = cutoff(x, 0.6)
        assert radii.shape == (2, 3)
        assert isinstance(cutoff(x[0, 0], 0.6), float)
        for i in range(2):
            for v in range(3):
                assert radii[i, v] == cutoff(x[i, v], 0.6)
                assert radii[i, v] == pytest.approx(scan_cutoff(x[i, v], 0.6))
        assert radii[1, 2] == radial_profile(x[1, 2])[0][0]

    def test_gamma_domain(self):
        coeffs = np.fft.fft2(np.ones((8, 8)))
        with pytest.raises(DomainError):
            spectral.energy_cutoff(coeffs, 0.0)
        with pytest.raises(DomainError):
            spectral.energy_cutoff(coeffs, 1.5)


class TestLowpass:
    def test_retain_all(self):
        x = np.random.default_rng(0).standard_normal((16, 16))
        out = spectral.lowpass(x, spectral.R_CORNER + 1e-6)
        np.testing.assert_allclose(out, x, rtol=1e-5, atol=1e-10)

    def test_tiny_cutoff_gives_mean(self):
        x = np.random.default_rng(1).standard_normal((16, 16))
        out = spectral.lowpass(x, 1e-9)
        np.testing.assert_allclose(out, x.mean(), atol=1e-12)

    def test_energy_bookkeeping(self):
        rng = np.random.default_rng(7)
        r = spectral.normalized_radius(64, 64)
        amp = (r + 2 / 64.0) ** -1.5
        x = np.fft.ifft2(amp * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))).real
        cut = cutoff(x, 0.75)
        kept = np.abs(np.fft.fft2(spectral.lowpass(x, cut))).sum()
        frac = kept / np.abs(np.fft.fft2(x)).sum()
        assert 0.75 - 1e-9 <= frac <= 0.75 + shell_mass_at(x, cut) + 1e-9

    def test_idempotent_projection(self):
        x = np.random.default_rng(8).standard_normal((24, 24))
        once = spectral.lowpass(x, 0.6)
        twice = spectral.lowpass(once, 0.6)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        lhs = spectral.lowpass(2.0 * a + 3.0 * b, 0.5)
        rhs = 2.0 * spectral.lowpass(a, 0.5) + 3.0 * spectral.lowpass(b, 0.5)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_plane_radii_match_scalar_calls(self, dtype):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 16, 24)).astype(dtype)
        radii = rng.uniform(0.05, 1.4, size=(2, 3))
        out = spectral.lowpass(x, radii)
        for i in range(2):
            for c in range(3):
                np.testing.assert_array_equal(out[i, c], spectral.lowpass(x[i, c], radii[i, c]))

    def test_float32_in_float32_out(self):
        x = np.random.default_rng(11).standard_normal((4, 16, 16))
        out = spectral.lowpass(x.astype(np.float32), 0.5)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, spectral.lowpass(x, 0.5), atol=1e-5)
        assert spectral.lowpass(x, 0.5).dtype == np.float64

    def test_negative_radius_rejected(self):
        x = np.zeros((2, 8, 8))
        with pytest.raises(DomainError):
            spectral.lowpass(x, -0.1)
        with pytest.raises(DomainError):
            spectral.lowpass(x, np.array([0.5, -1e-9]))

    def test_radius_shape_must_match_planes(self):
        with pytest.raises(DomainError):
            spectral.lowpass(np.zeros((2, 3, 8, 8)), np.full(3, 0.5))

    def test_coeffs_path_matches_lowpass(self):
        # One transform, many radii: the spectrum's low-pass is lowpass's.
        x = np.random.default_rng(12).standard_normal((3, 2, 16, 24))
        coeffs = np.fft.fft2(x)
        for r in (0.3, 0.9, spectral.R_CORNER + 1e-9):
            np.testing.assert_array_equal(spectral.lowpass_coeffs(coeffs, r), spectral.lowpass(x, r))


class TestBandEnergy:
    def test_single_band(self):
        x = np.random.default_rng(0).standard_normal((16, 16))
        out = spectral.band_energy(x, [0.0, spectral.R_CORNER])
        np.testing.assert_allclose(out, [1.0])

    def test_pure_cosine_two_bands(self):
        x = cosine_field(64, 64, 16, 0)  # radius 0.5
        out = spectral.band_energy(x, [0.0, 0.4, spectral.R_CORNER])
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_matches_shell_sum_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((32, 32))
        edges = [0.0, 0.3, 0.6, 0.9, 1.2, spectral.R_CORNER]
        out = spectral.band_energy(x, edges)
        r = spectral.normalized_radius(32, 32)
        mag = np.abs(np.fft.fft2(x))
        ref = []
        for i in range(len(edges) - 1):
            if i == len(edges) - 2:
                sel = (r >= edges[i]) & (r <= edges[i + 1])
            else:
                sel = (r >= edges[i]) & (r < edges[i + 1])
            ref.append(mag[sel].sum() / mag.sum())
        np.testing.assert_allclose(out, ref, atol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stack_matches_planes(self):
        x = np.random.default_rng(11).standard_normal((2, 3, 12, 16))
        x[1, 2] = 0.0
        edges = [0.0, 0.3, 0.9, spectral.R_CORNER]
        out = spectral.band_energy(x, edges)
        assert out.shape == (2, 3, 3)
        for n in range(2):
            for c in range(3):
                np.testing.assert_array_equal(out[n, c], spectral.band_energy(x[n, c], edges))
        np.testing.assert_array_equal(out[1, 2], [1.0, 0.0, 0.0])

    def test_small_plane_rejected(self):
        with pytest.raises(DomainError, match="2x2"):
            spectral.band_energy(np.zeros((3, 1, 8)), [0.0, spectral.R_CORNER])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_fractions_sum_to_one(self, seed):
        x = np.random.default_rng(seed).standard_normal((12, 18))
        out = spectral.band_energy(x, [0.0, 0.5, 1.0, spectral.R_CORNER])
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
