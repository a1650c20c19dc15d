import numpy as np
import pytest
from shell_profile import scan_cutoff, shell_mass_at

from nimbus import autodiff as ad
from nimbus import grid, models, regularize, spectral
from nimbus.errors import DomainError
from nimbus.regularize import Strategy


def sloped_fields(slopes, h=64, w=64, seed=0):
    b = grid.gen_synthetic(seed=seed, h=h, w=w, v=len(slopes), t=1, spectral_slopes=slopes)
    return b.data[0].astype(np.float64)


def targets(x, strategy, gamma, se_factor=1):
    """models.build_targets on one (V, H, W) sample."""
    return models.build_targets(x[None], strategy, gamma, se_factor)[0]


def masked_latent(z, strategy, gamma, se_factor=1):
    """models.mask_latent on one (C, h, w) latent."""
    return models.mask_latent(ad.constant(z[None]), strategy, gamma, se_factor).data[0]


def vamfm_cutoff(plane, gamma):
    return spectral.energy_cutoff(np.fft.fft2(plane), gamma)


def energy(plane):
    return np.abs(np.fft.fft2(plane)).sum()


class TestSampleGamma:
    """The gamma that draw gives VAMFM and FFM."""

    def test_frequencies(self):
        for strategy in (Strategy.VAMFM, Strategy.FFM):
            rng = np.random.default_rng(0)
            draws = [regularize.draw(strategy, rng) for _ in range(40_000)]
            assert {factor for _, factor in draws} == {1}
            gammas = [gamma for gamma, _ in draws]
            for g in regularize.GAMMA_CHOICES:
                freq = gammas.count(g) / len(gammas)
                assert 0.24 <= freq <= 0.26

    def test_deterministic_under_seed(self):
        a = [regularize.draw(Strategy.VAMFM, np.random.default_rng(3)) for _ in range(100)]
        b = [regularize.draw(Strategy.VAMFM, np.random.default_rng(3)) for _ in range(100)]
        assert a == b

    def test_support(self):
        rng = np.random.default_rng(1)
        draws = {regularize.draw(Strategy.FFM, rng)[0] for _ in range(10_000)}
        assert draws <= set(regularize.GAMMA_CHOICES)


class TestDraw:
    def test_se_factor_frequencies(self):
        rng = np.random.default_rng(2)
        draws = [regularize.draw(Strategy.SE, rng) for _ in range(30_000)]
        assert {gamma for gamma, _ in draws} == {1.0}
        factors = [factor for _, factor in draws]
        assert set(factors) == set(regularize.SE_FACTORS)
        for f in regularize.SE_FACTORS:
            assert 0.32 <= factors.count(f) / len(factors) <= 0.35
        assert all(type(f) is int for f in factors)

    def test_none_draws_nothing(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert regularize.draw(Strategy.NONE, rng) == (1.0, 1)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_deterministic_under_seed(self, strategy):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        a = [regularize.draw(strategy, rng_a) for _ in range(50)]
        b = [regularize.draw(strategy, rng_b) for _ in range(50)]
        assert a == b

    @pytest.mark.parametrize("strategy", [Strategy.VAMFM, Strategy.FFM, Strategy.SE])
    def test_one_rng_call_per_draw(self, strategy):
        # One choice of an index per iteration, the same values and stream
        # position as drawing that index directly.
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(20):
            gamma, factor = regularize.draw(strategy, rng)
            if strategy == Strategy.SE:
                assert factor == ref.choice(regularize.SE_FACTORS)
            else:
                assert gamma == regularize.GAMMA_CHOICES[ref.integers(len(regularize.GAMMA_CHOICES))]
        assert rng.bit_generator.state == ref.bit_generator.state


class TestVamfm:
    def test_gamma_one_identity(self):
        x = sloped_fields([1.0, 3.0])
        z = np.random.default_rng(0).standard_normal((4, 16, 16))
        np.testing.assert_array_equal(targets(x, Strategy.VAMFM, 1.0), x)
        np.testing.assert_array_equal(masked_latent(z, Strategy.VAMFM, 1.0), z)

    def test_energy_alignment_across_slopes(self):
        x = sloped_fields([1.0, 3.5], seed=5)
        tx = targets(x, Strategy.VAMFM, 0.5)
        cutoffs = [vamfm_cutoff(x[v], 0.5) for v in range(2)]
        fracs, masses = [], []
        for v in range(2):
            fracs.append(energy(tx[v]) / energy(x[v]))
            masses.append(shell_mass_at(x[v], cutoffs[v]))
            assert cutoffs[v] == pytest.approx(scan_cutoff(x[v], 0.5))
            np.testing.assert_array_equal(tx[v], spectral.lowpass(x[v], cutoffs[v]))
        for frac, mass in zip(fracs, masses):
            assert 0.5 - 1e-6 <= frac <= 0.5 + mass + 1e-6
        assert abs(cutoffs[0] - cutoffs[1]) > 0.05

    def test_zero_latent_stays_zero(self):
        z = np.zeros((3, 16, 16))
        np.testing.assert_array_equal(masked_latent(z, Strategy.VAMFM, 0.5), 0.0)

    def test_tiny_latent_rejected(self):
        with pytest.raises(DomainError):
            masked_latent(np.zeros((2, 1, 1)), Strategy.VAMFM, 0.5)


class TestFfm:
    def test_gamma_one_identity(self):
        x = sloped_fields([1.0])
        z = np.random.default_rng(0).standard_normal((2, 8, 8))
        np.testing.assert_array_equal(targets(x, Strategy.FFM, 1.0), x)
        np.testing.assert_array_equal(masked_latent(z, Strategy.FFM, 1.0), z)

    def test_input_cutoff_pairing(self):
        x = sloped_fields([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(targets(x, Strategy.FFM, 0.25), spectral.lowpass(x, 0.05))
        assert regularize.FFM_INPUT_CUTOFFS == {0.25: 0.05, 0.5: 0.10, 0.75: 0.20, 1.0: 1.0}

    def test_heterogeneous_retention(self):
        x = sloped_fields([1.0, 3.5], seed=7)
        tx = targets(x, Strategy.FFM, 0.25)
        fracs = []
        for v in range(2):
            fracs.append(energy(tx[v]) / energy(x[v]))
        assert abs(fracs[0] - fracs[1]) > 0.1

    def test_alignment_beats_ffm_in_range(self):
        slopes = np.linspace(1.0, 3.5, 8)
        x = sloped_fields(list(slopes), seed=9)
        vam = targets(x, Strategy.VAMFM, 0.5)
        ffm = targets(x, Strategy.FFM, 0.5)

        def fracs(tx):
            return np.array([energy(tx[v]) / energy(x[v]) for v in range(len(slopes))])

        f_vam, f_ffm = fracs(vam), fracs(ffm)
        assert f_vam.max() - f_vam.min() < f_ffm.max() - f_ffm.min()

    def test_masking_never_adds_energy(self):
        x = sloped_fields([1.5, 2.5], seed=11)
        z = np.random.default_rng(0).standard_normal((2, 16, 16))
        for gamma in (0.25, 0.5, 0.75):
            for strategy in (Strategy.VAMFM, Strategy.FFM):
                tx, tz = targets(x, strategy, gamma), masked_latent(z, strategy, gamma)
                for v in range(2):
                    assert energy(tx[v]) <= energy(x[v]) + 1e-9
                for c in range(2):
                    assert energy(tz[c]) <= energy(z[c]) + 1e-9


class TestSe:
    def test_factor_one_identity(self):
        x = sloped_fields([2.0])
        z = np.random.default_rng(0).standard_normal((2, 8, 8))
        np.testing.assert_array_equal(targets(x, Strategy.SE, 1.0, 1), x)
        np.testing.assert_array_equal(masked_latent(z, Strategy.SE, 1.0, 1), z)

    def test_constant_field_stays_constant(self):
        x = np.full((1, 16, 16), 2.5)
        z = np.full((1, 8, 8), -1.0)
        np.testing.assert_allclose(targets(x, Strategy.SE, 1.0, 2), 2.5)
        np.testing.assert_allclose(masked_latent(z, Strategy.SE, 1.0, 2), -1.0)

    def test_checkerboard_cancels(self):
        x = np.indices((4, 4)).sum(axis=0) % 2 * 2.0 - 1.0
        np.testing.assert_allclose(targets(x[None], Strategy.SE, 1.0, 2), 0.0)

    def test_bad_factor(self):
        x = sloped_fields([2.0])
        with pytest.raises(DomainError):
            targets(x, Strategy.SE, 1.0, 3)
        with pytest.raises(DomainError):
            masked_latent(np.zeros((1, 8, 8)), Strategy.SE, 1.0, 3)

    def test_non_dividing_factor(self):
        with pytest.raises(DomainError):
            targets(np.zeros((1, 6, 6)), Strategy.SE, 1.0, 4)

    def test_targets_are_box_means(self):
        x = np.random.default_rng(3).standard_normal((2, 8, 12)).astype(np.float32)
        tx = targets(x, Strategy.SE, 1.0, 4)
        assert tx.dtype == np.float32 and tx.shape == (2, 2, 3)
        ref = x.astype(np.float64).reshape(2, 2, 4, 3, 4).mean(axis=(2, 4))
        np.testing.assert_allclose(tx, ref, rtol=1e-6)


def test_targets_deterministic():
    x = sloped_fields([1.0, 2.0], seed=13)
    z = np.random.default_rng(1).standard_normal((2, 16, 16))
    np.testing.assert_array_equal(targets(x, Strategy.VAMFM, 0.5), targets(x, Strategy.VAMFM, 0.5))
    np.testing.assert_array_equal(
        masked_latent(z, Strategy.VAMFM, 0.5), masked_latent(z, Strategy.VAMFM, 0.5)
    )


def test_strategy_enum_round_trip():
    assert Strategy("vamfm") is Strategy.VAMFM
    assert {s.value for s in Strategy} == {"vamfm", "ffm", "se", "none"}
