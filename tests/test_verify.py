import numpy as np
import pytest

from nimbus import spectral, verify
from nimbus.errors import DomainError


def crps_cdf_integral(members, y):
    """Integrate (F(t) - H(t - y))^2 dt exactly over the piecewise-constant
    segments of the empirical CDF; the independent oracle for crps_empirical.
    """
    members = np.sort(np.asarray(members, dtype=np.float64))
    m = members.size
    points = np.unique(np.concatenate([members, [y]]))
    lo = points[0] - 1.0
    hi = points[-1] + 1.0
    grid_pts = np.concatenate([[lo], points, [hi]])
    total = 0.0
    for a, b in zip(grid_pts[:-1], grid_pts[1:]):
        mid = 0.5 * (a + b)
        f = np.searchsorted(members, mid, side="right") / m
        h = 1.0 if mid > y else 0.0
        total += (f - h) ** 2 * (b - a)
    return total


class TestCrps:
    def test_all_members_equal_truth(self):
        members = np.full(5, 2.5)
        assert verify.crps_fair(members, 2.5) == pytest.approx(0.0)
        assert verify.crps_empirical(members, 2.5) == pytest.approx(0.0)

    def test_two_member_hand_values(self):
        members = np.array([0.0, 2.0])
        assert verify.crps_fair(members, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert verify.crps_empirical(members, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_empirical_matches_cdf_integration(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            members = rng.standard_normal(5) * (0.5 + rng.random())
            y = rng.standard_normal() * 2.0
            got = verify.crps_empirical(members, y)
            ref = crps_cdf_integral(members, y)
            assert got == pytest.approx(ref, abs=1e-6)

    def test_single_member_is_absolute_error(self):
        assert verify.crps_empirical(np.array([3.0]), 1.0) == pytest.approx(2.0)

    def test_fair_requires_two_members(self):
        with pytest.raises(DomainError):
            verify.crps_fair(np.array([1.0]), 0.0)

    def test_nonnegative_and_zero_iff_perfect(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            members = rng.standard_normal(rng.integers(2, 8))
            y = rng.standard_normal()
            f, e = verify.crps_fair(members, y), verify.crps_empirical(members, y)
            assert f >= -1e-12 and e >= -1e-12
            if not np.allclose(members, y):
                assert e > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        members = rng.standard_normal(6)
        y = 0.3
        perm = rng.permutation(6)
        assert verify.crps_fair(members, y) == pytest.approx(
            verify.crps_fair(members[perm], y)
        )
        assert verify.crps_empirical(members, y) == pytest.approx(
            verify.crps_empirical(members[perm], y)
        )

    def test_elementwise_over_grid(self):
        rng = np.random.default_rng(3)
        members = rng.standard_normal((4, 2, 3))
        y = rng.standard_normal((2, 3))
        out = verify.crps_fair(members, y)
        assert out.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert out[i, j] == pytest.approx(verify.crps_fair(members[:, i, j], y[i, j]))


class TestRmse:
    def test_perfect_forecast(self):
        truth = np.random.default_rng(0).standard_normal((4, 5))
        forecast = np.repeat(truth[None], 3, axis=0)
        assert verify.rmse_ensemble_mean(forecast, truth) == 0.0

    def test_symmetric_members_cancel(self):
        truth = np.random.default_rng(1).standard_normal((4, 5))
        forecast = np.stack([truth + 1.0, truth - 1.0])
        assert verify.rmse_ensemble_mean(forecast, truth) == pytest.approx(0.0, abs=1e-12)

    def test_hand_loop_2x3(self):
        rng = np.random.default_rng(2)
        forecast = rng.standard_normal((3, 2, 3))
        truth = rng.standard_normal((2, 3))
        w = np.array([[2.0], [1.0]])
        mean = forecast.mean(axis=0)
        num = sum(
            w[i, 0] * (mean[i, j] - truth[i, j]) ** 2 for i in range(2) for j in range(3)
        )
        den = 3 * (2.0 + 1.0)
        ref = np.sqrt(num / den)
        assert verify.rmse_ensemble_mean(forecast, truth, w) == pytest.approx(ref)


def calibrated_cases(n, m, member_std=1.0, seed=0):
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(n)
    members = center[None, :] + member_std * rng.standard_normal((m, n))
    truth = center + rng.standard_normal(n)
    return members, truth


class TestSsr:
    def test_calibrated_ensemble_near_one(self):
        members, truth = calibrated_cases(10_000, 16, seed=4)
        ssr = verify.spread_skill_ratio(members, truth)
        assert 0.95 <= ssr <= 1.05

    def test_zero_spread_nonzero_error(self):
        truth = np.ones(100)
        members = np.zeros((4, 100))
        assert verify.spread_skill_ratio(members, truth) == 0.0

    def test_identical_members_equal_truth(self):
        truth = np.random.default_rng(10).standard_normal((4, 5))
        members = np.repeat(truth[None], 3, axis=0)
        assert verify.spread_skill_ratio(members, truth) == 0.0

    def test_identical_members_offset_from_truth(self):
        truth = np.random.default_rng(11).standard_normal((4, 5))
        members = np.repeat(truth[None] + 0.3, 3, axis=0)
        assert verify.spread_skill_ratio(members, truth) == 0.0

    def test_half_spread_underdispersed(self):
        members, truth = calibrated_cases(10_000, 16, member_std=0.5, seed=5)
        assert verify.spread_skill_ratio(members, truth) < 0.6

    def test_correction_toggle(self):
        # The small-ensemble correction scales the plain spread / RMSE by sqrt((M+1)/M).
        members, truth = calibrated_cases(2_000, 4, seed=6)
        m = members.shape[0]
        plain = np.sqrt(members.var(axis=0, ddof=1).mean()) / np.sqrt(
            np.square(members.mean(axis=0) - truth).mean()
        )
        ssr = verify.spread_skill_ratio(members, truth)
        np.testing.assert_allclose(ssr, np.sqrt((m + 1) / m) * plain, rtol=1e-12)
        assert ssr > plain


class TestRankHistogram:
    def test_truth_below_all_members(self):
        forecasts = np.ones((50, 4))
        truths = np.zeros(50)
        counts, chi2, p = verify.rank_histogram(forecasts, truths)
        assert counts[0] == 50 and counts[1:].sum() == 0
        assert p < 1e-6

    def test_exchangeable_ensemble_flat(self):
        rng = np.random.default_rng(7)
        n, m = 10_000, 7
        center = rng.standard_normal(n)
        forecasts = center[:, None] + rng.standard_normal((n, m))
        truths = center + rng.standard_normal(n)
        counts, chi2, p = verify.rank_histogram(forecasts, truths, np.random.default_rng(0))
        assert counts.sum() == n
        assert p > 0.01

    def test_underdispersed_u_shape(self):
        rng = np.random.default_rng(8)
        n, m = 10_000, 7
        center = rng.standard_normal(n)
        forecasts = center[:, None] + 0.5 * rng.standard_normal((n, m))
        truths = center + rng.standard_normal(n)
        counts, _, p = verify.rank_histogram(forecasts, truths, np.random.default_rng(0))
        end_share = (counts[0] + counts[-1]) / n
        assert end_share > 2 * (2 / (m + 1))
        assert p < 0.01

    def test_counts_sum_under_ties(self):
        rng = np.random.default_rng(9)
        forecasts = rng.integers(0, 3, size=(500, 6)).astype(float)
        truths = rng.integers(0, 3, size=500).astype(float)
        counts, _, _ = verify.rank_histogram(forecasts, truths, np.random.default_rng(1))
        assert counts.sum() == 500

    def test_tie_randomization_seeded(self):
        forecasts = np.ones((100, 4))
        truths = np.ones(100)
        c1, _, _ = verify.rank_histogram(forecasts, truths, np.random.default_rng(3))
        c2, _, _ = verify.rank_histogram(forecasts, truths, np.random.default_rng(3))
        np.testing.assert_array_equal(c1, c2)
        assert c1.sum() == 100 and c1[0] < 100  # ties spread across ranks


class TestMetricReport:
    def make_report(self):
        rng = np.random.default_rng(0)
        fields = rng.standard_normal((4, 2, 3, 6, 8)).astype(np.float32)
        truth = rng.standard_normal((2, 3, 6, 8)).astype(np.float32)
        return verify.evaluate_ensemble(
            fields, truth, variables=["a", "b", "c"], lead_hours=[6, 12],
            lat_weights=np.ones(6),
        )

    def test_report_shapes_and_finite(self):
        report = self.make_report()
        for table in report.scores.values():
            assert table.shape == (3, 2)
            assert np.all(np.isfinite(table))
        assert report.rank_counts.sum() == 2 * 3 * 6 * 8

    def test_csv_json(self, tmp_path):
        report = self.make_report()
        report.to_csv(tmp_path / "m.csv")
        report.to_json(tmp_path / "m.json")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "variable,lead_hours,metric,value"
        assert len(lines) == 1 + 4 * 3 * 2
        import json

        doc = json.loads((tmp_path / "m.json").read_text())
        assert set(doc["scores"]) == {"rmse_mean", "crps_fair", "crps_empirical", "ssr"}

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(1)
        fields = rng.standard_normal((5, 1, 1, 4, 4)).astype(np.float32)
        truth = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        a = verify.evaluate_ensemble(fields, truth, ["v"], [6])
        b = verify.evaluate_ensemble(fields[::-1].copy(), truth, ["v"], [6])
        for key in a.scores:
            np.testing.assert_allclose(a.scores[key], b.scores[key], atol=1e-12)

    def test_perfect_float64_ensemble_scores_zero(self):
        truth = np.random.default_rng(2).standard_normal((2, 3, 6, 8))
        fields = np.repeat(truth[None], 3, axis=0)
        report = verify.evaluate_ensemble(
            fields, truth, variables=["a", "b", "c"], lead_hours=[6, 12],
            lat_weights=np.cos(np.linspace(-1.2, 1.2, 6)),
        )
        for key in ("rmse_mean", "crps_fair", "crps_empirical", "ssr"):
            np.testing.assert_array_equal(report.scores[key], np.zeros((3, 2)))


BANDS = (0.0, 0.2, 0.5, 0.8, spectral.R_CORNER)


def identity(z):
    return z


class TestDiffusability:
    def test_identical_latents_identical_tables(self):
        rng = np.random.default_rng(0)
        lat = rng.standard_normal((6, 3, 8, 8))
        report = verify.diffusability_report(lat, lat.copy(), BANDS, identity, lat)
        np.testing.assert_array_equal(
            report["encoder_band_energy"], report["generated_band_energy"]
        )
        assert report["rmse_encoder"] == report["rmse_generated"]

    def test_no_masking_equals_baseline(self):
        rng = np.random.default_rng(1)
        lat = rng.standard_normal((4, 2, 8, 8)).astype(np.float32)
        gen = lat + 0.1 * rng.standard_normal(lat.shape).astype(np.float32)
        reference = rng.standard_normal((4, 3, 16, 16))

        def decoder(z):
            return np.repeat(
                np.repeat(z[:, :3] if z.shape[1] >= 3 else np.tile(z, (1, 2, 1, 1))[:, :3], 2, -1),
                2,
                -2,
            )

        full = spectral.R_CORNER + 1e-9
        report = verify.diffusability_report(
            lat, gen, BANDS, decoder, reference, mask_radii=(0.5, full)
        )
        base = np.sqrt(np.mean((decoder(lat) - reference) ** 2))
        assert report["rmse_encoder"][-1] == pytest.approx(base, rel=1e-6)

    def test_smoothed_latents_have_less_top_band_energy(self):
        rng = np.random.default_rng(2)
        enc = rng.standard_normal((8, 2, 16, 16))
        gen = np.stack(
            [
                [spectral.lowpass(enc[n, c], 0.7) for c in range(2)]
                for n in range(8)
            ]
        )
        report = verify.diffusability_report(enc, gen, BANDS, identity, enc)
        assert report["generated_band_energy"][-1] <= report["encoder_band_energy"][-1]
