import os

import numpy as np
import pytest
from scipy import stats

from nimbus import spectral, verify
from nimbus.errors import DomainError

METRICS = ("rmse_mean", "crps_fair", "crps_empirical", "ssr")


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


def crps_point(members, y):
    """(fair, empirical) CRPS of one grid point's members, through crps_field."""
    f = np.asarray(members, dtype=np.float64).reshape(-1, 1, 1, 1)
    fair, empirical = verify.crps_field(f, f - y, np.ones((1, 1)))
    return float(fair[0]), float(empirical[0])


def score_one(members, truth, lat_w=None):
    """evaluate_ensemble's scores of one variable at one lead.

    members: (M, ...) and truth (...), with at most two trailing axes, read
    as (H, W) planes (a 1-D truth is one latitude row).
    """
    truth = np.atleast_2d(truth)
    members = np.reshape(members, (-1, 1, 1) + truth.shape)
    lat_w = np.ones(truth.shape[0]) if lat_w is None else lat_w
    report = verify.evaluate_ensemble(members, truth[None, None], ["v"], [6], lat_w, rank_seed=0)
    return {k: float(table[0, 0]) for k, table in report.scores.items()}


def textbook_scores(members, truth, lat_w):
    """The (V, T) score tables of (M, T, V, H, W) members, one (variable, lead) at a time."""
    m, tt, vv, hh, ww = members.shape
    x = members.astype(np.float64)
    y = truth.astype(np.float64)
    w = np.broadcast_to(np.asarray(lat_w, dtype=np.float64)[:, None], (hh, ww))

    def wmean(a):
        return (w * a).sum() / w.sum()

    out = {k: np.empty((vv, tt)) for k in METRICS}
    for v in range(vv):
        for t in range(tt):
            f, o = x[:, t, v], y[t, v]
            rmse = np.sqrt(wmean((f.mean(axis=0) - o) ** 2))
            skill = np.abs(f - o).mean(axis=0)
            pairs = np.abs(f[:, None] - f[None, :]).sum(axis=(0, 1))
            out["rmse_mean"][v, t] = rmse
            out["crps_empirical"][v, t] = wmean(skill - pairs / (2 * m * m))
            if m == 1:
                out["crps_fair"][v, t] = out["crps_empirical"][v, t]
                out["ssr"][v, t] = np.nan
            else:
                out["crps_fair"][v, t] = wmean(skill - pairs / (2 * m * (m - 1)))
                out["ssr"][v, t] = np.sqrt((m + 1) / m * wmean(f.var(axis=0, ddof=1))) / rmse
    return out


def chi2_p(counts):
    """The rank histogram's chi-square against flat and its p-value (M dof)."""
    expected = counts.sum() / counts.size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return chi2, float(stats.chi2.sf(chi2, counts.size - 1))


class TestOracle:
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ties", [False, True])
    def test_evaluate_matches_textbook_loop(self, m, dtype, ties):
        rng = np.random.default_rng(m)
        members = rng.standard_normal((m, 3, 2, 6, 8))
        truth = rng.standard_normal((3, 2, 6, 8))
        if ties:
            # Half-unit steps: members tie each other and the truth.
            members, truth = np.round(2 * members) / 2, np.round(2 * truth) / 2
        members, truth = members.astype(dtype), truth.astype(dtype)
        lat_w = np.cos(np.linspace(-1.3, 1.3, 6)) + 0.1
        report = verify.evaluate_ensemble(
            members, truth, ["a", "b"], [6, 12, 18], lat_w, rank_seed=4
        )
        ref = textbook_scores(members, truth, lat_w)
        for key in METRICS:
            assert report.scores[key].shape == (2, 3)
            np.testing.assert_allclose(report.scores[key], ref[key], rtol=1e-10, atol=1e-12)

        # The (N, M) layout of each point's members, tie offsets drawn in the
        # same point order, gives the same counts.
        flat = members.reshape(m, -1).T
        y = truth.reshape(-1)
        below = (flat < y[:, None]).sum(axis=1)
        tied = (flat == y[:, None]).sum(axis=1)
        ranks = below + np.random.default_rng(4).integers(0, tied + 1)
        np.testing.assert_array_equal(report.rank_counts, np.bincount(ranks, minlength=m + 1))
        if not ties:
            exact = [np.searchsorted(np.sort(flat[i]), y[i]) for i in range(y.size)]
            np.testing.assert_array_equal(report.rank_counts, np.bincount(exact, minlength=m + 1))


class TestCrps:
    def test_all_members_equal_truth(self):
        assert crps_point(np.full(5, 2.5), 2.5) == (0.0, 0.0)

    def test_two_member_hand_values(self):
        fair, empirical = crps_point([0.0, 2.0], 1.0)
        assert fair == pytest.approx(0.0, abs=1e-12)
        assert empirical == pytest.approx(0.5, abs=1e-12)

    def test_empirical_matches_cdf_integration(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            members = rng.standard_normal(5) * (0.5 + rng.random())
            y = rng.standard_normal() * 2.0
            assert crps_point(members, y)[1] == pytest.approx(crps_cdf_integral(members, y), abs=1e-6)

    def test_single_member_is_absolute_error(self):
        assert crps_point([3.0], 1.0) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_fair_requires_two_members(self):
        # With one member the fair estimator is undefined: crps_fair holds the
        # empirical CRPS and SSR is NaN.
        scores = score_one(np.array([[0.5, -1.0]]), np.array([0.0, 1.0]))
        assert scores["crps_fair"] == scores["crps_empirical"] == pytest.approx(1.25)
        assert np.isnan(scores["ssr"])

    def test_nonnegative_and_zero_iff_perfect(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            members = rng.standard_normal(rng.integers(2, 8))
            y = rng.standard_normal()
            f, e = crps_point(members, y)
            assert f >= -1e-12 and e >= -1e-12
            if not np.allclose(members, y):
                assert e > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        members = rng.standard_normal(6)
        perm = rng.permutation(6)
        np.testing.assert_allclose(crps_point(members, 0.3), crps_point(members[perm], 0.3))

    def test_elementwise_over_grid(self):
        # The field score is the weighted mean of the per-point scores.
        rng = np.random.default_rng(3)
        members = rng.standard_normal((4, 2, 3))
        y = rng.standard_normal((2, 3))
        lat_w = np.array([2.0, 1.0])
        scores = score_one(members, y, lat_w)
        points = np.array(
            [[crps_point(members[:, i, j], y[i, j]) for j in range(3)] for i in range(2)]
        )
        w = np.repeat(lat_w[:, None], 3, axis=1)
        for k, key in enumerate(("crps_fair", "crps_empirical")):
            assert scores[key] == pytest.approx((w * points[..., k]).sum() / w.sum())


class TestRmse:
    def test_perfect_forecast(self):
        truth = np.random.default_rng(0).standard_normal((4, 5))
        forecast = np.repeat(truth[None], 3, axis=0)
        assert score_one(forecast, truth)["rmse_mean"] == 0.0

    def test_symmetric_members_cancel(self):
        truth = np.random.default_rng(1).standard_normal((4, 5))
        forecast = np.stack([truth + 1.0, truth - 1.0])
        assert score_one(forecast, truth)["rmse_mean"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_loop_2x3(self):
        rng = np.random.default_rng(2)
        forecast = rng.standard_normal((3, 2, 3))
        truth = rng.standard_normal((2, 3))
        w = np.array([2.0, 1.0])
        mean = forecast.mean(axis=0)
        num = sum(w[i] * (mean[i, j] - truth[i, j]) ** 2 for i in range(2) for j in range(3))
        den = 3 * (2.0 + 1.0)
        assert score_one(forecast, truth, w)["rmse_mean"] == pytest.approx(np.sqrt(num / den))

    def test_misaligned_truth_rejected(self):
        with pytest.raises(DomainError):
            verify.evaluate_ensemble(
                np.zeros((2, 1, 1, 4, 4)), np.zeros((1, 1, 4, 5)), ["v"], [6], np.ones(4), 0
            )


def calibrated_cases(n, m, member_std=1.0, seed=0):
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(n)
    members = center[None, :] + member_std * rng.standard_normal((m, n))
    truth = center + rng.standard_normal(n)
    return members, truth


def ssr(members, truth):
    return score_one(members, truth)["ssr"]


class TestSsr:
    def test_calibrated_ensemble_near_one(self):
        assert 0.95 <= ssr(*calibrated_cases(10_000, 16, seed=4)) <= 1.05

    def test_zero_spread_nonzero_error(self):
        assert ssr(np.zeros((4, 100)), np.ones(100)) == 0.0

    def test_identical_members_equal_truth(self):
        truth = np.random.default_rng(10).standard_normal((4, 5))
        assert ssr(np.repeat(truth[None], 3, axis=0), truth) == 0.0

    def test_identical_members_offset_from_truth(self):
        truth = np.random.default_rng(11).standard_normal((4, 5))
        assert ssr(np.repeat(truth[None] + 0.3, 3, axis=0), truth) == 0.0

    def test_spread_with_zero_error_is_inf(self):
        # Whole numbers keep the member errors +-1 exact, so the mean error is 0.
        truth = np.random.default_rng(12).integers(-5, 5, size=(4, 5)).astype(float)
        assert ssr(np.stack([truth + 1.0, truth - 1.0]), truth) == np.inf

    def test_half_spread_underdispersed(self):
        assert ssr(*calibrated_cases(10_000, 16, member_std=0.5, seed=5)) < 0.6

    def test_correction_toggle(self):
        # The small-ensemble correction scales the plain spread / RMSE by sqrt((M+1)/M).
        members, truth = calibrated_cases(2_000, 4, seed=6)
        m = members.shape[0]
        plain = np.sqrt(members.var(axis=0, ddof=1).mean()) / np.sqrt(
            np.square(members.mean(axis=0) - truth).mean()
        )
        got = ssr(members, truth)
        np.testing.assert_allclose(got, np.sqrt((m + 1) / m) * plain, rtol=1e-12)
        assert got > plain


class TestRankHistogram:
    def test_truth_below_all_members(self):
        counts = verify.rank_histogram(np.ones((4, 50)), np.zeros(50), np.random.default_rng(0))
        assert counts[0] == 50 and counts[1:].sum() == 0
        assert chi2_p(counts)[1] < 1e-6

    def test_exchangeable_ensemble_flat(self):
        rng = np.random.default_rng(7)
        n, m = 10_000, 7
        center = rng.standard_normal(n)
        members = center + rng.standard_normal((m, n))
        truth = center + rng.standard_normal(n)
        counts = verify.rank_histogram(members, truth, np.random.default_rng(0))
        assert counts.sum() == n
        assert chi2_p(counts)[1] > 0.01

    def test_underdispersed_u_shape(self):
        rng = np.random.default_rng(8)
        n, m = 10_000, 7
        center = rng.standard_normal(n)
        members = center + 0.5 * rng.standard_normal((m, n))
        truth = center + rng.standard_normal(n)
        counts = verify.rank_histogram(members, truth, np.random.default_rng(0))
        end_share = (counts[0] + counts[-1]) / n
        assert end_share > 2 * (2 / (m + 1))
        assert chi2_p(counts)[1] < 0.01

    def test_counts_sum_under_ties(self):
        rng = np.random.default_rng(9)
        members = rng.integers(0, 3, size=(6, 20, 25)).astype(np.float32)
        truth = rng.integers(0, 3, size=(20, 25)).astype(np.float32)
        counts = verify.rank_histogram(members, truth, np.random.default_rng(1))
        assert counts.shape == (7,) and counts.sum() == 500

    def test_tie_randomization_seeded(self):
        members, truth = np.ones((4, 100)), np.ones(100)
        c1 = verify.rank_histogram(members, truth, np.random.default_rng(3))
        c2 = verify.rank_histogram(members, truth, np.random.default_rng(3))
        np.testing.assert_array_equal(c1, c2)
        assert c1.sum() == 100 and c1[0] < 100  # ties spread across ranks

    def test_misaligned_truth_rejected(self):
        with pytest.raises(DomainError):
            verify.rank_histogram(np.ones((4, 10)), np.ones(9), np.random.default_rng(0))


class TestMetricReport:
    def make_report(self):
        rng = np.random.default_rng(0)
        fields = rng.standard_normal((4, 2, 3, 6, 8)).astype(np.float32)
        truth = rng.standard_normal((2, 3, 6, 8)).astype(np.float32)
        return verify.evaluate_ensemble(
            fields, truth, variables=["a", "b", "c"], lead_hours=[6, 12],
            lat_weights=np.ones(6), rank_seed=0,
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
        assert set(doc["scores"]) == set(METRICS)

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(1)
        fields = rng.standard_normal((5, 1, 1, 4, 4)).astype(np.float32)
        truth = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        a = verify.evaluate_ensemble(fields, truth, ["v"], [6], np.ones(4), 0)
        b = verify.evaluate_ensemble(fields[::-1].copy(), truth, ["v"], [6], np.ones(4), 0)
        for key in a.scores:
            np.testing.assert_allclose(a.scores[key], b.scores[key], atol=1e-12)

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("ties", [False, True])
    def test_report_does_not_depend_on_workers(self, m, ties):
        # 3 leads x 2 variables: 6 slabs, split unevenly at 4 workers and
        # among fewer processes than workers at 8.
        rng = np.random.default_rng(6)
        fields = rng.standard_normal((m, 3, 2, 6, 8))
        truth = rng.standard_normal((3, 2, 6, 8))
        if ties:
            fields, truth = np.round(fields), np.round(truth)
        fields, truth = fields.astype(np.float32), truth.astype(np.float32)
        lat_w = np.cos(np.linspace(-1.2, 1.2, 6))
        reports = [
            verify.evaluate_ensemble(fields, truth, ["a", "b"], [6, 12, 18], lat_w, 2, workers)
            for workers in (1, 2, 4, 8)
        ]
        for report in reports[1:]:
            np.testing.assert_array_equal(report.rank_counts, reports[0].rank_counts)
            for key in METRICS:
                np.testing.assert_array_equal(report.scores[key], reports[0].scores[key])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_perfect_float64_ensemble_scores_zero(self):
        truth = np.random.default_rng(2).standard_normal((2, 3, 6, 8))
        fields = np.repeat(truth[None], 3, axis=0)
        report = verify.evaluate_ensemble(
            fields, truth, variables=["a", "b", "c"], lead_hours=[6, 12],
            lat_weights=np.cos(np.linspace(-1.2, 1.2, 6)), rank_seed=0,
        )
        for key in METRICS:
            np.testing.assert_array_equal(report.scores[key], np.zeros((3, 2)))


BANDS = (0.0, 0.2, 0.5, 0.8, spectral.R_CORNER)


def identity(z):
    return z


def unit_weights(latents):
    return np.ones((latents.shape[-2], 1))


class TestDiffusability:
    def test_identical_latents_identical_tables(self):
        rng = np.random.default_rng(0)
        lat = rng.standard_normal((6, 3, 8, 8))
        report = verify.diffusability_report(
            lat, lat.copy(), BANDS, identity, lat, unit_weights(lat)
        )
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
            lat, gen, BANDS, decoder, reference, unit_weights(reference), mask_radii=(0.5, full)
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
        report = verify.diffusability_report(enc, gen, BANDS, identity, enc, unit_weights(enc))
        assert report["generated_band_energy"][-1] <= report["encoder_band_energy"][-1]

    def test_band_energy_is_the_mean_over_planes(self):
        rng = np.random.default_rng(3)
        enc = rng.standard_normal((3, 2, 8, 8))
        report = verify.diffusability_report(enc, enc, BANDS, identity, enc, unit_weights(enc))
        planes = [spectral.band_energy(enc[n, c], BANDS) for n in range(3) for c in range(2)]
        np.testing.assert_allclose(report["encoder_band_energy"], np.mean(planes, axis=0), rtol=1e-12)
