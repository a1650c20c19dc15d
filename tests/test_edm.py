import numpy as np
import pytest
from gradcheck import numeric_gradient, to_float64

from nimbus import autodiff as ad
from nimbus import edm
from nimbus.errors import ConfigError, DomainError


def default_cfg(**kw):
    return edm.EdmConfig(**kw)


class TestPrecondition:
    def test_sigma_equals_sigma_data(self):
        cfg = default_cfg(sigma_data=0.7)
        c_skip, c_out, c_in, c_noise = edm.precondition(0.7, cfg)
        assert c_skip == pytest.approx(0.5, abs=1e-15)

    def test_sigma_to_zero_limit(self):
        cfg = default_cfg()
        c_skip, c_out, _, _ = edm.precondition(1e-8, cfg)
        assert abs(c_skip - 1.0) < 1e-12
        assert c_out < 1e-7

    def test_closed_forms_extended_precision(self):
        # Hand evaluation at sigma = 2 * sigma_data in float128-ish precision
        # via Python floats on exact rationals: sd=0.5, sigma=1.
        cfg = default_cfg(sigma_data=0.5)
        c_skip, c_out, c_in, c_noise = edm.precondition(1.0, cfg)
        denom = 1.0**2 + 0.25
        assert c_skip == pytest.approx(0.25 / denom, abs=1e-15)
        assert c_out == pytest.approx(1.0 * 0.5 / np.sqrt(denom), abs=1e-15)
        assert c_in == pytest.approx(1.0 / np.sqrt(denom), abs=1e-15)
        assert c_noise == pytest.approx(0.0, abs=1e-15)

    def test_identities_across_log_grid(self):
        cfg = default_cfg(sigma_data=0.5)
        sig = np.logspace(-4, 4, 81)
        c_skip, c_out, c_in, _ = edm.precondition(sig, cfg)
        sd = cfg.sigma_data
        # c_in^2 * (sigma^2 + sd^2) = 1 and c_skip + c_out^2 / sd^2 ... use
        # the defining relations directly.
        np.testing.assert_allclose(c_in**2 * (sig**2 + sd**2), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            c_skip, sd**2 / (sig**2 + sd**2), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            c_out**2, sig**2 * sd**2 / (sig**2 + sd**2), rtol=1e-12
        )

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            edm.precondition(0.0, default_cfg())

    def test_loss_weight_at_sigma_data(self):
        cfg = default_cfg(sigma_data=0.5)
        assert edm.loss_weight(0.5, cfg) == pytest.approx(2.0 / 0.5**2)


class TestSampleSigma:
    def test_moments(self):
        cfg = default_cfg()
        rng = np.random.default_rng(0)
        s = edm.sample_sigma(rng, cfg, size=100_000)
        logs = np.log(s)
        n = logs.size
        se_mean = cfg.p_std / np.sqrt(n)
        assert abs(logs.mean() - cfg.p_mean) < 3 * se_mean
        se_std = cfg.p_std / np.sqrt(2 * (n - 1))
        assert abs(logs.std(ddof=1) - cfg.p_std) < 3 * se_std

    def test_all_positive(self):
        s = edm.sample_sigma(np.random.default_rng(1), default_cfg(), size=10_000)
        assert np.all(s > 0)

    def test_deterministic(self):
        a = edm.sample_sigma(np.random.default_rng(2), default_cfg(), size=10)
        b = edm.sample_sigma(np.random.default_rng(2), default_cfg(), size=10)
        np.testing.assert_array_equal(a, b)


class TestSchedule:
    def test_endpoints(self):
        cfg = default_cfg()
        s = edm.sigma_schedule(cfg)
        assert len(s) == 25
        assert s[0] == pytest.approx(80.0)
        assert s[-1] == pytest.approx(0.002)

    def test_strictly_decreasing_bounded_ratios(self):
        s = edm.sigma_schedule(default_cfg())
        assert np.all(np.diff(s) < 0)
        ratios = s[:-1] / s[1:]
        assert ratios.max() < 4.0

    def test_one_step_degenerate(self):
        cfg = default_cfg(steps=1)
        assert list(edm.sigma_schedule(cfg)) == [80.0]

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            default_cfg(steps=0)
        with pytest.raises(ConfigError):
            default_cfg(sigma_min=2.0, sigma_max=1.0)


class TestAnalyticDenoiser:
    def test_sigma_to_zero_returns_observation(self):
        d = edm.analytic_gaussian_denoiser(np.zeros(4), np.ones(4))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(d(x, 1e-9), x, atol=1e-12)

    def test_sigma_to_inf_returns_mean(self):
        mu = np.array([1.0, 2.0])
        d = edm.analytic_gaussian_denoiser(mu, np.ones(2))
        np.testing.assert_allclose(d(np.array([5.0, -5.0]), 1e9), mu, atol=1e-12)

    def test_unit_cov_sigma_one_halves(self):
        mu = np.array([1.0, -1.0])
        d = edm.analytic_gaussian_denoiser(mu, np.ones(2))
        x = np.array([3.0, 1.0])
        np.testing.assert_allclose(d(x, 1.0), mu + (x - mu) / 2.0)

    def test_bad_cov(self):
        with pytest.raises(DomainError):
            edm.analytic_gaussian_denoiser(np.zeros(2), np.array([1.0, 0.0]))


class TestBuildCondition:
    def test_frame_count(self):
        k = 4
        z_bar = np.zeros((2, 3, 1 + k // 2, 4, 4))
        z_prev = np.zeros((2, 3, 4, 4))
        z_noisy = np.zeros((2, 3, 4, 4))
        cond = edm.build_condition(z_bar, z_prev, z_noisy)
        assert cond.shape == (2, 3, 3 + k // 2, 4, 4)

    def test_zero_conditioning_is_unconditional_style(self):
        z_noisy = np.random.default_rng(0).standard_normal((1, 2, 4, 4))
        cond = edm.build_condition(np.zeros((1, 2, 3, 4, 4)), np.zeros((1, 2, 4, 4)), z_noisy)
        np.testing.assert_array_equal(cond[:, :, 1:], 0.0)
        np.testing.assert_array_equal(cond[:, :, 0], z_noisy)

    def test_order_is_semantic(self):
        rng = np.random.default_rng(1)
        z_bar = rng.standard_normal((1, 2, 3, 4, 4))
        z_prev = rng.standard_normal((1, 2, 4, 4))
        z_noisy = rng.standard_normal((1, 2, 4, 4))
        a = edm.build_condition(z_bar, z_prev, z_noisy)
        b = edm.build_condition(z_bar[:, :, ::-1], z_prev, z_noisy)
        assert np.abs(a - b).max() > 0

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(DomainError):
            edm.build_condition(
                np.zeros((1, 2, 3, 4, 4)), np.zeros((1, 2, 8, 8)), np.zeros((1, 2, 4, 4))
            )


class TestSamplers:
    def gaussian_problem(self, dim=16, seed=0, sigma_data=0.5):
        # Target covariance scaled to sigma_data^2, as the denoiser is
        # validated in the regime the sampler actually runs in.
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal(dim)
        cov = sigma_data**2 * (0.5 + rng.random(dim))
        return mu, cov, edm.analytic_gaussian_denoiser(mu, cov)

    def test_moment_matching(self):
        mu, cov, denoise = self.gaussian_problem()
        cfg = default_cfg(steps=25)
        rng = np.random.default_rng(123)
        samples = edm.sample_deterministic(denoise, (4096, 16), rng, cfg)
        assert np.abs(samples.mean(axis=0) - mu).max() < 0.05
        ratio = samples.var(axis=0, ddof=1) / cov
        assert np.abs(ratio - 1.0).max() < 0.10

    def test_cli_default_schedule(self):
        # The product default: 18 steps (18 denoiser calls) from sigma_max =
        # 20, on the benchmark's oracle draw over 40 seeds (4 dims,
        # mu ~ N(0, 1), cov ~ U(0.05, 1), 20000 samples). Tolerances: the
        # variance ratio within 0.11 of 1 (the worst seed reads 0.106); the
        # mean within 5 standard errors plus (|mu| / sigma_max + 0.01) sqrt(cov),
        # since the N(0, sigma_max^2) start ignores mu.
        from nimbus import cli

        s = cli.DEFAULT_CONFIG["sampler"]
        cfg = edm.EdmConfig(
            sigma_data=1.0, sigma_min=s["sigma_min"], sigma_max=s["sigma_max"],
            rho=s["rho"], steps=s["steps"],
        )
        n = 20000
        for seed in range(40):
            rng = np.random.default_rng([seed, 23])
            mu = rng.normal(0.0, 1.0, size=4)
            cov = rng.uniform(0.05, 1.0, size=4)
            oracle = edm.analytic_gaussian_denoiser(mu, cov)
            calls = []
            x = edm.sample_deterministic(
                lambda z, sigma: calls.append(sigma) or oracle(z, sigma), (n, 4), rng, cfg
            )
            assert len(calls) == edm.calls_per_sample(cfg) == 18
            assert np.abs(x.var(axis=0, ddof=1) / cov - 1).max() <= 0.11, seed
            mean_tol = 5 * np.sqrt(cov / n) + (np.abs(mu) / cfg.sigma_max + 0.01) * np.sqrt(cov)
            assert np.all(np.abs(x.mean(axis=0) - mu) <= mean_tol), seed

    def test_one_step_finite(self):
        _, _, denoise = self.gaussian_problem()
        cfg = default_cfg(steps=1)
        out = edm.sample_deterministic(denoise, (8, 16), np.random.default_rng(0), cfg)
        assert np.all(np.isfinite(out))

    def test_churn_zero_bitwise_equal(self):
        _, _, denoise = self.gaussian_problem(seed=1)
        cfg = default_cfg()
        cfg.s_churn = 0.0
        a = edm.sample_deterministic(denoise, (4, 16), np.random.default_rng(5), cfg)
        b = edm.sample_stochastic(denoise, (4, 16), np.random.default_rng(5), cfg)
        np.testing.assert_array_equal(a, b)

    def test_churn_window_respected(self):
        # With s_min/s_max excluding every schedule sigma, no noise is drawn,
        # so the trajectory equals the deterministic one bitwise.
        _, _, denoise = self.gaussian_problem(seed=2)
        cfg = default_cfg()
        cfg.s_churn = 2.5
        cfg.s_min = 100.0
        cfg.s_max = 200.0
        a = edm.sample_deterministic(denoise, (4, 16), np.random.default_rng(6), cfg)
        b = edm.sample_stochastic(denoise, (4, 16), np.random.default_rng(6), cfg)
        np.testing.assert_array_equal(a, b)

    def test_churn_defaults_match_quoted_values(self):
        cfg = default_cfg()
        assert (cfg.s_churn, cfg.s_min, cfg.s_max, cfg.s_noise) == (
            0.0,
            0.75,
            68.0,
            1.1,
        )
        assert (cfg.sigma_min, cfg.sigma_max, cfg.rho, cfg.steps) == (0.002, 80.0, 7.0, 25)
        assert (cfg.p_mean, cfg.p_std) == (-1.2, 1.2)

    def test_churn_increases_spread_paired_seeds(self):
        mu, cov, denoise = self.gaussian_problem(seed=3)
        cfg = default_cfg(s_churn=2.5)
        det = np.stack(
            [
                edm.sample_deterministic(denoise, (16,), np.random.default_rng([7, m]), cfg)
                for m in range(256)
            ]
        )
        sto = np.stack(
            [
                edm.sample_stochastic(denoise, (16,), np.random.default_rng([7, m]), cfg)
                for m in range(256)
            ]
        )
        assert sto.std(axis=0).mean() > det.std(axis=0).mean()

    @pytest.mark.parametrize("s_churn", [10.0, 100.0])
    def test_heavy_churn_moments(self, s_churn):
        # From sigma_max = 80 churn starts below s_max = 68, so the step into
        # the window lifts sigma past the previous call's, and at 100 steps
        # with s_churn 100 (gamma capped at sqrt(2) - 1) every churned step's
        # history gap is under half a step. Extrapolating through those
        # outputs amplified the churn noise: worst variance-ratio error 0.49-0.53
        # over three seeds against Heun's 0.29; first-order steps there read
        # 0.16-0.17. s_noise = 1.1 inflates the variance even at s_churn 2.5
        # (0.24 at 100 steps), hence the loose bound.
        mu, cov, denoise = self.gaussian_problem()
        cfg = default_cfg(sigma_max=80.0, steps=100)
        cfg.s_churn = s_churn
        x = edm.sample_stochastic(denoise, (4096, 16), np.random.default_rng(7), cfg)
        assert np.abs(x.var(axis=0, ddof=1) / cov - 1).max() < 0.35
        assert np.abs(x.mean(axis=0) - mu).max() < 0.05

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_state_stays_float32(self, stochastic):
        # The float64 oracle output must not promote the sampler state.
        _, _, oracle = self.gaussian_problem(seed=6)
        seen = []

        def denoise(x, sigma):
            seen.append(x.dtype)
            return oracle(x, sigma)

        sample = edm.sample_stochastic if stochastic else edm.sample_deterministic
        out = sample(denoise, (4, 16), np.random.default_rng(8), default_cfg(s_churn=2.5))
        assert out.dtype == np.float32
        # One call per schedule entry: the EDM default of 25 steps.
        assert seen == [np.dtype(np.float32)] * 25

    def test_noise_stream_kept(self):
        # The first state is the float64 draw, cast once.
        cfg = default_cfg(steps=1)
        first = []
        edm.sample_deterministic(
            lambda x, s: first.append(x) or x, (3, 5), np.random.default_rng(4), cfg
        )
        expect = np.random.default_rng(4).standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_array_equal(first[0], expect * np.float32(cfg.sigma_max))

    def test_reproducible_across_runs(self):
        _, _, denoise = self.gaussian_problem(seed=4)
        cfg = default_cfg()
        a = edm.sample_deterministic(denoise, (2, 16), np.random.default_rng(9), cfg)
        b = edm.sample_deterministic(denoise, (2, 16), np.random.default_rng(9), cfg)
        np.testing.assert_array_equal(a, b)

    def test_covariance_kl_decreases_with_steps(self):
        mu, cov, denoise = self.gaussian_problem(seed=5)
        kls = []
        for steps in (5, 10, 25):
            cfg = default_cfg(steps=steps)
            s = edm.sample_deterministic(
                denoise, (4096, 16), np.random.default_rng(11), cfg
            )
            m, v = s.mean(axis=0), s.var(axis=0, ddof=1)
            kl = 0.5 * np.sum(np.log(cov / v) + (v + (m - mu) ** 2) / cov - 1.0)
            kls.append(kl)
        assert kls[0] > kls[1] > kls[2]

    @pytest.mark.parametrize("sigma_max", [80.0, 20.0])
    def test_second_order_against_exact_flow(self, sigma_max):
        # For N(mu, diag(cov)) data the probability-flow ODE from x_T at
        # sigma_max ends at mu + sqrt(cov / (cov + sigma_max^2)) (x_T - mu).
        # A second-order sampler's endpoint error falls about 4x per doubling
        # of steps (these read 4.3-4.6); a first-order one's only about 2x.
        mu, cov, denoise = self.gaussian_problem(seed=0)
        shape = (256, 16)
        errs = []
        for steps in (20, 40, 80):
            cfg = default_cfg(sigma_max=sigma_max, steps=steps)
            x = edm.sample_deterministic(denoise, shape, np.random.default_rng(3), cfg)
            x_t = np.random.default_rng(3).standard_normal(shape).astype(np.float32) * sigma_max
            exact = mu + np.sqrt(cov / (cov + sigma_max**2)) * (x_t - mu)
            errs.append(np.abs(x - exact).max())
        assert errs[0] / errs[1] >= 3.5, errs
        assert errs[1] / errs[2] >= 3.5, errs
        # Churn keeps one call per schedule entry.
        calls = []
        edm.sample_stochastic(
            lambda x, s: calls.append(s) or denoise(x, s), shape, np.random.default_rng(3), cfg
        )
        assert len(calls) == edm.calls_per_sample(cfg) == cfg.steps


class StubIdentityNet:
    """Raw network that makes the wrapped denoiser return z_clean exactly."""

    def __init__(self, z_clean, cfg):
        self.z_clean = z_clean
        self.cfg = cfg

    def forward(self, cond, c_noise):
        sigma = np.exp(4.0 * np.asarray(c_noise, dtype=np.float64))
        c_skip, c_out, c_in, _ = edm.precondition(sigma, self.cfg)
        b = cond.data.shape[0]
        z_noisy = cond.data[:, :, 0] / c_in.reshape(b, 1, 1, 1)
        f = (self.z_clean - c_skip.reshape(b, 1, 1, 1) * z_noisy) / c_out.reshape(b, 1, 1, 1)
        return ad.constant(f.astype(np.float64))


class TestDiffusionLoss:
    def test_identity_oracle_gives_zero(self):
        rng = np.random.default_rng(0)
        cfg = default_cfg()
        z_clean = rng.standard_normal((2, 3, 4, 4))
        net = StubIdentityNet(z_clean, cfg)
        z_bar = rng.standard_normal((2, 3, 3, 4, 4))
        z_prev = rng.standard_normal((2, 3, 4, 4))
        sigma = np.array([0.3, 1.7])
        loss = edm.diffusion_loss(net, z_clean, z_bar, z_prev, sigma, rng, cfg)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_param_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = default_cfg()
        net = edm.Denoiser(
            edm.DenoiserConfig(latent_channels=2, hidden=3, blocks=1, t_frames=4, emb_dim=3),
            rng,
        )
        to_float64(net.params)
        # Zero-init head blocks the default gradient path; give it signal.
        net.params["headout.w"].data = rng.standard_normal(
            net.params["headout.w"].data.shape
        ) * 0.3
        z_clean = rng.standard_normal((1, 2, 4, 4))
        z_bar = rng.standard_normal((1, 2, 2, 4, 4))
        z_prev = rng.standard_normal((1, 2, 4, 4))
        sigma = np.array([0.8])

        def loss_fn():
            return edm.diffusion_loss(
                net, z_clean, z_bar, z_prev, sigma, np.random.default_rng(42), cfg
            )

        loss = loss_fn()
        for p in net.params.values():
            p.grad = None
        loss.backward()
        for name in ("blk0.conv.w", "proj.w", "blk0.film.w", "head.collapse.w"):
            p = net.params[name]
            num = numeric_gradient(loss_fn, p, eps=1e-4)
            scale = max(1.0, np.abs(num).max())
            assert np.abs(p.grad - num).max() / scale < 1e-4

    def test_denoiser_shapes(self):
        rng = np.random.default_rng(0)
        net = edm.Denoiser(
            edm.DenoiserConfig(latent_channels=3, hidden=4, blocks=2, t_frames=5), rng
        )
        cond = ad.constant(np.random.default_rng(1).standard_normal((2, 3, 5, 4, 6)))
        out = net.forward(cond, np.array([0.1, -0.2]))
        assert out.data.shape == (2, 3, 4, 6)

    def test_sigma_data_estimate(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((100, 4, 4)) * 0.73
        assert edm.estimate_sigma_data(z) == pytest.approx(0.73, rel=0.05)
