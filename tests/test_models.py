import numpy as np
import pytest
from gradcheck import first_step, to_float64

from nimbus import autodiff as ad
from nimbus import edm, grid, models
from nimbus.errors import ConfigError
from nimbus.regularize import Strategy


def make_vae(v=3, cz=4, base=6, beta=1e-5, seed=0):
    return models.Vae(
        v, models.VaeConfig(latent_channels=cz, base_channels=base, beta=beta),
        np.random.default_rng(seed),
    )


def resid_batch(b=2, v=3, h=16, w=16, seed=0):
    return np.random.default_rng(seed).standard_normal((b, v, h, w)).astype(np.float32)


def unit_weights(frames):
    """Uniform (lat_w, var_w) for (N, V, H, W) frames."""
    return np.ones(frames.shape[2]), np.ones(frames.shape[1])


class TestVaeCore:
    def test_shape_roundtrip(self):
        vae = make_vae()
        x = resid_batch()
        mu, logvar = vae.encode(ad.constant(x))
        assert mu.data.shape == (2, 4, 4, 4)
        assert logvar.data.shape == mu.data.shape
        recon = vae.decode(ad.constant(mu.data))
        assert recon.data.shape == x.shape

    def test_reparameterize_collapses_at_tiny_logvar(self):
        rng = np.random.default_rng(0)
        mu = ad.constant(rng.standard_normal((2, 3)))
        logvar = ad.constant(np.full((2, 3), -40.0))
        z = models.reparameterize(mu, logvar, np.random.default_rng(1))
        assert np.abs(z.data - mu.data).max() < 1e-8

    def test_reparameterize_deterministic_under_seed(self):
        mu = ad.constant(np.zeros((2, 3)))
        logvar = ad.constant(np.zeros((2, 3)))
        z1 = models.reparameterize(mu, logvar, np.random.default_rng(5))
        z2 = models.reparameterize(mu, logvar, np.random.default_rng(5))
        np.testing.assert_array_equal(z1.data, z2.data)

    def test_kl_zero_for_standard_normal(self):
        mu = ad.constant(np.zeros((4, 4)))
        logvar = ad.constant(np.zeros((4, 4)))
        assert float(models.kl_standard_normal(mu, logvar).data) == pytest.approx(0.0)

    def test_kl_matches_monte_carlo(self):
        # Spot check: analytic per-element KL vs a Monte Carlo estimate of
        # E_q[log q - log p] at 1e5 samples.
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(4) * 0.5
        logvar = rng.standard_normal(4) * 0.4
        analytic = float(
            models.kl_standard_normal(ad.constant(mu), ad.constant(logvar)).data
        )
        n = 100_000
        std = np.exp(0.5 * logvar)
        z = mu + std * rng.standard_normal((n, 4))
        log_q = -0.5 * (np.log(2 * np.pi) + logvar + (z - mu) ** 2 / std**2)
        log_p = -0.5 * (np.log(2 * np.pi) + z**2)
        mc = float(np.mean(log_q - log_p))
        assert analytic == pytest.approx(mc, rel=0.02)


class TestVaeLoss:
    def test_gamma_one_equals_none(self):
        vae = make_vae(seed=1)
        x = resid_batch(seed=1)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        la, _ = models.vae_loss(vae, x, Strategy.VAMFM, 1.0, rng_a, *unit_weights(x))
        lb, _ = models.vae_loss(vae, x, Strategy.NONE, 1.0, rng_b, *unit_weights(x))
        assert float(la.data) == pytest.approx(float(lb.data), rel=1e-7)

    def test_beta_zero_none_matches_weighted_mse_oracle(self):
        vae = make_vae(beta=0.0, seed=2)
        x = resid_batch(seed=2)
        rng = np.random.default_rng(3)
        eps_rng = np.random.default_rng(3)
        loss, _ = models.vae_loss(vae, x, Strategy.NONE, 1.0, rng, *unit_weights(x))
        mu, logvar = vae.encode(ad.constant(x))
        z = models.reparameterize(mu, logvar, eps_rng)
        recon = vae.decode(z)
        w = models.combined_weights(*unit_weights(x))
        ref = ad.weighted_mse(recon, x, w)
        assert float(loss.data) == pytest.approx(float(ref.data), rel=1e-7)

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            models.VaeConfig(beta=-1.0)

    def test_vamfm_latent_and_targets_masked(self):
        vae = make_vae(seed=3)
        x = resid_batch(seed=4, h=32, w=32)
        target = models.build_targets(x, Strategy.VAMFM, 0.5)
        for i in range(x.shape[0]):
            for v in range(x.shape[1]):
                tot = np.abs(np.fft.fft2(x[i, v].astype(np.float64))).sum()
                kept = np.abs(np.fft.fft2(target[i, v].astype(np.float64))).sum()
                assert kept <= tot + 1e-6

    def test_se_loss_runs_and_shapes(self):
        vae = make_vae(seed=5)
        x = resid_batch(seed=5, h=16, w=16)
        loss, parts = models.vae_loss(
            vae, x, Strategy.SE, 1.0, np.random.default_rng(0), *unit_weights(x), se_factor=2
        )
        assert np.isfinite(float(loss.data))


class TestMae:
    def make(self, v=2, k=4, seed=0):
        cfg = models.MaeConfig(
            latent_channels=3, channels=(4, 6), spatial_strides=(2, 2),
            decoder_channels=6, k=k,
        )
        return models.Mae(v, cfg, np.random.default_rng(seed))

    def test_decode_shape(self):
        mae = self.make()
        x = np.random.default_rng(0).standard_normal((2, 2, 5, 8, 8)).astype(np.float32)
        z = mae.encode(ad.constant(x))
        assert z.data.shape == (2, 3, 3, 2, 2)
        recon = mae.decode(z)
        assert recon.data.shape == x.shape

    def test_untrained_zero_decoder_loss_is_weighted_mean_square(self):
        mae = self.make(seed=1)
        for name in ("dh.w", "dh.b"):
            mae.params[name].data = np.zeros_like(mae.params[name].data)
        x = np.random.default_rng(1).standard_normal((1, 2, 5, 8, 8)).astype(np.float32)
        lat_w = grid.lat_weights(np.linspace(-60, 60, 8))
        loss = models.mae_loss(mae, x, lat_w, np.ones(2))
        w = models.combined_weights(lat_w, np.ones(2))[:, None, :, :]
        wb = np.broadcast_to(w, x.shape)
        ref = (wb * x.astype(np.float64) ** 2).sum() / wb.sum()
        assert float(loss.data) == pytest.approx(ref, rel=1e-6)

    def test_masked_frame_isolated_from_encoder(self):
        mae = self.make(seed=2)
        x = np.random.default_rng(2).standard_normal((1, 2, 5, 8, 8)).astype(np.float32)
        x2 = x.copy()
        x2[:, :, -1] = np.random.default_rng(3).standard_normal(x2[:, :, -1].shape)
        z1 = mae.encode_array(x)
        z2 = mae.encode_array(x2)
        np.testing.assert_array_equal(z1, z2)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_decode_equals_repeat_then_decode(self, k):
        mae = self.make(k=k, seed=k)
        z = np.random.default_rng(k).standard_normal((2, 3, 1 + k // 2, 2, 2)).astype(np.float32)
        # Latent frames repeated to the k + 1 output frames, each then decoded.
        rep = np.repeat(z, 2, axis=2)[:, :, 1:]
        b, cz, t, hh, ww = rep.shape
        flat = np.ascontiguousarray(rep.transpose(0, 2, 1, 3, 4)).reshape(b * t, cz, hh, ww)
        frames = mae.decode_frames(ad.constant(flat)).data
        expect = frames.reshape((b, t) + frames.shape[1:]).transpose(0, 2, 1, 3, 4)
        assert np.array_equal(mae.decode(ad.constant(z)).data, expect)

    def test_mask_gradient_only_through_target(self):
        mae = self.make(seed=3)
        x = np.random.default_rng(4).standard_normal((1, 2, 5, 8, 8)).astype(np.float32)
        xt = ad.param(x)
        z = mae.encode(xt)
        recon = mae.decode(z)
        loss = ad.weighted_mse(recon, x, 1.0)
        loss.backward()
        # Gradient w.r.t. the window through the encoder input never touches
        # the final frame: no encoder output that a later layer keeps reads it.
        np.testing.assert_array_equal(xt.grad[:, :, -1], 0.0)


class TestTraining:
    def test_vae_loss_decreases(self):
        vae = make_vae(v=2, cz=3, base=4, seed=7)
        data = resid_batch(b=24, v=2, h=16, w=16, seed=8)
        cfg = {"iters": 50, "batch": 4, "lr": 2e-3}
        losses = models.train_vae(vae, data, cfg, 0, Strategy.NONE, *unit_weights(data))
        head = np.mean(losses[:8])
        tail = np.mean(losses[-8:])
        assert tail < head

    def test_identical_seeds_identical_checkpoints(self, tmp_path):
        data = resid_batch(b=12, v=2, h=16, w=16, seed=9)
        outs = []
        for _ in range(2):
            vae = make_vae(v=2, cz=3, base=4, seed=11)
            cfg = {"iters": 10, "batch": 2, "lr": 1e-3}
            models.train_vae(vae, data, cfg, 5, Strategy.VAMFM, *unit_weights(data))
            path = tmp_path / f"ck{_}.pypt"
            ad.save_params(vae.params, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_gamma_one_schedule_equals_none_trace(self, monkeypatch):
        import nimbus.models as m

        data = resid_batch(b=12, v=2, h=16, w=16, seed=10)
        cfg = {"iters": 8, "batch": 2, "lr": 1e-3}
        monkeypatch.setattr(m.regularize, "draw", lambda strategy, rng: (1.0, 1))
        vae_a = make_vae(v=2, cz=3, base=4, seed=12)
        la = models.train_vae(vae_a, data, cfg, 6, Strategy.VAMFM, *unit_weights(data))
        monkeypatch.undo()
        vae_b = make_vae(v=2, cz=3, base=4, seed=12)
        lb = models.train_vae(vae_b, data, cfg, 6, Strategy.NONE, *unit_weights(data))
        np.testing.assert_allclose(la, lb, rtol=1e-7)

    def test_mae_trains_constant_dynamics(self):
        # Constant sequences are learnable: last-frame reconstruction error
        # after training drops below the first-frame error on held-out data.
        wins = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            base = rng.standard_normal((1, 2, 1, 8, 8))
            frames = np.repeat(base, 5, axis=2).astype(np.float32)
            seq = np.repeat(base[0].transpose(1, 0, 2, 3), 8, axis=0).astype(np.float32)
            mae = TestMae().make(seed=seed)
            cfg = {"iters": 60, "batch": 2, "lr": 3e-3}
            models.train_mae(mae, seq, cfg, seed, *unit_weights(seq))
            z = mae.encode_array(frames)
            recon = mae.decode(ad.constant(z)).data
            err_last = float(np.mean((recon[:, :, -1] - frames[:, :, -1]) ** 2))
            err_first = float(np.mean((recon[:, :, 0] - frames[:, :, 0]) ** 2))
            if err_last < err_first:
                wins += 1
        assert wins >= 2


class TestPerSampleShards:
    """An ``ad.fit`` step over one-sample losses in 2 processes takes the full-batch gradient."""

    @staticmethod
    def sharded(params, loss_of, n):
        with pytest.MonkeyPatch.context() as mp:
            return first_step(mp, params, loss_of, n, workers=2)[1]

    @staticmethod
    def full(params, loss):
        for p in params.values():
            p.grad = None
        loss.backward()
        return {k: p.grad for k, p in params.items()}

    @staticmethod
    def assert_same(full, sharded):
        assert full.keys() == sharded.keys()
        for k in full:
            np.testing.assert_allclose(sharded[k], full[k], rtol=1e-9, atol=1e-14, err_msg=k)

    @pytest.mark.parametrize(
        "strategy,gamma,factor", [(Strategy.VAMFM, 0.6, 1), (Strategy.SE, 1.0, 2)]
    )
    def test_vae_loss(self, strategy, gamma, factor):
        vae = make_vae(seed=21)
        to_float64(vae.params)
        x = resid_batch(b=3, seed=22).astype(np.float64)
        lat_w = grid.lat_weights(np.linspace(-60, 60, 16))
        var_w = np.array([1.0, 0.5, 2.0])
        args = (strategy, gamma)
        weights = (lat_w, var_w, factor)
        loss, _ = models.vae_loss(vae, x, *args, np.random.default_rng(3), *weights)
        full = self.full(vae.params, loss)
        eps = models.normal_streams(np.random.default_rng(3), 3, (1, 4, 4, 4))
        sharded = self.sharded(
            vae.params,
            lambda b: models.vae_loss(vae, x[b : b + 1], *args, eps[b], *weights)[0],
            3,
        )
        self.assert_same(full, sharded)

    def test_mae_loss(self):
        mae = TestMae().make(seed=23)
        to_float64(mae.params)
        x = np.random.default_rng(24).standard_normal((3, 2, 5, 8, 8))
        lat_w = grid.lat_weights(np.linspace(-60, 60, 8))
        var_w = np.array([1.0, 0.5])
        full = self.full(mae.params, models.mae_loss(mae, x, lat_w, var_w))
        sharded = self.sharded(
            mae.params, lambda b: models.mae_loss(mae, x[b : b + 1], lat_w, var_w), 3
        )
        self.assert_same(full, sharded)

    def test_diffusion_loss(self):
        rng = np.random.default_rng(25)
        cfg = edm.EdmConfig(sigma_data=0.7)
        net = edm.Denoiser(
            edm.DenoiserConfig(latent_channels=2, hidden=3, blocks=1, t_frames=4, emb_dim=3),
            rng,
        )
        to_float64(net.params)
        net.params["headout.w"].data = rng.standard_normal((2, 3, 1, 1)) * 0.3
        z = rng.standard_normal((3, 2, 4, 4))
        z_bar = rng.standard_normal((3, 2, 2, 4, 4))
        z_prev = rng.standard_normal((3, 2, 4, 4))
        sigma = np.array([0.2, 1.1, 4.0])
        loss = edm.diffusion_loss(net, z, z_bar, z_prev, sigma, np.random.default_rng(5), cfg)
        full = self.full(net.params, loss)
        eps = models.normal_streams(np.random.default_rng(5), 3, (1, 2, 4, 4))

        def loss_of(b):
            s = slice(b, b + 1)
            return edm.diffusion_loss(net, z[s], z_bar[s], z_prev[s], sigma[s], eps[b], cfg)

        sharded = self.sharded(net.params, loss_of, 3)
        self.assert_same(full, sharded)

    def test_normal_streams_reproduce_the_batch_draw(self):
        shape = (1, 3, 4, 5)
        ref = np.random.default_rng(9)
        batch = ref.standard_normal((4, 3, 4, 5))
        rng = np.random.default_rng(9)
        streams = models.normal_streams(rng, 4, shape)
        drawn = np.concatenate([s.standard_normal(shape) for s in streams])
        np.testing.assert_array_equal(drawn, batch)
        assert rng.bit_generator.state == ref.bit_generator.state
