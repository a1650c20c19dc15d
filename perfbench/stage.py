"""One step of a benchmark workload, run in a fresh process.

Usage: python perfbench/stage.py SPEC.json

The spec names an action and where to write the result. The program is
imported before the clock starts, so interpreter start and imports stay out
of every time this process reports. With ``"trace": true`` the layer tracer
wraps the program first, and its records go into the result.

Actions:
  cli             run ``nimbus.cli.main(argv)`` as the ``nimbus`` command does
  score_setup     write a truth dataset and an ensemble through the program's writers
  check_forecast  recompute member 0 alone and run the Heun sampler on the oracle
  check_train     reload the checkpoints and score held-out losses before and after training
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

# Modules each action needs, imported before the clock starts. Score set-up
# is the benchmark's own step and needs only the writers, not the CLI.
IMPORTS = {"score_setup": ("nimbus.forecast", "nimbus.grid")}
CLI_IMPORTS = ("nimbus.cli",)


def action_cli(spec, marks):
    from nimbus import cli

    # The end of model rebuild is where the forecast stage's set-up ends.
    rebuild = cli._rebuild_models

    def marked(*args, **kwargs):
        out = rebuild(*args, **kwargs)
        marks["setup_end"] = time.perf_counter()
        return out

    cli._rebuild_models = marked
    rc = cli.main(spec["argv"])
    if rc != 0:
        raise SystemExit(f"nimbus {spec['argv'][0]} exited with {rc}")
    return {}


def score_inputs(seed, sigma, members, t, t_truth, v, lat, lon):
    """Truth frames and members: independent N(centre, sigma^2) draws.

    Frames before the truth window are drawn the same way, so the dataset
    is one stationary sequence; only differences from the centre matter to
    the scores.
    """
    rng = np.random.default_rng([seed, 11])
    h, w = len(lat), len(lon)
    lat = np.deg2rad(lat)[:, None]
    lon = np.deg2rad(lon)[None, :]
    level = rng.uniform(-5.0, 5.0, size=v)
    amp = rng.uniform(1.0, 3.0, size=v)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=v)
    steps = np.arange(t)[:, None, None, None]
    centre = level[None, :, None, None] + amp[None, :, None, None] * np.cos(lat) * np.sin(
        lon + phase[None, :, None, None] + 0.1 * steps
    )
    data = (centre + sigma * rng.standard_normal((t, v, h, w))).astype(np.float32)
    ens = centre[None, t - t_truth :] + sigma * rng.standard_normal((members, t_truth, v, h, w))
    return data, ens.astype(np.float32)


def action_score_setup(spec, marks):
    from nimbus import forecast, grid

    inputs = dict(spec["inputs"])
    lat, lon = grid.default_grid(inputs.pop("h"), inputs.pop("w"))
    data, ens = score_inputs(lat=lat, lon=lon, **inputs)
    stats = [(float(data[:, j].mean()), float(data[:, j].std())) for j in range(data.shape[1])]
    marks["start"] = time.perf_counter()
    specs = tuple(
        grid.VariableSpec(name=f"var{j}", mean=mean, std=std) for j, (mean, std) in enumerate(stats)
    )
    grid.write_fields(
        grid.FieldBatch(data=data, lat=lat, lon=lon, specs=specs),
        os.path.join(spec["out"], "dataset.pyld"),
    )
    forecast.write_forecast(
        forecast.EnsembleForecast(
            fields=ens,
            member_seeds=[[spec["inputs"]["seed"], m] for m in range(ens.shape[0])],
            lat=lat,
            lon=lon,
            specs=specs,
        ),
        os.path.join(spec["out"], "forecast"),
    )
    return {}


def action_check_forecast(spec, marks):
    from nimbus import cli, edm, forecast

    # The models exactly as ``nimbus forecast`` rebuilds them: another set-up sample.
    seed = spec["seed"]
    cfg = cli.load_config(spec["config"])
    bundle, fmodels = cli._rebuild_models(cfg, argparse.Namespace(out=spec["out"], seed=seed), seed)
    marks["setup_end"] = time.perf_counter()
    alone = forecast.rollout(
        fmodels, bundle.init_window, members=1, t_lead=spec["t_lead"], base_seed=seed, workers=1
    )
    np.save(spec["member_path"], alone.fields[0])

    # Heun sampler on the analytic Gaussian denoiser, default sampler config.
    s = cfg["sampler"]
    ecfg = edm.EdmConfig(
        sigma_data=1.0, sigma_min=s["sigma_min"], sigma_max=s["sigma_max"],
        rho=s["rho"], steps=s["steps"],
    )
    rng = np.random.default_rng([seed, 23])
    dims = 4
    mu = rng.normal(0.0, 1.0, size=dims)
    cov = rng.uniform(0.05, 1.0, size=dims)
    n = spec["oracle_samples"]
    x = edm.sample_deterministic(edm.analytic_gaussian_denoiser(mu, cov), (n, dims), rng, ecfg)
    return {
        "oracle": {
            "n": n,
            "sigma_max": s["sigma_max"],
            "mu": mu.tolist(),
            "cov": cov.tolist(),
            "mean": x.mean(axis=0).tolist(),
            "var": x.var(axis=0, ddof=1).tolist(),
        }
    }


def action_check_train(spec, marks):
    from nimbus import autodiff as ad
    from nimbus import cli, edm, grid, models, pipeline
    from nimbus.regularize import Strategy

    out, seed = spec["out"], spec["seed"]
    cfg = cli.load_config(spec["config"])
    bundle = pipeline.split_dataset(
        grid.read_fields(os.path.join(out, "dataset.pyld")),
        cfg["forecast"]["train_frames"],
        cfg["mae"]["k"],
    )
    k = cfg["mae"]["k"]
    strategy = Strategy(cfg["vae"]["regularizer"])

    def fresh_vae():
        return pipeline.train_vae(bundle, {**cfg["vae"], "iters": 0}, strategy, seed)

    def fresh_mae():
        return pipeline.train_mae(bundle, {**cfg["mae"], "iters": 0}, seed)

    def fresh_denoiser():
        dc = cfg["diffusion"]
        return edm.Denoiser(
            edm.DenoiserConfig(
                latent_channels=cfg["vae"]["latent_channels"], hidden=dc["hidden"],
                blocks=dc["blocks"], t_frames=3 + k // 2, emb_dim=dc["emb_dim"],
            ),
            np.random.default_rng([seed, 404]),
        )

    def trained(model, name):
        arrays = ad.load_params(os.path.join(out, name))
        ad.assign_params(model.params, arrays)  # checks names and shapes
        finite = all(np.all(np.isfinite(p.data)) for p in model.params.values())
        return model, finite

    # Held-out frames: everything after the training slice.
    full = bundle.full.data
    n_train = cfg["forecast"]["train_frames"]
    states = grid.standardize_array(full, bundle.state_specs).astype(np.float32)
    resid = grid.standardize_array(np.diff(full, axis=0), bundle.resid_specs).astype(np.float32)
    held_t = np.arange(n_train + k, full.shape[0] - 1, 4)

    def window(t):
        win = np.concatenate([states[t - k + 1 : t + 1], np.zeros_like(states[:1])], axis=0)
        return win.transpose(1, 0, 2, 3)

    vae_batch = resid[held_t]
    mae_batch = np.ascontiguousarray(
        np.stack([states[t - k : t + 1].transpose(1, 0, 2, 3) for t in held_t[:2]])
    )
    w = bundle.lat_w

    def vae_loss(vae):
        loss, _ = models.vae_loss(
            vae, vae_batch, Strategy.NONE, 1.0, np.random.default_rng(0), w, bundle.var_w
        )
        return float(loss.data)

    def mae_loss(mae):
        return float(models.mae_loss(mae, mae_batch, w, bundle.var_w).data)

    vae0, mae0 = fresh_vae(), fresh_mae()
    vae1, vae_ok = trained(fresh_vae(), "vae.pypt")
    mae1, mae_ok = trained(fresh_mae(), "mae.pypt")
    den1, den_ok = trained(fresh_denoiser(), "denoiser.pypt")
    with open(os.path.join(out, "edm_config.json")) as fh:
        sigma_data = json.load(fh)["sigma_data"]
    ecfg = edm.EdmConfig(sigma_data=sigma_data)
    z_clean = vae1.encode_mean(resid[held_t])
    z_prev = vae1.encode_mean(resid[held_t - 1])
    z_bar = mae1.encode_array(np.ascontiguousarray(np.stack([window(t) for t in held_t])))
    sigmas = np.exp(np.linspace(-2.0, 1.0, len(held_t)))

    def diffusion_loss(net):
        rng = np.random.default_rng(1)
        return float(
            np.mean([
                edm.diffusion_loss(net, z_clean, z_bar, z_prev, sigmas, rng, ecfg).data
                for _ in range(4)
            ])
        )

    return {
        "finite": {"vae": vae_ok, "mae": mae_ok, "denoiser": den_ok},
        "loss_init": {"vae": vae_loss(vae0), "mae": mae_loss(mae0), "denoiser": diffusion_loss(fresh_denoiser())},
        "loss_trained": {"vae": vae_loss(vae1), "mae": mae_loss(mae1), "denoiser": diffusion_loss(den1)},
    }


ACTIONS = {
    "cli": action_cli,
    "score_setup": action_score_setup,
    "check_forecast": action_check_forecast,
    "check_train": action_check_train,
}


def main(spec):
    for module in IMPORTS.get(spec["action"], CLI_IMPORTS):
        importlib.import_module(module)
    tracer = None
    if spec.get("trace"):
        import layers

        tracer = layers.install()
    marks = {}
    t0 = time.perf_counter()
    detail = ACTIONS[spec["action"]](spec, marks)
    t1 = time.perf_counter()
    start = marks.get("start", t0)
    setup_end = marks.get("setup_end")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": t1 - start if setup_end is None else t1 - setup_end,
        "setup_s": None if setup_end is None else setup_end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt,
        "detail": detail,
        "trace": tracer.summary() if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        main(json.load(fh))
