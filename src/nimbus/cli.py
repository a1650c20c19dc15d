"""Command-line driver: data generation, training, forecasting, verification.

All subcommands take --config/--seed/--out/--workers/--dry-run, write a
manifest (config hash, seed, versions) into the output directory, and exit
with 0 on success, 2 on configuration errors, 3 on numeric failures.
NIMBUS_LOG controls log verbosity.

``forecast`` and ``ablate`` run ensemble members on --workers threads; the
BLAS threads are divided among those threads while members run.
"""

from __future__ import annotations

import argparse
import copy
import csv
import datetime
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__, edm, forecast, grid, pipeline, spectral, svgplot, verify
from .errors import ConfigError, DomainError, FormatError, RolloutError
from .regularize import Strategy

log = logging.getLogger("nimbus")

DEFAULT_CONFIG = {
    "data": {
        "h": 64,
        "w": 128,
        "v": 8,
        "t": 96,
        "slopes": [],
        "advection": [],
        "forcing": 0.1,
        "seed": 0,
    },
    "vae": {
        "latent_channels": 16,
        "base_channels": 16,
        "beta": 1e-5,
        "iters": 240,
        "batch": 4,
        "lr": 1.5e-3,
        "regularizer": "vamfm",
    },
    "mae": {
        "k": 4,
        "latent_channels": 16,
        "channels": [24, 32],
        "spatial_strides": [2, 2],
        "decoder_channels": 32,
        "iters": 160,
        "batch": 2,
        "lr": 1.5e-3,
        "warmup_frac": 0.25,
    },
    "frame_ae": {
        "latent_channels": 16,
        "base_channels": 16,
        "iters": 160,
        "batch": 6,
        "lr": 1.5e-3,
    },
    "diffusion": {
        "hidden": 32,
        "blocks": 4,
        "emb_dim": 16,
        "iters": 320,
        "batch": 4,
        "lr": 2e-3,
        "sigma_data": "auto",
        "cond_mode": "3dmae",
    },
    "sampler": {
        "steps": 25,
        "s_churn": 2.5,
        "s_min": 0.75,
        "s_max": 68.0,
        "s_noise": 1.1,
        "sigma_min": 0.002,
        "sigma_max": 80.0,
        "rho": 7.0,
        "stochastic": False,
    },
    "forecast": {"members": 8, "t_lead": 20, "train_frames": 72, "streaming": False},
    "verify": {"rank_seed": 0, "bands": [0.0, 0.2, 0.5, 0.8, spectral.R_CORNER]},
    "ablate": {
        "conds": ["none", "2d", "3dmae"],
        "strategies": ["none", "se", "ffm", "vamfm"],
        "replicates": 3,
        "members": 4,
        "t_lead": 1,
    },
}


def _check_section(defaults, given, path):
    if not isinstance(given, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys under {path or '<root>'}: {sorted(unknown)}")
    merged = {}
    for key, dval in defaults.items():
        if key not in given:
            merged[key] = copy.deepcopy(dval)
            continue
        gval = given[key]
        here = f"{path}.{key}" if path else key
        if isinstance(dval, dict):
            merged[key] = _check_section(dval, gval, here)
        elif isinstance(dval, bool):
            if not isinstance(gval, bool):
                raise ConfigError(f"{here} must be a boolean")
            merged[key] = gval
        elif isinstance(dval, (int, float)) and not isinstance(dval, bool):
            if isinstance(gval, bool) or not isinstance(gval, (int, float)):
                # sigma_data accepts "auto" as well as numbers.
                if here == "diffusion.sigma_data" and gval == "auto":
                    merged[key] = gval
                    continue
                raise ConfigError(f"{here} must be a number")
            merged[key] = gval
        elif isinstance(dval, str):
            if not isinstance(gval, str):
                raise ConfigError(f"{here} must be a string")
            merged[key] = gval
        elif isinstance(dval, list):
            if not isinstance(gval, list):
                raise ConfigError(f"{here} must be a list")
            merged[key] = copy.deepcopy(gval)
        else:
            merged[key] = gval
    return merged


def load_config(path=None) -> dict:
    """Schema-checked config with defaults filled in; unknown keys rejected."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as fh:
            given = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _check_section(DEFAULT_CONFIG, given, "")


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_manifest(out_dir, cfg, seed, extra=None) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "versions": {"nimbus": __version__, "numpy": np.__version__},
        "wallclock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)


def _dataset_path(args):
    return os.path.join(args.out, "dataset.pyld")


def _load_bundle(cfg, args) -> pipeline.DatasetBundle:
    path = _dataset_path(args)
    if not os.path.exists(path):
        raise ConfigError(
            f"missing dataset at {path}; run `nimbus gen-data --out {args.out}` first"
        )
    batch = grid.read_fields(path)
    return pipeline.split_dataset(batch, cfg["forecast"]["train_frames"], cfg["mae"]["k"])


def _save_model(params, out_dir, name):
    from . import autodiff as ad

    path = os.path.join(out_dir, name)
    ad.save_params(params, path)
    return path


def _require_checkpoint(out_dir, name):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint: expected {path}")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg, args):
    d = cfg["data"]
    slopes = d["slopes"] if d["slopes"] else None
    adv = [tuple(a) for a in d["advection"]] if d["advection"] else None
    batch = grid.gen_synthetic(
        seed=d["seed"] if args.seed is None else args.seed,
        h=d["h"],
        w=d["w"],
        v=d["v"],
        t=d["t"],
        spectral_slopes=slopes,
        advection=adv,
        forcing=d["forcing"],
    )
    grid.write_fields(batch, _dataset_path(args))
    log.info("wrote dataset %s with shape %s", _dataset_path(args), batch.data.shape)


def cmd_train_vae(cfg, args):
    bundle = _load_bundle(cfg, args)
    strategy = Strategy(cfg["vae"]["regularizer"])
    vae = pipeline.train_vae(bundle, cfg["vae"], strategy, args.seed or 0)
    _save_model(vae.params, args.out, "vae.pypt")
    log.info("saved VAE checkpoint (strategy=%s)", strategy.value)


def cmd_train_mae(cfg, args):
    bundle = _load_bundle(cfg, args)
    mae = pipeline.train_mae(bundle, cfg["mae"], args.seed or 0)
    _save_model(mae.params, args.out, "mae.pypt")
    log.info("saved 3D-MAE checkpoint")


def _load_autoencoders(cfg, args, bundle, seed):
    """The VAE and the conditioning encoder, rebuilt from their checkpoints.

    Returns (vae, cond_mode, encoder); the encoder is None for cond_mode "none".
    """
    from . import autodiff as ad

    vae = pipeline.build_vae(bundle, cfg["vae"], seed)
    ad.assign_params(vae.params, ad.load_params(_require_checkpoint(args.out, "vae.pypt")))
    cond_mode = cfg["diffusion"]["cond_mode"]
    enc = None
    if cond_mode == "3dmae":
        enc = pipeline.build_mae(bundle, cfg["mae"], seed)
        ad.assign_params(enc.params, ad.load_params(_require_checkpoint(args.out, "mae.pypt")))
    elif cond_mode == "2d":
        enc = pipeline.build_frame_ae(bundle, cfg["frame_ae"], seed)
        ad.assign_params(enc.params, ad.load_params(_require_checkpoint(args.out, "frame_ae.pypt")))
    return vae, cond_mode, enc


def cmd_train_diffusion(cfg, args):
    bundle = _load_bundle(cfg, args)
    seed = args.seed or 0
    vae, cond_mode, enc = _load_autoencoders(cfg, args, bundle, seed)
    dcfg = dict(cfg["diffusion"])
    dcfg["k"] = cfg["mae"]["k"]
    net, edm_cfg = pipeline.train_denoiser(
        bundle, dcfg, cfg["sampler"], vae, cond_mode, enc, seed
    )
    _save_model(net.params, args.out, "denoiser.pypt")
    with open(os.path.join(args.out, "edm_config.json"), "w") as fh:
        json.dump({"sigma_data": edm_cfg.sigma_data}, fh)
    log.info("saved denoiser checkpoint (cond=%s)", cond_mode)


def _rebuild_models(cfg, args, seed):
    from . import autodiff as ad

    bundle = _load_bundle(cfg, args)
    vae, cond_mode, enc = _load_autoencoders(cfg, args, bundle, seed)
    net_cfg = edm.DenoiserConfig(
        latent_channels=cfg["vae"]["latent_channels"],
        hidden=cfg["diffusion"]["hidden"],
        blocks=cfg["diffusion"]["blocks"],
        t_frames=3 + cfg["mae"]["k"] // 2,
        emb_dim=cfg["diffusion"]["emb_dim"],
    )
    net = edm.Denoiser(net_cfg, np.random.default_rng(0))
    ad.assign_params(net.params, ad.load_params(_require_checkpoint(args.out, "denoiser.pypt")))
    with open(_require_checkpoint(args.out, "edm_config.json")) as fh:
        sigma_data = json.load(fh)["sigma_data"]
    s = cfg["sampler"]
    edm_cfg = edm.EdmConfig(
        sigma_data=sigma_data,
        sigma_min=s["sigma_min"],
        sigma_max=s["sigma_max"],
        rho=s["rho"],
        steps=s["steps"],
        churn=edm.ChurnConfig(s["s_churn"], s["s_min"], s["s_max"], s["s_noise"]),
    )
    return bundle, pipeline.build_models(
        vae, net, edm_cfg, bundle, cfg["mae"]["k"], cond_mode, enc
    )


def cmd_forecast(cfg, args):
    seed = args.seed or 0
    bundle, fmodels = _rebuild_models(cfg, args, seed)
    f = cfg["forecast"]
    ens = forecast.rollout(
        fmodels,
        bundle.init_window,
        members=f["members"],
        t_lead=f["t_lead"],
        base_seed=seed,
        stochastic=cfg["sampler"]["stochastic"],
        streaming=f["streaming"],
        workers=args.workers,
    )
    fc_dir = os.path.join(args.out, "forecast")
    forecast.write_forecast(ens, fc_dir, {"config_hash": config_hash(cfg)})
    log.info("wrote %d members x %d leads to %s", ens.members, ens.lead_times, fc_dir)


def cmd_evaluate(cfg, args):
    bundle = _load_bundle(cfg, args)
    fc_dir = os.path.join(args.out, "forecast")
    if not os.path.isdir(fc_dir):
        raise ConfigError(f"missing forecast directory {fc_dir}; run `nimbus forecast` first")
    ens = forecast.read_forecast(fc_dir)
    t_lead = ens.lead_times
    truth = bundle.truth[:t_lead]
    report = verify.evaluate_ensemble(
        ens.fields,
        truth,
        variables=[s.name for s in bundle.full.specs],
        lead_hours=[6 * (i + 1) for i in range(t_lead)],
        lat_weights=bundle.lat_w,
        rank_seed=cfg["verify"]["rank_seed"],
    )
    report.to_csv(os.path.join(args.out, "metrics.csv"))
    report.to_json(os.path.join(args.out, "metrics.json"))
    rmse = report.scores["rmse_mean"]
    svgplot.line_plot(
        {
            var: (report.lead_hours, list(rmse[i]))
            for i, var in enumerate(report.variables)
        },
        os.path.join(args.out, "rmse.svg"),
        title="ensemble-mean RMSE",
        xlabel="lead (h)",
        ylabel="rmse",
    )
    if report.rank_counts is not None:
        svgplot.bar_plot(
            [str(i) for i in range(len(report.rank_counts))],
            [int(c) for c in report.rank_counts],
            os.path.join(args.out, "rank_histogram.svg"),
            title="rank histogram",
            ylabel="count",
        )
    log.info("wrote metrics.csv / metrics.json")


def cmd_diagnose(cfg, args):
    seed = args.seed or 0
    bundle, fmodels = _rebuild_models(cfg, args, seed)
    k = cfg["mae"]["k"]
    vae = fmodels.vae
    z_all = pipeline.residual_latents(vae, bundle)
    z_bar_all = pipeline.conditioning_latents(
        fmodels.cond_mode,
        fmodels.mae if fmodels.cond_mode == "3dmae" else fmodels.frame_ae,
        bundle,
        k,
    )
    targets = np.arange(k, bundle.train.data.shape[0] - 1)
    n = min(64, len(targets))
    rng = np.random.default_rng(seed)
    gen = []
    for i in range(n):
        t = targets[i]
        z_bar = (
            z_bar_all[i][None]
            if z_bar_all is not None
            else np.zeros((1,) + z_all.shape[1:2] + (1 + k // 2,) + z_all.shape[-2:], np.float32)
        )
        denoise = edm.make_denoise_fn(fmodels.denoiser, z_bar, z_all[t - 1][None], fmodels.edm_config)
        gen.append(edm.sample_deterministic(denoise, (1,) + z_all.shape[1:], rng, fmodels.edm_config)[0])
    gen = np.stack(gen)
    enc = z_all[targets[:n]]
    resid_std = pipeline.standardized_residual_frames(bundle)
    reference = resid_std[targets[:n]]
    report = verify.diffusability_report(
        enc,
        gen,
        bands=tuple(cfg["verify"]["bands"]),
        decoder=vae.decode_array,
        reference=reference,
        weights=bundle.lat_w[:, None],
    )
    verify.report_tables_to_csv(report, os.path.join(args.out, "diffusability.csv"))
    bands = report["bands"]
    centers = [(bands[i] + bands[i + 1]) / 2 for i in range(len(bands) - 1)]
    svgplot.line_plot(
        {
            "encoder": (centers, list(report["encoder_band_energy"])),
            "generated": (centers, list(report["generated_band_energy"])),
        },
        os.path.join(args.out, "band_energy.svg"),
        title="latent spectral energy by band",
        xlabel="normalized radius",
        ylabel="energy fraction",
    )
    if "rmse_encoder" in report:
        svgplot.line_plot(
            {
                "encoder": (report["mask_radii"], report["rmse_encoder"]),
                "generated": (report["mask_radii"], report["rmse_generated"]),
            },
            os.path.join(args.out, "rmse_vs_mask.svg"),
            title="decoded RMSE vs latent mask radius",
            xlabel="mask radius",
            ylabel="rmse",
        )
    log.info("wrote diffusability diagnostics")


def cmd_ablate(cfg, args):
    bundle = _load_bundle(cfg, args)
    a = cfg["ablate"]
    seeds = [(args.seed or 0) + r for r in range(a["replicates"])]
    rows = pipeline.ablate(
        bundle,
        cfg,
        conds=a["conds"],
        strategies=a["strategies"],
        seeds=seeds,
        members=a["members"],
        t_lead=a["t_lead"],
        workers=args.workers,
    )
    path = os.path.join(args.out, "ablation.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["seed", "cond", "strategy", "rmse_first", "ssr_first", "crps_first"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in writer.fieldnames})
    log.info("wrote %s (%d cells)", path, len(rows))


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-vae": cmd_train_vae,
    "train-mae": cmd_train_mae,
    "train-diffusion": cmd_train_diffusion,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nimbus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default="out")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="threads for ensemble members (forecast, ablate); BLAS threads are divided among them",
        )
        p.add_argument("--dry-run", action="store_true")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("NIMBUS_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        cfg = load_config(args.config)
        if args.dry_run:
            log.info("config ok (hash %s); dry run, no side effects", config_hash(cfg))
            return 0
        _ensure_out(args)
        COMMANDS[args.command](cfg, args)
        write_manifest(args.out, cfg, args.seed or 0, {"command": args.command})
        return 0
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (DomainError, FormatError, RolloutError, FloatingPointError) as exc:
        log.error("numeric failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
