"""Command-line driver: data generation, training, forecasting, verification.

All subcommands take --config/--seed/--out/--workers/--dry-run, write a
manifest (config hash, seed, versions) into the output directory, and exit
with 0 on success, 2 on configuration errors, 3 on numeric failures.
NIMBUS_LOG controls log verbosity. --seed (default 0) seeds every random
draw a command makes; no config key does.

The --config file is a JSON object of sections (``data``, ``vae``, ``mae``,
...), each an object of keys; a key left out takes its default. SCHEMA gives
each section.key its default and its rule side by side, and the rules that
tie keys together follow in ``_check_together``. An unknown key or a value
that breaks a rule ends the command with exit 2 and a message naming the key.

``train-diffusion`` writes edm_config.json beside denoiser.pypt: the
sigma_data of the residual latents, the variable names, and the per-variable
mean and std of the training slice's states and residuals, the statistics
that every model was trained with. ``forecast`` and ``diagnose`` standardize
with those and fit nothing; an edm_config.json without them exits 3.

The ``sampler`` section holds ``edm.EdmConfig``'s fields by name, and every
command that samples (``forecast``, ``diagnose``, ``ablate``) calls
``edm.sample_stochastic``, which churns where ``sampler.s_churn`` > 0.

--workers counts parallel worker processes, this one and forked children
(``autodiff.Workers``). They run the ensemble members (``forecast``,
``ablate``), the training samples (``train-*``, ``ablate``), the latent
precompute (``train-diffusion``, ``diagnose``, ``ablate``) and the scoring
of each (lead, variable) slab (``evaluate``, ``ablate``). The BLAS
threads are divided among the workers while they run. The default is the
number of CPUs this process may run on, and no output depends on it. The
run manifest records the peak resident set size in MB of this process
(``self``) and of its largest worker process (``children``).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os
import resource
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import __version__, edm, forecast, grid, pipeline, spectral, svgplot, verify
from .errors import ConfigError, DomainError, FormatError, RolloutError
from .regularize import Strategy

log = logging.getLogger("nimbus")


class Rule(NamedTuple):
    """A value rule: ``ok(value)`` says whether a value passes; ``text`` says which values do."""

    ok: Callable[[object], bool]
    text: str


def integer(low=-math.inf, multiple=1) -> Rule:
    """An integer >= ``low`` that is a multiple of ``multiple``; a JSON boolean is not one."""

    def ok(x):
        return isinstance(x, int) and not isinstance(x, bool) and x >= low and x % multiple == 0

    text = "an integer" + ("" if low == -math.inf else f" >= {low}")
    return Rule(ok, text + (f" and a multiple of {multiple}" if multiple > 1 else ""))


def number(low=-math.inf, above=False) -> Rule:
    """A finite number >= ``low``, or > ``low`` if ``above``; a JSON boolean is not a number."""

    def ok(x):
        # Finite: a float holds it, so no NaN, no infinity and no integer too large to convert.
        finite = isinstance(x, (int, float)) and abs(x) <= sys.float_info.max
        return finite and not isinstance(x, bool) and (x > low if above else x >= low)

    bound = "" if low == -math.inf else f" {'>' if above else '>='} {low}"
    return Rule(ok, "a finite number" + bound)


def choice(options, hint="") -> Rule:
    """One of ``options``; ``hint`` follows them in the message."""
    return Rule(lambda x: x in options, f"one of {options}{hint}")


def either(*rules) -> Rule:
    """What any of ``rules`` passes."""
    return Rule(lambda x: any(r.ok(x) for r in rules), " or ".join(r.text for r in rules))


def listof(rule, size=None) -> Rule:
    """A list whose entries all pass ``rule``; of ``size`` entries if given."""

    def ok(x):
        return isinstance(x, list) and size in (None, len(x)) and all(map(rule.ok, x))

    return Rule(ok, f"a list{'' if size is None else f' of {size}'} of entries each {rule.text}")


COUNT = integer(1)  # a count or a size
NATURAL = integer(0)  # iterations and seeds may be 0
POSITIVE = number(0, above=True)
NON_NEGATIVE = number(0)
FINITE = number()
STRATEGY = choice(tuple(s.value for s in Strategy))
# Grid sizes: at least the generator's 8, and multiples of 4 for the VAE's
# two stride-2 stages.
GRID = integer(8, multiple=4)

# Each section.key: (default, rule). A value given in a config file must pass
# its rule; _check_together then checks the rules that tie keys together.
SCHEMA = {
    "data": {
        "h": (64, GRID),
        "w": (128, GRID),
        "v": (8, COUNT),
        "t": (96, COUNT),
        # Empty (the generator's defaults) or one entry per variable.
        "slopes": ([], listof(FINITE)),
        "advection": ([], listof(listof(integer(), size=2))),
        "forcing": (0.1, NON_NEGATIVE),
    },
    "vae": {
        "latent_channels": (16, COUNT),
        "base_channels": (16, COUNT),
        "beta": (1e-5, NON_NEGATIVE),
        "iters": (240, NATURAL),
        "batch": (4, COUNT),
        "lr": (1.5e-3, POSITIVE),
        "regularizer": ("vamfm", STRATEGY),
    },
    "mae": {
        # Even: the 3D-MAE's temporal stride 2 maps k + 1 frames to 1 + k/2 latents.
        "k": (4, integer(2, multiple=2)),
        "latent_channels": (16, COUNT),
        "channels": ([24, 32], listof(COUNT)),
        "spatial_strides": ([2, 2], listof(COUNT)),
        "decoder_channels": (32, COUNT),
        "iters": (160, NATURAL),
        "batch": (2, COUNT),
        "lr": (1.5e-3, POSITIVE),
    },
    "diffusion": {
        "hidden": (32, COUNT),
        "blocks": (4, COUNT),
        "emb_dim": (16, COUNT),
        "iters": (320, NATURAL),
        "batch": (4, COUNT),
        "lr": (2e-3, POSITIVE),
        # The 2D mode, the 3D-MAE with temporal extent 1, runs only in `ablate`:
        # mae.pypt does not record which mode trained it.
        "cond_mode": (
            "3dmae",
            choice(
                ("3dmae", "none"),
                "; the 2d mode (the 3D-MAE with no temporal mixing) runs only in "
                "`nimbus ablate` (ablate.conds)",
            ),
        ),
    },
    # sigma_max = 20: the cheapest cell of the (steps, sigma_max) skill sweep
    # in CHANGES.md whose fair CRPS, SSR and rank chi2 stay within seed noise
    # of 25 steps from 80. 12 steps (one denoiser call each): the fewest whose
    # worst analytic-oracle variance error stays within 0.106, what the
    # second-order sampler read at 18 steps. The third-order one reads .095 on
    # test_cli_default_schedule's 40 draws and .102 on the bench's 400, and
    # .173 at 11 steps; tests/sampler_sweep.py prints the table.
    # Each key is the edm.EdmConfig field of its name. EDM churn runs where
    # s_churn > 0, at the sigmas in [s_min, s_max]. Its default is 0 (no
    # churn): at 2.5 churn moved the 4-member, 3-lead fair CRPS .5740 ->
    # .5710 over seeds 1-3 (CHANGES.md), about the .0031 range of those seeds.
    "sampler": {
        "steps": (12, COUNT),
        "s_churn": (0.0, NON_NEGATIVE),
        "s_min": (0.75, FINITE),
        "s_max": (68.0, FINITE),
        "s_noise": (1.1, NON_NEGATIVE),
        "sigma_min": (0.002, POSITIVE),
        "sigma_max": (20.0, FINITE),
        "rho": (7.0, POSITIVE),
    },
    # data.t 96 - train_frames 72 - a (k + 1)-frame init window leaves 19 truth frames.
    "forecast": {
        "members": (8, COUNT),
        "t_lead": (19, COUNT),
        "train_frames": (72, COUNT),
    },
    "verify": {
        # Band edges ascend from 0 and reach the spectrum's corner radius; the
        # last may be Infinity (a JSON extension that json.load reads).
        "bands": (
            [0.0, 0.2, 0.5, 0.8, spectral.R_CORNER],
            listof(either(NON_NEGATIVE, choice((math.inf,)))),
        ),
    },
    "ablate": {
        "conds": (["none", "2d", "3dmae"], listof(choice(pipeline.COND_MODES))),
        "strategies": (["none", "se", "ffm", "vamfm"], listof(STRATEGY)),
        "replicates": (3, COUNT),
        "members": (4, COUNT),
        "t_lead": (1, COUNT),
    },
}
DEFAULT_CONFIG = {
    name: {key: default for key, (default, _) in keys.items()} for name, keys in SCHEMA.items()
}


def _object(given, known, where) -> dict:
    """``given`` if it is an object with no key outside ``known``, else a ConfigError."""
    if not isinstance(given, dict):
        raise ConfigError(f"section {where} must be an object")
    unknown = set(given) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys under {where}: {sorted(unknown)}")
    return given


def _check_config(given) -> dict:
    """``given`` merged over the defaults, each given value checked by its SCHEMA rule."""
    _object(given, SCHEMA, "<root>")
    cfg = {}
    for name, keys in SCHEMA.items():
        section = _object(given.get(name, {}), keys, name)
        cfg[name] = {}
        for key, (default, rule) in keys.items():
            value = section.get(key, default)
            if key in section and not rule.ok(value):
                raise ConfigError(f"{name}.{key} must be {rule.text}, got {value!r}")
            cfg[name][key] = copy.deepcopy(value)
    _check_together(cfg)
    return cfg


def _check_together(cfg) -> None:
    """The rules that tie keys, or one list's entries, together; run once every key has passed."""
    d, m, s, bands = cfg["data"], cfg["mae"], cfg["sampler"], cfg["verify"]["bands"]
    conds, strats = cfg["ablate"]["conds"], cfg["ablate"]["strategies"]
    # The 3D-MAE has one spatial stride per layer, two layers at least (the
    # leading two are temporal) and 4x downsampling in all: the denoiser stacks
    # its latents with the VAE's H/4 x W/4 ones.
    v, layers, strides = d["v"], len(m["channels"]), m["spatial_strides"]
    edges = len(bands) >= 2 and bands[0] == 0 and bands[-1] >= spectral.R_CORNER
    edges = edges and all(a < b for a, b in zip(bands, bands[1:]))
    for key, ok, want in (
        ("data.slopes", len(d["slopes"]) in (0, v), f"empty or hold data.v = {v} entries"),
        ("data.advection", len(d["advection"]) in (0, v), f"empty or hold data.v = {v} pairs"),
        ("mae.channels", layers >= 2, "a list of 2 entries at least"),
        ("mae.spatial_strides", len(strides) == layers, "as long as mae.channels"),
        ("mae.spatial_strides", math.prod(strides) == 4, "entries whose product is 4"),
        ("sampler.sigma_max", s["sigma_max"] > s["sigma_min"], f"> sigma_min = {s['sigma_min']!r}"),
        ("sampler.s_max", s["s_max"] >= s["s_min"], f">= s_min = {s['s_min']!r}"),
        ("verify.bands", edges, f"ascending from 0 to at least sqrt(2) = {spectral.R_CORNER!r}"),
        # An empty list runs no cell; a repeated entry scores its cells twice.
        ("ablate.conds", 0 < len(conds) == len(set(conds)), "non-empty with no entry repeated"),
        ("ablate.strategies", 0 < len(strats) == len(set(strats)), "non-empty with no entry repeated"),
    ):
        if not ok:
            section, name = key.split(".")
            raise ConfigError(f"{key} must be {want}, got {cfg[section][name]!r}")
    # The sigma schedule the sampler would run: positive and strictly decreasing.
    try:
        edm.EdmConfig(**s)
    except ConfigError as err:
        raise ConfigError(f"sampler.{err}") from None
    elements = d["t"] * d["v"] * d["h"] * d["w"]
    if elements > grid.MAX_ELEMENTS:
        raise ConfigError(
            f"data.t * data.v * data.h * data.w must be at most {grid.MAX_ELEMENTS}, the "
            f"elements a dataset file may hold, got {elements}"
        )
    pipeline.check_train_frames(cfg["forecast"]["train_frames"], m["k"])


def _check_dataset_frames(cfg) -> None:
    """gen-data's rule: the dataset it writes holds the split of the same config.

    The other commands leave it out: the dataset they read may come from
    another config, and split_dataset checks the frames it actually holds.
    """
    t = cfg["data"]["t"]
    need = pipeline.frames_needed(cfg["forecast"]["train_frames"], cfg["mae"]["k"])
    if t < need:
        raise ConfigError(
            f"data.t must be at least forecast.train_frames + mae.k + 2 = {need} frames "
            f"for the split, got {t}"
        )


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
    return _check_config(given)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_manifest(out_dir, cfg, seed, extra=None) -> None:
    """The run manifest; ``peak_rss_mb`` is this process's and its largest reaped child's."""

    def peak_mb(who):
        return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)  # ru_maxrss is in KiB

    manifest = {
        "config_hash": config_hash(cfg),
        "peak_rss_mb": {
            "self": peak_mb(resource.RUSAGE_SELF),
            "children": peak_mb(resource.RUSAGE_CHILDREN),
        },
        "seed": seed,
        "versions": {"nimbus": __version__, "numpy": np.__version__},
        "wallclock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    with grid.write_file(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _dataset_path(args):
    return os.path.join(args.out, "dataset.pyld")


def _read_dataset(args, keep=None) -> grid.FieldBatch:
    """The dataset in ``args.out``, or the frames of it that ``keep`` asks for (``grid.read_fields``)."""
    path = _dataset_path(args)
    missing = f"missing dataset at {path}; run `nimbus gen-data --out {args.out}` first"
    return grid.read_file(path, lambda p: grid.read_fields(p, keep), missing)


def _load_bundle(cfg, args) -> pipeline.DatasetBundle:
    batch = _read_dataset(args)
    return pipeline.split_dataset(batch, cfg["forecast"]["train_frames"], cfg["mae"]["k"])


def _save_model(params, out_dir, name):
    path = os.path.join(out_dir, name)
    ad.save_params(params, path)
    return path


def _read_checkpoint(path, read):
    """``read(path)`` under ``grid.read_file``'s rule, for a file that a train stage writes."""
    return grid.read_file(path, read, f"missing checkpoint: expected {path}")


def _load(model, out_dir, name):
    """``model`` with the parameters of checkpoint ``name``; a bad file is a FormatError naming it."""
    path = os.path.join(out_dir, name)
    _read_checkpoint(path, lambda p: ad.assign_params(model.params, ad.load_params(p)))
    return model


def _check_encoder_channels(cfg, conds, key):
    """Raise a ConfigError naming both keys unless mae.latent_channels is vae.latent_channels.

    Only a cond of ``conds`` other than "none" needs them equal: the denoiser
    stacks the encoder's latents with the VAE's.
    """
    got, want = cfg["mae"]["latent_channels"], cfg["vae"]["latent_channels"]
    for cond in conds:
        if cond != "none" and got != want:
            raise ConfigError(
                f"mae.latent_channels is {got} but vae.latent_channels is {want}; "
                f"{key} {cond!r} needs them equal"
            )


def _encoder(cfg, args, v, seed):
    """The conditioning encoder of ``v`` variables from its checkpoint; None for cond_mode "none"."""
    _check_encoder_channels(cfg, [cfg["diffusion"]["cond_mode"]], "diffusion.cond_mode")
    if cfg["diffusion"]["cond_mode"] == "none":
        return None
    return _load(pipeline.build_mae(v, cfg["mae"], seed), args.out, "mae.pypt")


# What edm_config.json holds beside sigma_data: the variable names, then the
# per-variable mean and std of the training slice's states and of its residuals.
STAT_KEYS = ("variables", "state_mean", "state_std", "resid_mean", "resid_std")


def _training_stats(fmodels) -> dict:
    """The STAT_KEYS entries of ``fmodels``' training statistics, one list entry per variable."""
    state, resid = fmodels.state_specs, fmodels.resid_specs
    columns = ([s.name for s in state], [s.mean for s in state], [s.std for s in state])
    columns += ([s.mean for s in resid], [s.std for s in resid])
    return dict(zip(STAT_KEYS, columns))


def _trained_with(out_dir, specs):
    """sigma_data, state specs and residual specs from edm_config.json.

    The specs are the dataset's ``specs``, whose names the file must list,
    with the mean and std of the training slice that ``train-diffusion``
    read. A file that breaks a rule is a FormatError naming it.
    """
    path = os.path.join(out_dir, "edm_config.json")
    saved = _read_checkpoint(path, grid.read_json)
    saved = saved if isinstance(saved, dict) else {}
    sigma = saved.get("sigma_data")
    if not POSITIVE.ok(sigma):
        raise FormatError(f"{path}: sigma_data must be {POSITIVE.text}, got {sigma!r}")
    missing = [key for key in STAT_KEYS if key not in saved]
    if missing:
        raise FormatError(
            f"{path}: is missing training statistics ({', '.join(missing)}); "
            "re-run `nimbus train-diffusion` to write them"
        )
    names, variables = [s.name for s in specs], saved["variables"]
    if not isinstance(variables, list) or len(variables) != len(names):
        raise FormatError(
            f"{path}: variables must list the dataset's {len(names)} variable names, "
            f"got {variables!r}"
        )
    for got, want in zip(variables, names):
        if got != want:
            raise FormatError(
                f"{path}: holds statistics of variable {got!r} where the dataset has {want!r}"
            )
    for key in STAT_KEYS[1:]:
        rule = listof(POSITIVE if key.endswith("std") else FINITE, len(names))
        if not rule.ok(saved[key]):
            raise FormatError(f"{path}: {key} must be {rule.text}, got {saved[key]!r}")

    def trained(kind):
        stats = zip(specs, saved[f"{kind}_mean"], saved[f"{kind}_std"])
        return tuple(dataclasses.replace(s, mean=float(m), std=float(sd)) for s, m, sd in stats)

    return float(sigma), trained("state"), trained("resid")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg, args):
    d = cfg["data"]
    slopes = d["slopes"] if d["slopes"] else None
    adv = [tuple(a) for a in d["advection"]] if d["advection"] else None
    batch = grid.gen_synthetic(
        seed=args.seed,
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


# The train stages hand the bundle on without keeping a reference to it, so
# that the pipeline's trainers can free the raw dataset before their fit.


def cmd_train_vae(cfg, args):
    strategy = Strategy(cfg["vae"]["regularizer"])
    vae = pipeline.train_vae(_load_bundle(cfg, args), cfg["vae"], strategy, args.seed, args.workers)
    _save_model(vae.params, args.out, "vae.pypt")
    log.info("saved VAE checkpoint (strategy=%s)", strategy.value)


def cmd_train_mae(cfg, args):
    mae = pipeline.train_mae(_load_bundle(cfg, args), cfg["mae"], args.seed, args.workers)
    _save_model(mae.params, args.out, "mae.pypt")
    log.info("saved 3D-MAE checkpoint")


def cmd_train_diffusion(cfg, args):
    held = [_load_bundle(cfg, args)]  # popped into the call below: no reference stays here
    v = held[0].train.shape[1]
    vae = _load(pipeline.build_vae(v, cfg["vae"], args.seed), args.out, "vae.pypt")
    encoder = _encoder(cfg, args, v, args.seed)
    fmodels = pipeline.train_denoiser(held.pop(), cfg, vae, encoder, args.seed, args.workers)
    _save_model(fmodels.denoiser.params, args.out, "denoiser.pypt")
    with grid.write_file(os.path.join(args.out, "edm_config.json")) as fh:
        json.dump({"sigma_data": fmodels.edm_config.sigma_data, **_training_stats(fmodels)}, fh)
    log.info("saved denoiser checkpoint (cond=%s)", cfg["diffusion"]["cond_mode"])


def _trained_models(cfg, args, batch, seed) -> forecast.ForecastModels:
    """The trained models of ``batch``'s variables, with the statistics they were trained with.

    Nothing is fitted: the statistics come from edm_config.json.
    """
    v = batch.shape[1]
    vae = _load(pipeline.build_vae(v, cfg["vae"], seed), args.out, "vae.pypt")
    encoder = _encoder(cfg, args, v, seed)
    net = _load(pipeline.build_denoiser(cfg, seed), args.out, "denoiser.pypt")
    sigma_data, state_specs, resid_specs = _trained_with(args.out, batch.specs)
    edm_cfg = edm.EdmConfig(sigma_data=sigma_data, **cfg["sampler"])
    return forecast.ForecastModels(
        vae, net, edm_cfg, state_specs, resid_specs, cfg["mae"]["k"], encoder
    )


class ForecastStart(NamedTuple):
    """What a forecast starts from: the dataset's k+1 init frames.

    A named field, not the bare batch, because the benchmark's forecast check
    (``perfbench/stage.py``) reads ``.init_window`` from ``_rebuild_models``.
    """

    init_window: grid.FieldBatch


def _rebuild_models(cfg, args, seed):
    """The forecast's start and the trained models: all that ``forecast`` reads.

    Every frame of the dataset is read and checked, but only the k+1 init
    frames are held. The frame count is checked from the header, before
    any frame is read.
    """
    train_frames, k = cfg["forecast"]["train_frames"], cfg["mae"]["k"]
    window = _read_dataset(args, lambda t: pipeline.init_frames(t, train_frames, k))
    return ForecastStart(window), _trained_models(cfg, args, window, seed)


def cmd_forecast(cfg, args):
    start, fmodels = _rebuild_models(cfg, args, args.seed)
    f = cfg["forecast"]
    ens = forecast.rollout(
        fmodels,
        start.init_window,
        members=f["members"],
        t_lead=f["t_lead"],
        base_seed=args.seed,
        workers=args.workers,
    )
    fc_dir = os.path.join(args.out, "forecast")
    calls = edm.calls_per_sample(fmodels.edm_config)
    forecast.write_forecast(
        ens, fc_dir, {"config_hash": config_hash(cfg), "denoiser_calls_per_member_lead": calls}
    )
    log.info("wrote %d members x %d leads to %s", ens.members, ens.lead_times, fc_dir)


def _check_leads(bundle, t_lead, section):
    """Scoring ``t_lead`` leads needs as many truth frames; else a ConfigError naming ``section``."""
    if t_lead > bundle.truth.shape[0]:
        raise ConfigError(
            f"{section} has {t_lead} leads but the dataset holds only {bundle.truth.shape[0]} "
            f"truth frames after the init window; lower {section}.t_lead"
        )


def cmd_evaluate(cfg, args):
    bundle = _load_bundle(cfg, args)
    fc_dir = os.path.join(args.out, "forecast")
    if not os.path.isdir(fc_dir):
        raise ConfigError(f"missing forecast directory {fc_dir}; run `nimbus forecast` first")
    ens = forecast.read_forecast(fc_dir)
    what = forecast.grid_mismatch(ens, bundle.full)
    if what:
        raise FormatError(
            f"{os.path.join(fc_dir, 'member_000.pyld')}: {what} differ from the dataset's "
            f"({_dataset_path(args)}); the forecast was made on another grid"
        )
    _check_leads(bundle, ens.lead_times, "forecast")
    report = pipeline.score_ensemble(bundle, ens.fields, args.workers)
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
    svgplot.bar_plot(
        [str(i) for i in range(len(report.rank_counts))],
        [int(c) for c in report.rank_counts],
        os.path.join(args.out, "rank_histogram.svg"),
        title="rank histogram",
        ylabel="count",
    )
    log.info("wrote metrics.csv / metrics.json")


def cmd_diagnose(cfg, args):
    bundle = _load_bundle(cfg, args)
    fmodels = _trained_models(cfg, args, bundle.full, args.seed)
    k = cfg["mae"]["k"]
    vae = fmodels.vae
    resid_std = grid.standardized_residuals(bundle.train, fmodels.resid_specs)
    z_all = pipeline.residual_latents(vae, resid_std, args.workers)
    states_std = grid.standardize_array(bundle.train, fmodels.state_specs)
    z_bar_all = pipeline.conditioning_latents(fmodels.encoder, states_std, z_all, k, args.workers)
    targets = np.arange(k, bundle.train.shape[0] - 1)
    n = min(64, len(targets))
    rng = np.random.default_rng(args.seed)
    gen = []
    for i in range(n):
        t = targets[i]
        denoise = edm.make_denoise_fn(
            fmodels.denoiser, z_bar_all[i : i + 1], z_all[t - 1][None], fmodels.edm_config
        )
        gen.append(edm.sample_stochastic(denoise, (1,) + z_all.shape[1:], rng, fmodels.edm_config)[0])
    gen = np.stack(gen)
    enc = z_all[targets[:n]]
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
    """ablation.csv: one row per (seed, cond, strategy, variable, lead_hours, metric).

    Each cell's rows are the metrics.csv rows of ``nimbus evaluate`` for its
    ensemble, in the dataset's raw units: comparing variables needs their std.
    """
    bundle = _load_bundle(cfg, args)
    a = cfg["ablate"]
    _check_leads(bundle, a["t_lead"], "ablate")
    _check_encoder_channels(cfg, a["conds"], "ablate.conds")
    seeds = [args.seed + r for r in range(a["replicates"])]
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
    with grid.write_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "cond", "strategy", "variable", "lead_hours", "metric", "value"])
        writer.writerows((*row[:-1], f"{row[-1]:.8g}") for row in rows)
    log.info("wrote %s (%d rows)", path, len(rows))


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


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nimbus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default="out")
        p.add_argument(
            "--workers",
            type=int,
            default=_cpu_count(),
            help="parallel worker processes for ensemble members, training samples, the "
            "latent precompute and scoring (evaluate, ablate); BLAS threads are divided "
            "among them "
            "(default: the CPUs this process may use; outputs do not depend on it)",
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
        if args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        cfg = load_config(args.config)
        if args.command == "gen-data":
            _check_dataset_frames(cfg)
        if args.dry_run:
            log.info("config ok (hash %s); dry run, no side effects", config_hash(cfg))
            return 0
        grid.make_dir(args.out)
        COMMANDS[args.command](cfg, args)
        write_manifest(args.out, cfg, args.seed, {"command": args.command})
        return 0
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (DomainError, FormatError, RolloutError, FloatingPointError) as exc:
        log.error("numeric failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
