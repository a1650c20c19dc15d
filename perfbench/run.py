"""Benchmark of record for nimbus: ensemble forecast, training and scoring.

Run from the repository root:

    python3 perfbench/run.py --workload forecast --seed 1 --seconds 20 --trace 0

Workloads (one caller, closed loop; each round waits for the last):
  forecast  ``nimbus forecast`` from checkpoints this commit wrote beforehand
  train     ``nimbus gen-data``, ``train-vae``, ``train-mae``, ``train-diffusion``
  score     the benchmark writes truth and members, then ``nimbus evaluate``

Every timed stage runs in a fresh process (``stage.py``), as a user runs a
CLI stage, and its clock starts after imports. Rounds repeat until
``--seconds`` of measuring have passed; each metric is the median over
rounds. ``--trace 1`` alternates untraced and traced rounds of the chosen
workload, adds one traced round of each other workload, and reports the
per-layer metrics and the tracing overhead instead. The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
STAGE_TIMEOUT_S = 150

# Default config except for iteration, member and lead counts.
# Batch sizes are the defaults, pinned here because samples/s counts them.
TRAIN_CONFIG = {
    "vae": {"iters": 8, "batch": 4},
    "mae": {"iters": 3, "batch": 2},
    "diffusion": {"iters": 8, "batch": 4},
}
FORECAST_CONFIG = {"forecast": {"members": 2, "t_lead": 2}}
SCORE_INPUTS = {"sigma": 0.5, "members": 8, "t": 96, "t_truth": 19, "v": 8, "h": 64, "w": 128}
ORACLE_SAMPLES = 20000

# The program runs in the environment a user gets: these are never passed on.
BLAS_AND_ALLOCATOR_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GLIBC_TUNABLES",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in BLAS_AND_ALLOCATOR_VARS and not k.startswith("MALLOC_")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": "library default (no thread variable set)",
        "dropped_env": sorted(
            k for k in os.environ if k in BLAS_AND_ALLOCATOR_VARS or k.startswith("MALLOC_")
        ),
    }


class Runner:
    """Starts stage processes one at a time and waits for each to end."""

    def __init__(self):
        self.logs = OUT / "logs"
        self.specs = OUT / "specs"
        for d in (self.logs, self.specs):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        self.count = 0

    def stage(self, action, trace=False, **spec):
        """Run one stage process; its result dict, or None if it failed."""
        self.count += 1
        name = f"{self.count:03d}-{action}-{spec.get('argv', [''])[0]}".rstrip("-")
        result = self.specs / f"{name}.result.json"
        spec_path = self.specs / f"{name}.json"
        spec_path.write_text(json.dumps({**spec, "action": action, "trace": trace, "result": str(result)}))
        with open(self.logs / f"{name}.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "stage.py"), str(spec_path)],
                    cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                    timeout=STAGE_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                print(f"stage {name} timed out", file=sys.stderr)
                return None
        if proc.returncode != 0 or not result.exists():
            print(f"stage {name} failed (exit {proc.returncode}), see {self.logs / name}.log", file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def cli(self, *argv, trace=False):
        return self.stage("cli", trace=trace, argv=[str(a) for a in argv])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_config(work: Path, cfg: dict) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# Workloads. Each has prepare (untimed), a round (timed), and a check.
# A round returns its measured operations: attempted, failed, stage walls,
# set-up samples, units of work, peak RSS and trace records.
# ---------------------------------------------------------------------------


def _round(results, work, wall_of, setup_of, traced):
    failed = sum(r is None for r in results)
    ok = failed == 0
    return {
        "attempted": len(results),
        "failed": failed,
        "ok": ok,
        "traced": traced,
        "work": work,
        "wall_s": wall_of(results) if ok else None,
        "setup_s": setup_of(results) if ok else [],
        "peak_rss_mb": max((r["peak_rss_mb"] for r in results if r), default=None),
        "trace": [r["trace"] for r in results if r and r["trace"]],
    }


class Forecast:
    name = "forecast"
    unit = "member-leads"

    def __init__(self, runner, seed):
        self.run, self.seed = runner, seed
        self.members = FORECAST_CONFIG["forecast"]["members"]
        self.leads = FORECAST_CONFIG["forecast"]["t_lead"]

    def checkpoints(self) -> Path:
        """Checkpoints written by this commit's own training stages, built once."""
        digest = hashlib.sha256(json.dumps(TRAIN_CONFIG, sort_keys=True).encode())
        for path in sorted((SRC / "nimbus").glob("*.py")):
            digest.update(path.read_bytes())
        cache = OUT / "checkpoints" / digest.hexdigest()[:16]
        if (cache / "done").exists():
            return cache
        build = fresh_dir(OUT / "work" / "build")
        cfg = write_config(build, TRAIN_CONFIG)
        for stage in ("gen-data", "train-vae", "train-mae", "train-diffusion"):
            if self.run.cli(stage, "--config", cfg, "--out", build, "--seed", 0) is None:
                raise SystemExit(f"building forecast checkpoints failed at {stage}")
        fresh_dir(cache)
        for f in ("vae.pypt", "mae.pypt", "denoiser.pypt", "edm_config.json"):
            shutil.copy(build / f, cache / f)
        (cache / "done").write_text("")
        return cache

    def prepare(self):
        ckpt = self.checkpoints()
        self.work = fresh_dir(OUT / "work" / "forecast")
        self.cfg = write_config(self.work, FORECAST_CONFIG)
        if self.run.cli("gen-data", "--config", self.cfg, "--out", self.work, "--seed", self.seed) is None:
            raise SystemExit("forecast input dataset could not be written")
        for f in ckpt.iterdir():
            if f.name != "done":
                shutil.copy(f, self.work / f.name)

    def round(self, traced):
        r = self.run.cli(
            "forecast", "--config", self.cfg, "--out", self.work,
            "--workers", nproc(), "--seed", self.seed, trace=traced,
        )
        return _round(
            [r], self.members * self.leads,
            lambda rs: rs[0]["wall_s"], lambda rs: [rs[0]["setup_s"]], traced,
        )

    def check(self):
        """Returns (problems, extra set-up samples)."""
        problems = []
        fc = self.work / "forecast"
        fields = [ref.read_pyld(fc / f"member_{m:03d}.pyld")[0] for m in range(self.members)]
        for m, f in enumerate(fields):
            if f.shape != (self.leads, 8, 64, 128):
                problems.append(f"member {m} has shape {f.shape}")
            if not np.all(np.isfinite(f)):
                problems.append(f"member {m} has non-finite values")
        for i in range(self.members):
            for j in range(i + 1, self.members):
                if np.array_equal(fields[i], fields[j]):
                    problems.append(f"members {i} and {j} are identical")
        alone_path = self.work / "member0_alone.npy"
        res = self.run.stage(
            "check_forecast", out=str(self.work), seed=self.seed, config=str(self.cfg),
            t_lead=self.leads, member_path=str(alone_path), oracle_samples=ORACLE_SAMPLES,
        )
        if res is None:
            return problems + ["forecast check stage failed"], []
        if not np.array_equal(np.load(alone_path), fields[0]):
            problems.append("member 0 recomputed alone differs from the ensemble's member 0")
        o = res["detail"]["oracle"]
        n, mu, cov = o["n"], np.array(o["mu"]), np.array(o["cov"])
        # Five standard errors of sampling plus what 25 Heun steps cost even
        # when exact: the start N(0, sigma_max^2) ignores mu, which shifts the
        # mean by mu/sigma_max standard deviations, and the discretised ODE
        # inflates the variance by 4-7% for cov in [0.05, 4]; allow 10%.
        mean_tol = 5 * np.sqrt(cov / n) + (np.abs(mu) / o["sigma_max"] + 0.01) * np.sqrt(cov)
        if np.any(np.abs(np.array(o["mean"]) - mu) > mean_tol):
            problems.append(f"Heun sampler mean {o['mean']} is off the oracle mean {o['mu']}")
        if np.any(np.abs(np.array(o["var"]) / cov - 1) > 5 * np.sqrt(2.0 / n) + 0.10):
            problems.append(f"Heun sampler variance {o['var']} is off the oracle {o['cov']}")
        return problems, [res["setup_s"]]


class Train:
    name = "train"
    unit = "samples"
    STAGES = ("train-vae", "train-mae", "train-diffusion")

    def __init__(self, runner, seed):
        self.run, self.seed = runner, seed
        self.samples = sum(c["iters"] * c["batch"] for c in TRAIN_CONFIG.values())

    def prepare(self):
        """Two more set-up samples, taken the same way as the rounds take theirs."""
        self.work = fresh_dir(OUT / "work" / "train")
        self.cfg = write_config(self.work, TRAIN_CONFIG)
        self.setup_samples = []
        for _ in range(2):
            r = self.run.cli("gen-data", "--config", self.cfg, "--out", self.work, "--seed", self.seed)
            if r is None:
                raise SystemExit("train input dataset could not be written")
            self.setup_samples.append(r["wall_s"])

    def round(self, traced):
        results = []
        for stage in ("gen-data",) + self.STAGES:
            ok = all(r is not None for r in results)
            results.append(
                self.run.cli(stage, "--config", self.cfg, "--out", self.work, "--seed", self.seed, trace=traced)
                if ok else None
            )
        return _round(
            results, self.samples,
            lambda rs: sum(r["wall_s"] for r in rs[1:]), lambda rs: [rs[0]["wall_s"]], traced,
        )

    def check(self):
        res = self.run.stage("check_train", out=str(self.work), seed=self.seed, config=str(self.cfg))
        if res is None:
            return ["train check stage failed"], []
        d = res["detail"]
        problems = [f"{m} checkpoint has non-finite values" for m, ok in d["finite"].items() if not ok]
        for m, before in d["loss_init"].items():
            after = d["loss_trained"][m]
            if not after < before:
                problems.append(f"held-out {m} loss did not fall: {before:.4g} -> {after:.4g}")
        return problems, self.setup_samples


class Score:
    name = "score"
    unit = "member-leads"

    def __init__(self, runner, seed):
        self.run, self.seed = runner, seed
        self.inputs = {**SCORE_INPUTS, "seed": seed}

    def prepare(self):
        self.work = fresh_dir(OUT / "work" / "score")

    def round(self, traced):
        setup = self.run.stage("score_setup", trace=traced, out=str(self.work), inputs=self.inputs)
        evaluate = self.run.cli("evaluate", "--out", self.work, trace=traced) if setup else None
        return _round(
            [setup, evaluate], self.inputs["members"] * self.inputs["t_truth"],
            lambda rs: rs[1]["wall_s"], lambda rs: [rs[0]["wall_s"]], traced,
        )

    def check(self):
        problems = []
        data, lat, _, _ = ref.read_pyld(self.work / "dataset.pyld")
        m, t_truth = self.inputs["members"], self.inputs["t_truth"]
        truth = data[-t_truth:]
        ens = np.stack([ref.read_pyld(self.work / "forecast" / f"member_{i:03d}.pyld")[0] for i in range(m)])
        doc = json.loads((self.work / "metrics.json").read_text())
        w = ref.cos_lat(lat)
        # (V, T) tables, as metrics.json lays them out.
        f = ens.transpose(0, 2, 1, 3, 4)
        y = truth.transpose(1, 0, 2, 3)
        for name, direct in (("rmse_mean", ref.rmse_direct), ("crps_fair", ref.crps_fair_direct)):
            err = ref.relative_error(doc["scores"][name], direct(f, y, w))
            if err > 1e-6:
                problems.append(f"{name} differs from the direct formula by {err:.3g} (relative)")
        sigma = self.inputs["sigma"]
        ssr = float(np.mean(doc["scores"]["ssr"]))
        crps = float(np.mean(doc["scores"]["crps_fair"]))
        # Over ~1.2M independent points both means sit within 0.5% of their
        # expectation; 2% leaves room without hiding a wrong formula.
        if abs(ssr - 1.0) > 0.02:
            problems.append(f"mean SSR {ssr:.4f} is not ~1 for an exchangeable ensemble")
        if abs(crps / ref.expected_crps_fair(sigma) - 1.0) > 0.02:
            problems.append(f"mean fair CRPS {crps:.5f} is not ~sigma/sqrt(pi) = {ref.expected_crps_fair(sigma):.5f}")
        if sum(doc["rank_counts"]) != truth.size:
            problems.append(f"rank histogram counts {sum(doc['rank_counts'])} != {truth.size} points")
        return problems, []


WORKLOADS = {"forecast": Forecast, "train": Train, "score": Score}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(rounds, extra_setup):
    good = [r for r in rounds if r["ok"] and not r["traced"]]
    return {
        "throughput_per_s": (statistics.median(r["work"] / r["wall_s"] for r in good), "1/s"),
        "setup_s": (statistics.median([s for r in good for s in r["setup_s"]] + extra_setup), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in good), "MB"),
    }


def merge_traces(rounds):
    spans, sums = {}, {}
    for r in rounds:
        if not (r["ok"] and r["traced"]):
            continue
        for t in r["trace"]:
            for k, (calls, secs) in t["spans"].items():
                c0, s0 = spans.get(k, (0, 0.0))
                spans[k] = (c0 + calls, s0 + secs)
            for k, v in t["sums"].items():
                sums[k] = sums.get(k, 0.0) + v
    return spans, sums


def per_layer(traced_rounds, overhead):
    """Per-layer metrics from the traced rounds of every workload."""
    out = {}

    def calls(spans, k):
        return spans.get(k, (0, 0.0))[0]

    def secs(spans, k):
        return spans.get(k, (0, 0.0))[1]

    def ms(spans, k):
        return 1000.0 * secs(spans, k) / calls(spans, k)

    f, fs = merge_traces(traced_rounds["forecast"])
    ml = fs["member_leads"]
    out.update({
        "forecast.step_ms": (ms(f, "forecast.step"), "ms"),
        "edm.sample_ms": (ms(f, "edm.sample"), "ms"),
        "edm.denoise_ms": (ms(f, "edm.denoise"), "ms"),
        "edm.nfe_per_member_lead": (calls(f, "edm.denoise") / ml, "count"),
        "causal3d.encode_ms": (ms(f, "causal3d.encode"), "ms"),
        "models.vae_decode_ms": (ms(f, "models.vae_decode"), "ms"),
        "models.vae_encode_ms": (ms(f, "models.vae_encode"), "ms"),
        "autodiff.conv3d_fwd_ms": (ms(f, "autodiff.conv3d_fwd"), "ms"),
        "autodiff.conv2d_fwd_ms": (ms(f, "autodiff.conv2d_fwd"), "ms"),
        "autodiff.conv_gflop_per_member_lead": (fs["conv_flop"] / 1e9 / ml, "GFLOP_computed"),
        "autodiff.im2col_mb_per_member_lead": (fs["im2col_bytes"] / 1e6 / ml, "MB_computed"),
        "forecast.minor_faults_per_member_lead": (fs["minor_faults"] / ml, "count"),
        "forecast.worker_overlap": (secs(f, "forecast.member") / secs(f, "forecast.rollout"), "ratio"),
        "forecast.write_ms": (ms(f, "forecast.write"), "ms"),
        "cli.rebuild_models_ms": (ms(f, "cli.rebuild_models"), "ms"),
    })

    t, ts = merge_traces(traced_rounds["train"])
    n_rounds = sum(r["ok"] and r["traced"] for r in traced_rounds["train"])
    vae_iters = calls(t, "models.vae_loss")
    out.update({
        "models.vae_iter_ms": (1000.0 * secs(t, "train.vae") / vae_iters, "ms"),
        "models.mae_iter_ms": (1000.0 * secs(t, "train.mae") / calls(t, "models.mae_loss"), "ms"),
        "edm.denoiser_iter_ms": (
            1000.0 * (secs(t, "train.denoiser") - secs(t, "pipeline.latent_precompute"))
            / calls(t, "edm.diffusion_loss"),
            "ms",
        ),
        "autodiff.backward_ms.vae": (ms(t, "autodiff.backward.vae"), "ms"),
        "autodiff.backward_ms.mae": (ms(t, "autodiff.backward.mae"), "ms"),
        "autodiff.backward_ms.denoiser": (ms(t, "autodiff.backward.denoiser"), "ms"),
        "autodiff.conv3d_bwd_ms": (ms(t, "autodiff.conv3d_bwd"), "ms"),
        "autodiff.conv2d_bwd_ms": (ms(t, "autodiff.conv2d_bwd"), "ms"),
        "autodiff.adamw_ms": (ms(t, "autodiff.adamw"), "ms"),
        # These two are per VAE iteration: most calls take the gamma = 1 shortcut.
        "models.vamfm_targets_ms": (1000.0 * secs(t, "models.build_targets") / vae_iters, "ms"),
        "autodiff.lowpass2d_ms": (
            1000.0 * (secs(t, "autodiff.lowpass2d_fwd") + secs(t, "autodiff.lowpass2d_bwd")) / vae_iters,
            "ms",
        ),
        "pipeline.latent_precompute_s": (
            secs(t, "pipeline.latent_precompute") / calls(t, "train.denoiser"), "s"
        ),
        "pipeline.vae_iters_run_ratio": (vae_iters / (n_rounds * TRAIN_CONFIG["vae"]["iters"]), "ratio"),
        "cli.checkpoint_write_ms": (ms(t, "cli.checkpoint_write"), "ms"),
        "grid.gen_synthetic_s": (secs(t, "grid.gen_synthetic") / calls(t, "grid.gen_synthetic"), "s"),
    })

    s, ss = merge_traces(traced_rounds["score"])
    out.update({
        "grid.read_fields_mb_per_s": (ss["grid.read_fields.bytes"] / 1e6 / secs(s, "grid.read_fields"), "MB/s"),
        "verify.evaluate_ensemble_s": (
            secs(s, "verify.evaluate_ensemble") / calls(s, "verify.evaluate_ensemble"), "s"
        ),
        "verify.crps_ms": (ms(s, "verify.crps"), "ms"),
        "verify.rank_histogram_ms": (ms(s, "verify.rank_histogram"), "ms"),
        "verify.report_write_ms": (
            1000.0 * secs(s, "verify.report_write") / calls(s, "verify.evaluate_ensemble"), "ms"
        ),
        "grid.write_fields_mb_per_s": (ss["grid.write_fields.bytes"] / 1e6 / secs(s, "grid.write_fields"), "MB/s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------


def measure(workload, seconds, trace):
    """Whole rounds until ``seconds`` have passed; alternate when tracing."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(workload.round(traced))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(rounds) >= 2):
            return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "nimbus" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'nimbus'} is missing", file=sys.stderr)
        return 2

    env = environment()
    runner = Runner()
    main_wl = WORKLOADS[args.workload](runner, args.seed)
    main_wl.prepare()
    rounds = {main_wl.name: measure(main_wl, args.seconds, bool(args.trace))}
    problems, extra_setup = main_wl.check()
    if args.trace:
        for name, cls in WORKLOADS.items():
            if name == main_wl.name:
                continue
            wl = cls(runner, args.seed)
            wl.prepare()
            rounds[name] = [wl.round(True)]
            problems += wl.check()[0]

    ours = rounds[main_wl.name]
    attempted = sum(r["attempted"] for rs in rounds.values() for r in rs)
    failed = sum(r["failed"] for rs in rounds.values() for r in rs)
    if args.trace:
        walls = {tr: [r["wall_s"] for r in ours if r["ok"] and r["traced"] == tr] for tr in (False, True)}
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics = per_layer(rounds, overhead)
    else:
        metrics = end_to_end(ours, extra_setup)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "rounds": rounds, "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env)}")
    for r in ours:
        if r["ok"]:
            print(
                f"round{' (traced)' if r['traced'] else ''}: {r['work']} {main_wl.unit} "
                f"in {r['wall_s']:.3f} s, set-up {[round(s, 4) for s in r['setup_s']]} s, "
                f"peak RSS {r['peak_rss_mb']:.0f} MB"
            )
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
