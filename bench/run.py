"""Benchmark of the rarhmm pipeline: simulate, fit, then evaluate forecasts
(and on distill, roll out the distilled policy).

Run from the repository root:

    python3 bench/run.py --workload identify --seed 0 --seconds 30 --trace 0

The command generates the workload's inputs from --seed, sets them up several
times (save/load round trip included) and reports the median set-up time, then
repeats the pipeline on them until --seconds have passed and reports the
median of each stage time. Times are scaled to a reference machine speed
(clock.py). With --trace 1 it alternates untraced and traced passes and
reports the per-layer breakdown of the traced ones instead. Outputs are
checked on every pass. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the run's provenance and raw samples. The exit code is 0 only when
every check passed and no operation failed. DESIGN.md explains the workloads
and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
REPLAY_REPEATS = 5
WORKLOADS = ("identify", "hmm", "distill")

END_TO_END_UNITS = {
    "setup_s": "s", "fit_s": "s", "eval_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "loglik_per_step": "nats",
}
PER_LAYER_UNITS = {
    "learning.fit_em.ms": "ms",
    "learning.mstep_transitions.ms": "ms",
    "learning.mstep_transitions.calls": "count",
    "learning.mstep_transitions.kept_frac": "1",
    "transition.weighted_nll_and_grad.ms": "ms",
    "model.log_local_evidence.self_ms": "ms",
    "model.log_local_evidence.calls": "count",
    "transition.transition_matrices.self_ms": "ms",
    "transition.transition_matrices.calls": "count",
    "inference.forward_backward.self_ms": "ms",
    "learning.initialize.ms": "ms",
    "learning.mstep_initial.ms": "ms",
    "learning.mstep_dynamics.ms": "ms",
    "learning.mstep_controller.ms": "ms",
    "learning.em.iters": "count",
    "learning.em.iter_ms": "ms",
    "learning.empty_regime_events": "count",
    "learning.restarts_failed": "count",
    "evaluation.filter.self_ms": "ms",
    "evaluation.forecast.self_ms": "ms",
    "policy.rollout.step_us": "us",
    "policy.act.us": "us",
    "envs.step_env.us": "us",
    "policy.belief.self_us": "us",
    "evaluation.nmse_h1": "1",
    "evaluation.nmse_h10": "1",
    "evaluation.nmse_h25": "1",
    "policy.rollout.success_rate": "1",
    "policy.rollout.upright_err_rad": "rad",
    "envs.simulate.us_per_step": "us",
    "envs.load_dataset.ms": "ms",
    "trace.overhead_frac": "1",
}
ROLLOUT_SPANS = ("policy.rollout", "policy.act", "envs.observe", "envs.step_env")
# spans on the set-up path; the pipeline's expected spans are the others
SETUP_SPANS = ("envs.simulate", "envs.load_dataset")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    return p.parse_args(argv)


def import_library() -> float:
    """Import numpy and rarhmm from this checkout's src/; returns seconds."""
    # the workloads' matrices are tiny; one BLAS thread keeps timings steady
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not os.path.isfile(os.path.join(SRC, "rarhmm", "__init__.py")):
        raise SystemExit(f"bench: no rarhmm sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import rarhmm
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(rarhmm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported rarhmm from {rarhmm.__file__}, not {SRC}")
    return elapsed


def provenance(args) -> dict:
    import numpy as np
    try:
        top, commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = commit = None
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        commit = None  # not a git work tree of its own; src_sha256 identifies the code
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rarhmm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": commit, "src_sha256": digest.hexdigest()}


def replay_transition_objective(model, train) -> float:
    """Milliseconds for one expected transition NLL/gradient evaluation at the
    fitted model's own posteriors; no pipeline call site reaches it."""
    from rarhmm import inference, transition
    posteriors, _ = inference.estep(model, train)
    xis = [p.xi for p in posteriors]
    times = []
    for _ in range(REPLAY_REPEATS):
        t0 = time.perf_counter()
        transition.weighted_nll_and_grad(model.transition, train, xis)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_metrics(stats, rep, replay_ms) -> dict:
    """Per-layer numbers of one traced pipeline pass."""
    def total_ms(name):
        return stats[name].total_s * 1e3

    def self_ms(name):
        return stats[name].self_s * 1e3

    def per_call_us(name):
        return stats[name].total_s * 1e6 / max(stats[name].calls, 1)

    iter_s = [s for seconds in stats["learning.em"].tallies for s in seconds]
    mst = stats["learning.mstep_transitions"]
    steps = max(sum(stats["policy.rollout"].tallies), 1)
    return {
        "learning.fit_em.ms": total_ms("learning.fit_em"),
        "learning.mstep_transitions.ms": total_ms("learning.mstep_transitions"),
        "learning.mstep_transitions.calls": mst.calls,
        "learning.mstep_transitions.kept_frac": sum(mst.tallies) / max(mst.calls, 1),
        "transition.weighted_nll_and_grad.ms": replay_ms,
        "model.log_local_evidence.self_ms": self_ms("model.log_local_evidence"),
        "model.log_local_evidence.calls": stats["model.log_local_evidence"].calls,
        "transition.transition_matrices.self_ms": self_ms("transition.transition_matrices"),
        "transition.transition_matrices.calls": stats["transition.transition_matrices"].calls,
        "inference.forward_backward.self_ms": self_ms("inference.forward_backward"),
        "learning.initialize.ms": total_ms("learning.initialize"),
        "learning.mstep_initial.ms": total_ms("learning.mstep_initial"),
        "learning.mstep_dynamics.ms": total_ms("learning.mstep_dynamics"),
        "learning.mstep_controller.ms": total_ms("learning.mstep_controller"),
        "learning.em.iters": len(iter_s),
        "learning.em.iter_ms": statistics.median(iter_s) * 1e3 if iter_s else 0.0,
        "learning.empty_regime_events": rep.empty_regime_events,
        "learning.restarts_failed": rep.restarts_failed,
        "evaluation.filter.self_ms": self_ms("evaluation.filter"),
        "evaluation.forecast.self_ms": self_ms("evaluation.forecast"),
        "policy.rollout.step_us": total_ms("policy.rollout") * 1e3 / steps,
        "policy.act.us": per_call_us("policy.act"),
        "envs.step_env.us": per_call_us("envs.step_env"),
        # the rollout loop's own time is the runtime belief update plus
        # clipping and bookkeeping: step time minus act, observe and step_env
        "policy.belief.self_us": self_ms("policy.rollout") * 1e3 / steps,
        "evaluation.nmse_h1": rep.quality["nmse_h1"],
        "evaluation.nmse_h10": rep.quality["nmse_h10"],
        "evaluation.nmse_h25": rep.quality["nmse_h25"],
        "policy.rollout.success_rate": rep.quality.get("success_rate", 0.0),
        "policy.rollout.upright_err_rad": rep.quality.get("upright_err_rad", 0.0),
    }


def setup_metrics(stats) -> dict:
    sim = stats["envs.simulate"]
    return {"envs.simulate.us_per_step": sim.total_s * 1e6 / max(sum(sim.tallies), 1),
            "envs.load_dataset.ms": stats["envs.load_dataset"].total_s * 1e3}


def scale_times(metrics: dict, factor: float) -> dict:
    """Apply a pass's clock scaling (scaled over raw seconds) to its times."""
    return {k: v * factor if PER_LAYER_UNITS[k] in ("ms", "us") else v
            for k, v in metrics.items()}


def unexercised(stats, names) -> list:
    """A failed check for each span that recorded no calls, so a renamed layer
    entry point fails the benchmark instead of reading as free."""
    missing = sorted(n for n in names if stats[n].calls == 0)
    return [f"spans recorded no calls: {', '.join(missing)}"] if missing else []


def median_dict(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(args, import_s: float, scratch: str) -> dict:
    from clock import ScaledClock
    from spans import LAYER_SPANS, Tracer
    from workloads import SIZES, check_expert, make_inputs, run_pipeline

    w = SIZES[args.size][args.workload]
    expected = {name for _, _, name, _ in LAYER_SPANS} - set(SETUP_SPANS)
    if not w.episodes:
        expected -= set(ROLLOUT_SPANS)
    if not w.closed_loop:
        expected.discard("learning.mstep_controller")

    clock = ScaledClock()
    import_scaled = clock.scale(import_s, clock.kernel_s)
    checks, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        tracer = Tracer()
        with tracer.patched() if args.trace else contextlib.nullcontext(), \
                clock.stage("setup"):
            datasets, failed_checks = make_inputs(w, args.seed, scratch)
        checks += failed_checks
        if args.trace:
            checks += unexercised(tracer.stats, SETUP_SPANS)
            factor = clock.scaled["setup"][-1] / clock.raw["setup"][-1]
            setup_layers.append(scale_times(setup_metrics(tracer.stats), factor))
    checks += check_expert(datasets)

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        plain.append(run_pipeline(w, datasets, args.seed))
        if args.trace:
            tracer = Tracer()
            with tracer.patched():
                rep = run_pipeline(w, datasets, args.seed)
            checks += unexercised(tracer.stats, expected)
            replay_ms = replay_transition_objective(rep.models[0], datasets[0].train)
            factor = rep.times["pipeline_s"] / rep.raw_times["pipeline_s"]
            traced.append((rep, scale_times(layer_metrics(tracer.stats, rep, replay_ms),
                                            factor)))
        # stop before a round that would end past the deadline
        if 2 * time.perf_counter() - t0 > deadline:
            break

    reps = plain + [rep for rep, _ in traced]
    for rep in reps:
        checks += rep.checks
        if rep.quality != plain[0].quality:
            checks.append("quality differs between passes on the same inputs"
                          + (" (traced vs untraced)" if args.trace else ""))
    checks = sorted(set(checks))
    attempted = sum(r.attempted for r in reps) + len(checks)
    failed = sum(r.failed for r in reps) + len(checks)

    plain_times = median_dict([r.times for r in plain])
    if args.trace:
        values = median_dict([m for _, m in traced])
        values.update(median_dict(setup_layers))
        traced_pipeline = statistics.median(r.times["pipeline_s"] for r, _ in traced)
        values["trace.overhead_frac"] = traced_pipeline / plain_times["pipeline_s"] - 1.0
        units = PER_LAYER_UNITS
    else:
        values = dict(plain_times, loglik_per_step=plain[0].quality["loglik_per_step"])
        values["setup_s"] = import_scaled + statistics.median(clock.scaled["setup"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    detail = {"provenance": provenance(args), "passes": len(plain),
              "traced_passes": len(traced), "import_raw_s": import_s,
              "setup_raw_s": clock.raw["setup"], "setup_scaled_s": clock.scaled["setup"],
              "pass_raw_s": [r.raw_times for r in plain],
              "pass_scaled_s": [r.times for r in plain],
              "quality": plain[0].quality, "checks_failed": checks}
    return {"detail": detail,
            "result": {"correct": not checks, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": values[k], "unit": u}
                                   for k, u in units.items()}}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    import_s = import_library()
    scratch = os.path.join(ROOT, ".bench_build", f"rarhmm-bench-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        out = measure(args, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    result = out["result"]
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
