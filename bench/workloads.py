"""The benchmark's workloads: inputs generated from a seed, and the pipeline
each one runs on them (fit, then forecast evaluation, plus closed-loop
rollouts on distill).

Every library call goes through a module attribute (``learning.fit_em``,
``evaluation.evaluate``, ...) so the traced run can time it; see spans.py.
Which layers each workload stresses, and why, is in DESIGN.md.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from rarhmm import envs, evaluation, learning, policy
from rarhmm.cli import STREAM_ROLLOUT, STREAM_TEST, STREAM_TRAIN
from rarhmm.model import CLOSED_LOOP, Dataset, Trajectory

from clock import ScaledClock

HORIZONS = (1, 10, 25)
# the scripted pendulum expert swings up within this many steps from the
# hanging start; it is the demo and rollout length of the control task
SWINGUP_STEPS = 1000
# EM runs its whole iteration budget: the benchmark times a fixed amount of
# EM work, so fit time does not jump with the iteration a seed converges at
REL_TOL = 1e-12
LOGLIK_TOL = 1e-8      # relative slack for EM monotonicity and Q <= loglik
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    n_train: int
    n_test: int
    steps: int             # test length and longest train length
    fit: dict              # FitConfig fields other than seed and rel_tol
    min_train_steps: int = 0   # > 0: train lengths spread over [min, steps]
    demos: bool = False        # expert demonstrations instead of exploration
    episodes: int = 0          # closed-loop rollouts of the distilled policy
    rollout_steps: int = 0
    datasets: int = 1          # independent draws of the inputs per pass

    @property
    def closed_loop(self) -> bool:
        return self.fit.get("mode") == CLOSED_LOOP


_OPEN = dict(transition_kind="linear", K=5, restarts=1)
FULL = {
    "identify": Workload("identify", "pendulum", n_train=6, n_test=4, steps=200,
                         fit=dict(_OPEN, max_iters=5), datasets=4),
    "hmm": Workload("hmm", "bouncing_ball", n_train=8, n_test=4, steps=600,
                    min_train_steps=200,
                    fit=dict(transition_kind="stationary", K=4, restarts=1,
                             max_iters=8), datasets=4),
    "distill": Workload("distill", "pendulum", n_train=2, n_test=1,
                        steps=SWINGUP_STEPS, demos=True,
                        fit=dict(_OPEN, mode=CLOSED_LOOP, lag=1, max_iters=3),
                        episodes=2, rollout_steps=SWINGUP_STEPS, datasets=3),
}
# a size small enough for the smoke test; same code paths, a few seconds
TINY = {
    "identify": replace(FULL["identify"], n_train=3, n_test=2, steps=60,
                        fit=dict(FULL["identify"].fit, max_iters=2), datasets=1),
    "hmm": replace(FULL["hmm"], n_train=3, n_test=2, steps=60, min_train_steps=40,
                   fit=dict(FULL["hmm"].fit, max_iters=2), datasets=1),
    "distill": replace(FULL["distill"], n_train=2, n_test=1, steps=150,
                       fit=dict(FULL["distill"].fit, max_iters=2), episodes=1,
                       rollout_steps=100, datasets=1),
}
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Inputs:
    """One draw of a workload's inputs."""
    env: envs.EnvConfig
    train: Dataset
    test: Dataset
    starts: list          # initial states of the rollout episodes


def _mixed_lengths(w: Workload, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.linspace(w.min_train_steps, w.steps, w.n_train)
                           .round().astype(int))


def _round_trip(trajs, path) -> Dataset:
    """save_dataset then load_dataset, as the CLI hands data between commands."""
    envs.save_dataset(path, trajs)
    try:
        return envs.load_dataset(path)
    finally:
        os.remove(path)


def make_inputs(w: Workload, seed: int, scratch: str) -> tuple[list, list]:
    """The workload's datasets, generated from the seed alone, plus the text
    of any failed check. Dataset d draws from streams offset by 10 d."""
    env = envs.default_config(w.env, seed=seed)
    collect = envs.collect_demonstrations if w.demos else envs.collect_trajectories
    datasets, checks = [], []
    for d in range(w.datasets):
        train = collect(env, w.n_train, 10 * d + STREAM_TRAIN, T=w.steps)
        if w.min_train_steps:
            lengths = _mixed_lengths(w, np.random.default_rng((seed, 10 * d + STREAM_TRAIN)))
            train = [Trajectory(xs=t.xs[:n], us=t.us[:n], dt=t.dt, id=t.id)
                     for t, n in zip(train, lengths)]
        test = collect(env, w.n_test, 10 * d + STREAM_TEST, T=w.steps)
        loaded = []
        for name, trajs in (("train", train), ("test", test)):
            ds = _round_trip(trajs, os.path.join(scratch, f"{name}.ndjson"))
            if not all(np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)
                       for a, b in zip(trajs, ds.trajectories)):
                checks.append(f"{name} data changed in the save/load round trip")
            loaded.append(ds)
        starts = [envs.hanging_state(env, np.random.default_rng(
                      (seed, 10 * d + STREAM_ROLLOUT, i))) for i in range(w.episodes)]
        datasets.append(Inputs(env, loaded[0], loaded[1], starts))
    return datasets, checks


def check_expert(datasets) -> list:
    """The scripted expert swings up from every rollout start. This checks the
    simulator itself, so a distilled policy's failure is the policy's."""
    fails = []
    for d, inp in enumerate(datasets):
        for i, x0 in enumerate(inp.starts):
            traj = envs.simulate(inp.env, envs.expert_policy(inp.env),
                                 T=SWINGUP_STEPS, x0=x0)
            if not policy.success_criterion(traj, inp.env):
                fails.append(f"scripted expert fails to swing up from start {d}.{i}")
    return fails


def fit_config(w: Workload, seed: int) -> learning.FitConfig:
    return learning.FitConfig(seed=seed, rel_tol=REL_TOL, **w.fit)


def _check_history(history) -> list:
    ll = np.asarray(history.loglik)
    q = np.asarray(history.q_value)
    slack = LOGLIK_TOL * (1.0 + np.abs(ll))
    fails = []
    if np.any(np.diff(ll) < -slack[1:]):
        fails.append("EM log-likelihood decreased")
    if np.any(q > ll + slack):
        fails.append("EM lower bound Q exceeds the log-likelihood")
    return fails


def _upright_err(traj: Trajectory) -> float:
    """Mean |wrapped angle| over the final fifth of an episode."""
    tail = traj.xs[int(np.floor((1.0 - policy.SUCCESS_FINAL_FRACTION) * traj.T)):, 0]
    return float(np.mean(np.abs(envs.wrap_angle(tail))))


@dataclass
class Rep:
    """One pass of the pipeline over all datasets: stage times (scaled and
    raw seconds), quality and operation counts."""
    times: dict
    raw_times: dict
    quality: dict
    attempted: int
    failed: int
    checks: list
    empty_regime_events: int
    restarts_failed: int
    models: list


def run_pipeline(w: Workload, datasets, seed: int) -> Rep:
    """Fit, evaluate and (on distill) roll out on each dataset in turn.
    Times are totals over the datasets; quality pools them."""
    config = fit_config(w, seed)
    clock = ScaledClock()
    attempted = failed = empty = restarts_failed = 0
    checks, models = [], []
    loglik = steps = 0.0
    nmse = {h: [] for h in HORIZONS}
    errs, successes = [], 0
    for inp in datasets:
        with warnings.catch_warnings(record=True) as caught, clock.stage("fit_s"):
            warnings.simplefilter("always")
            model, history = learning.fit_em(inp.train, config)
        messages = [str(c.message) for c in caught]
        restarts_failed += sum(m.startswith("restart ") for m in messages)
        empty += sum(m.startswith("regime ") for m in messages)
        attempted += config.restarts
        checks += _check_history(history)
        models.append(model)
        loglik += history.loglik[-1]
        steps += inp.train.n_steps

        with clock.stage("eval_s"):
            report = evaluation.evaluate({w.name: [model]}, inp.test, HORIZONS)
            for i, x0 in enumerate(inp.starts):
                attempted += 1
                try:
                    result = policy.rollout(inp.env, model, T=w.rollout_steps, x0=x0)
                except FloatingPointError:
                    failed += 1
                    continue
                b = result.beliefs
                if np.any(b < -SIMPLEX_TOL) or \
                        np.any(np.abs(b.sum(axis=1) - 1.0) > SIMPLEX_TOL):
                    checks.append(f"rollout {i} belief left the simplex")
                successes += result.success
                errs.append(_upright_err(result.trajectory))
        for row in report.rows:
            nmse[row["h"]].append(row["mean"])
            attempted += 1
            failed += not np.isfinite(row["mean"])

    quality = {"loglik_per_step": loglik / steps}
    for h, values in nmse.items():
        quality[f"nmse_h{h}"] = float(np.mean(values))
    if w.episodes:
        quality["upright_err_rad"] = float(np.median(errs)) if errs else float("nan")
        quality["success_rate"] = successes / (w.episodes * len(datasets))
    checks += [f"{name} is not finite" for name, value in quality.items()
               if not np.isfinite(value)]

    def totals(per_stage):
        t = {name: sum(per_stage[name]) for name in ("fit_s", "eval_s")}
        return dict(t, pipeline_s=t["fit_s"] + t["eval_s"])

    return Rep(times=totals(clock.scaled), raw_times=totals(clock.raw), quality=quality,
               attempted=attempted, failed=failed + restarts_failed, checks=checks,
               empty_regime_events=empty, restarts_failed=restarts_failed,
               models=models)
