"""Distill expert demonstrations into a switching linear policy and run it.

The distilled policy is the controller bank of a closed-loop hybrid model;
at run time a filtered belief over regimes is maintained from the transition
link and the dynamics evidence, and the action is a belief-weighted (or
regime-selected) linear feedback law. Both evaluate all K regimes at once
from the model's stacked dynamics and controller blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import gauss_draw, gauss_logpdf
from .envs import (ENV_BOUNCING_BALL, ENV_CARTPOLE, EnvConfig, clip_control, env_dims,
                   hanging_state, observe, pole_state, save_dataset, step_env, wrap_angle)
from .learning import FitConfig, FitHistory, fit_em
from .model import (CLOSED_LOOP, Dataset, HybridModel, Trajectory, control_history,
                    control_means)
from .transition import transition_matrix

ACT_MEAN = "mean"
ACT_ARGMAX = "argmax"
ACT_SAMPLE = "sample"
ACT_MODES = (ACT_MEAN, ACT_ARGMAX, ACT_SAMPLE)

# success: over the final fifth of the rollout the pole stays within 0.2 rad
# of upright at angular speed <= 1 rad/s (closed thresholds); the cart must
# additionally stay on the track
SUCCESS_FINAL_FRACTION = 0.2
SUCCESS_ANGLE_TOL = 0.2
SUCCESS_SPEED_TOL = 1.0
SUCCESS_CART_LIMIT = 2.4


def default_distill_config() -> FitConfig:
    """Five switching linear laws over one step of control history."""
    return FitConfig(K=5, mode=CLOSED_LOOP, transition_kind="linear", lag=1)


def distill(expert_dataset: Dataset, config: FitConfig) -> tuple[HybridModel, FitHistory]:
    """Fit a closed-loop hybrid model to demonstrations, as fit_em does; the
    fitted controller bank is the distilled policy."""
    if config.mode != CLOSED_LOOP:
        raise ValueError("distillation needs a closed-loop fit configuration")
    return fit_em(expert_dataset, config)


def _check_belief(model: HybridModel, belief) -> np.ndarray:
    b = np.asarray(belief, dtype=float).ravel()
    total = b.sum()
    # NaN fails both comparisons, so non-finite beliefs are rejected too
    if b.shape != (model.K,) or not (b.min() >= -1e-12 and abs(total - 1.0) <= 1e-6):
        raise ValueError(f"belief must be a {model.K}-simplex, got {b}")
    return np.maximum(b, 0.0) / total


def act(model: HybridModel, belief, x, past_us, mode: str = ACT_MEAN,
        rng: np.random.Generator | None = None) -> tuple[np.ndarray, int]:
    """One control from the switching policy. Returns (u, regime index).

    Mean blends the regime laws by the belief (the logged regime is the
    belief argmax); Argmax commits to the most likely regime; Sample draws
    the regime from the belief and adds the controller noise. The caller is
    responsible for actuator clipping.
    """
    if model.mode != CLOSED_LOOP:
        raise ValueError("act needs a closed-loop model with controllers")
    if mode not in ACT_MODES:
        raise ValueError(f"mode must be one of {ACT_MODES}, got {mode!r}")
    b = _check_belief(model, belief)
    means = control_means(model, x, past_us)
    if mode == ACT_MEAN:
        # regime laws added one after another from u = 0, as a loop over k
        # would: a sum over the K axis rounds differently from K = 8, an
        # accumulate does not, and 0.0 + turns its -0.0 totals into +0.0
        u = 0.0 + np.add.accumulate(b[:, None] * means, axis=0)[-1]
        return u, int(b.argmax())
    if mode == ACT_ARGMAX:
        k = int(b.argmax())
        return means[k], k
    if rng is None:
        raise ValueError("sample mode needs an rng")
    k = int(rng.choice(model.K, p=b))
    return gauss_draw(rng, means[k], model.controllers.sigma_chol[k]), k


@dataclass
class RolloutResult:
    trajectory: Trajectory
    beliefs: np.ndarray           # (T, K) simplex rows
    regimes: np.ndarray           # (T,) regime used for control at each step
    success: bool


def _wrap_if_needed(th: np.ndarray) -> np.ndarray:
    # wrap_angle is the identity on [-pi, pi) in exact arithmetic but not to
    # the ulp; skipping it there keeps the closed thresholds exact
    th = np.asarray(th, dtype=float)
    inside = (th >= -np.pi) & (th < np.pi)
    return np.where(inside, th, wrap_angle(th))


def success_criterion(traj: Trajectory, config: EnvConfig) -> bool:
    """Upright over the final fifth of the rollout, per the tolerances above;
    the bouncing ball, which has no pole, is refused by pole_state."""
    xs = traj.xs[int(np.floor((1.0 - SUCCESS_FINAL_FRACTION) * traj.T)):]
    th, om = pole_state(config, xs)
    # the cart position leads both cart-pole observations
    on_track = (config.env != ENV_CARTPOLE
                or bool(np.all(np.abs(xs[:, 0]) < SUCCESS_CART_LIMIT)))
    upright = bool(np.all(np.abs(_wrap_if_needed(th)) <= SUCCESS_ANGLE_TOL))
    slow = bool(np.all(np.abs(om) <= SUCCESS_SPEED_TOL))
    return upright and slow and on_track


def _bayes_update(prior: np.ndarray, log_ev: np.ndarray) -> np.ndarray:
    """Regime posterior from a prior belief and per-regime log evidence,
    normalized by a log-sum-exp over the regimes (shifted by their max, or by
    0 when the max is not finite). Beyond |shift| ~ 1e9 adding the shift rounds
    away part of the log of the sum, and the posterior would miss 1 by as
    much; past 1e-7, a tenth of act's tolerance, it is normalized by the sum."""
    lb = np.log(np.maximum(prior, 1e-300)) + log_ev
    top = float(lb.max())
    if not math.isfinite(top):
        top = 0.0
    e = np.exp(lb - top)
    total = e.sum()
    log_sum = float(np.log(total))
    norm = log_sum + top
    if not math.isfinite(norm):
        raise FloatingPointError("belief update collapsed: impossible evidence")
    if abs(norm - top - log_sum) > 1e-7:
        return e / total
    return np.exp(lb - norm)


def _initial_belief(model: HybridModel, x: np.ndarray) -> np.ndarray:
    init = model.init
    return _bayes_update(init.pi, gauss_logpdf(x - init.mu, init.omega_whiten,
                                               init.omega_const))


def _belief_step(model: HybridModel, b: np.ndarray, x_prev, u_prev,
                 x_next) -> np.ndarray:
    # runtime update deliberately excludes the control likelihood: u is our
    # own choice, so only the switching link and the dynamics evidence inform
    # the regime. It stays in log space: the E-step's linear-scale forward
    # step rounds differently and would change rollouts.
    pred = transition_matrix(model.transition, x_prev, u_prev) @ b
    dyn = model.dynamics
    resid = x_next - (dyn.A @ x_prev + dyn.B @ u_prev + dyn.c)
    return _bayes_update(pred, gauss_logpdf(resid, dyn.lam_whiten, dyn.lam_const))


def check_policy_model(config: EnvConfig, model: HybridModel) -> None:
    """Raise ValueError unless the model is a closed-loop policy with the env's
    dims, for an env with a pole to swing up: the bouncing ball is refused
    here, before any episode runs, as expert_policy refuses it."""
    if config.env == ENV_BOUNCING_BALL:
        raise ValueError("the bouncing ball has no pole: no policy runs on it")
    d_x, d_u = env_dims(config)
    if model.d_x != d_x or model.d_u != d_u:
        raise ValueError(f"model dims ({model.d_x}, {model.d_u}) do not match "
                         f"environment observation dims ({d_x}, {d_u})")
    if model.mode != CLOSED_LOOP:
        raise ValueError("act needs a closed-loop model with controllers")


@np.errstate(invalid="raise")
def rollout(config: EnvConfig, model: HybridModel, T: int | None = None,
            mode: str = ACT_MEAN, rng: np.random.Generator | None = None,
            x0=None, traj_id: str = "rollout") -> RolloutResult:
    """Run the switching policy on the live simulator with belief tracking.

    The model acts in the configured observation space; controls are clipped
    to the actuator limit before stepping. When x0 is not given the episode
    starts near hanging, matching the swing-up task the demonstrations solve.
    Every step calls act, observe, step_env and _belief_step through this
    module, and stays bit-identical to the same loop over the per-regime
    references of act, the belief update and the array RK4 step (the tests
    patch them in here).
    """
    check_policy_model(config, model)
    if T is None:
        T = config.horizon
    if T < 2:
        raise ValueError("T must be >= 2")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = np.asarray(x0, dtype=float) if x0 is not None else hanging_state(config, rng)

    x = observe(config, state)
    b = _initial_belief(model, x)
    xs = np.empty((T, model.d_x))
    us, history = control_history(np.empty((T, model.d_u)), model.lag)
    beliefs = np.empty((T, model.K))
    regimes = np.empty(T, dtype=int)

    for t in range(T):
        xs[t], beliefs[t] = x, b
        u_raw, k = act(model, b, x, history[t], mode=mode, rng=rng)
        u = clip_control(config, u_raw)
        us[t], regimes[t] = u, k
        if t + 1 == T:
            break
        try:
            state = step_env(config, state, u)
        except FloatingPointError:   # sin or cos of an infinite angle
            state = np.full(1, np.nan)
        if not np.isfinite(state).all():
            raise FloatingPointError(f"non-finite state at step {t + 1}")
        x_next = observe(config, state)
        b = _belief_step(model, b, x, u, x_next)
        x = x_next

    traj = Trajectory(xs=xs, us=us, dt=config.dt, id=traj_id)
    return RolloutResult(trajectory=traj, beliefs=beliefs, regimes=regimes,
                         success=success_criterion(traj, config))


def save_rollout(result: RolloutResult, traj_path, belief_path) -> None:
    """Trajectory in the dataset record format plus a parallel belief/regime
    table (t, b_1..b_K, regime; t is 1-based)."""
    save_dataset(traj_path, [result.trajectory])
    K = result.beliefs.shape[1]
    lines = ["t," + ",".join(f"b_{k + 1}" for k in range(K)) + ",regime"]
    for t in range(len(result.beliefs)):
        row = ",".join(repr(float(v)) for v in result.beliefs[t])
        lines.append(f"{t + 1},{row},{result.regimes[t]}")
    with open(belief_path, "w") as f:
        f.write("\n".join(lines) + "\n")
