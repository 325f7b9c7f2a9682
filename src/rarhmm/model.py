"""Generative switching linear-Gaussian model with regime-dependent controllers.

A model with K regimes generates a trajectory as follows: the initial regime is
categorical with probabilities pi and the initial state Gaussian per regime; at
every step the next regime is drawn from the transition link evaluated at the
current state and control, the next state follows the linear-Gaussian dynamics
of the *arriving* regime, and (in closed-loop mode) the control is a noisy
linear readout of controller features of the current state and recent controls.
Open-loop mode treats controls as exogenous inputs and omits their likelihood.

All types are immutable after construction and all sampling takes an explicit
numpy Generator, so everything here is safe to run concurrently.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import gauss_draw, gauss_factors, gauss_logpdf
from .features import controller_feature_dim, polynomial_features
from .transition import TransitionModel, transition_probs

OPEN_LOOP = "open_loop"
CLOSED_LOOP = "closed_loop"
MODES = (OPEN_LOOP, CLOSED_LOOP)

MODEL_SCHEMA_VERSION = 1

_SYM_TOL = 1e-12


def _as_float(x, shape=None, name="array"):
    a = np.asarray(x, dtype=float)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _check_spd(cov: np.ndarray, name: str):
    if not np.allclose(cov, cov.T, atol=_SYM_TOL, rtol=0.0):
        raise ValueError(f"{name} must be symmetric within {_SYM_TOL}")
    if cov.shape[0] > 0 and np.linalg.eigvalsh(cov).min() <= 0:
        raise ValueError(f"{name} must be positive definite")


@dataclass(frozen=True, eq=False)
class Trajectory:
    xs: np.ndarray            # (T, d_x)
    us: np.ndarray            # (T, d_u)
    dt: float
    id: str = ""

    def __post_init__(self):
        xs = np.atleast_2d(_as_float(self.xs, name="xs"))
        us = np.asarray(self.us, dtype=float)
        if us.ndim == 1:
            us = us[:, None]
        if not np.all(np.isfinite(us)):
            raise ValueError("us must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "us", us)
        if len(self.xs) != len(self.us):
            raise ValueError(f"xs and us lengths differ: {len(self.xs)} vs {len(self.us)}")
        if len(self.xs) < 2:
            raise ValueError("trajectories need at least 2 steps")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def T(self) -> int:
        return len(self.xs)

    @property
    def d_x(self) -> int:
        return self.xs.shape[1]

    @property
    def d_u(self) -> int:
        return self.us.shape[1]


@dataclass(frozen=True, eq=False)
class Dataset:
    trajectories: tuple[Trajectory, ...]
    d_x: int
    d_u: int

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if not self.trajectories:
            raise ValueError("dataset must contain at least one trajectory")
        for traj in self.trajectories:
            if traj.d_x != self.d_x or traj.d_u != self.d_u:
                raise ValueError(f"trajectory {traj.id!r} has dims "
                                 f"({traj.d_x}, {traj.d_u}), dataset wants "
                                 f"({self.d_x}, {self.d_u})")

    @classmethod
    def from_trajectories(cls, trajectories) -> "Dataset":
        trajectories = tuple(trajectories)
        if not trajectories:
            raise ValueError("dataset must contain at least one trajectory")
        return cls(trajectories, trajectories[0].d_x, trajectories[0].d_u)

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def n_steps(self) -> int:
        return sum(t.T for t in self.trajectories)


@dataclass(frozen=True, eq=False)
class InitialModel:
    pi: np.ndarray         # (K,)
    mu: np.ndarray         # (K, d_x)
    omega_cov: np.ndarray  # (K, d_x, d_x)

    def __post_init__(self):
        pi = _as_float(self.pi, name="pi").ravel()
        mu = np.atleast_2d(_as_float(self.mu, name="mu"))
        om = _as_float(self.omega_cov, name="omega_cov")
        if om.ndim == 2:
            om = om[None]
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "omega_cov", om)
        K = len(pi)
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be nonnegative and sum to 1 within 1e-12")
        if mu.shape[0] != K or om.shape[0] != K:
            raise ValueError("pi, mu, omega_cov must agree on K")
        d = mu.shape[1]
        if om.shape[1:] != (d, d):
            raise ValueError("omega_cov must be (K, d_x, d_x)")
        for k in range(K):
            _check_spd(om[k], f"omega_cov[{k}]")

    @property
    def K(self) -> int:
        return len(self.pi)


@dataclass(frozen=True, eq=False)
class RegimeDynamics:
    A: np.ndarray        # (d_x, d_x)
    B: np.ndarray        # (d_x, d_u)
    c: np.ndarray        # (d_x,)
    lam_cov: np.ndarray  # (d_x, d_x)

    def __post_init__(self):
        A = np.atleast_2d(_as_float(self.A, name="A"))
        d = A.shape[0]
        B = _as_float(self.B, name="B").reshape(d, -1)
        c = _as_float(self.c, name="c").ravel()
        lam = _as_float(self.lam_cov, shape=(d, d), name="lam_cov")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lam_cov", lam)
        if A.shape != (d, d) or c.shape != (d,):
            raise ValueError("A must be square and c must match its size")
        _check_spd(lam, "lam_cov")


@dataclass(frozen=True, eq=False)
class RegimeController:
    gain: np.ndarray       # (d_u, d_phi)
    offset: np.ndarray     # (d_u,)
    sigma_cov: np.ndarray  # (d_u, d_u)
    lag: int = 0
    poly_degree: int = 1

    def __post_init__(self):
        gain = np.atleast_2d(_as_float(self.gain, name="gain"))
        offset = _as_float(self.offset, name="offset").ravel()
        d_u = len(offset)
        sig = _as_float(self.sigma_cov, shape=(d_u, d_u), name="sigma_cov")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "sigma_cov", sig)
        if gain.shape[0] != d_u:
            raise ValueError("gain rows must match offset length")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if self.poly_degree < 1:
            raise ValueError("poly_degree must be >= 1")
        _check_spd(sig, "sigma_cov")


@dataclass(frozen=True, eq=False)
class RegimeStack:
    """Per-regime parameters stacked on a leading K axis; all arrays read-only.
    Each covariance has its lower Cholesky factor (*_chol) and d log 2pi +
    log det (*_const): the inputs of gauss_logpdf and gauss_draw."""
    A: np.ndarray               # (K, d_x, d_x)
    B: np.ndarray               # (K, d_x, d_u)
    c: np.ndarray               # (K, d_x)
    lam_chol: np.ndarray        # (K, d_x, d_x) of the process noise lam_cov
    lam_const: np.ndarray       # (K,)
    omega_chol: np.ndarray      # (K, d_x, d_x) of the initial-state omega_cov
    omega_const: np.ndarray     # (K,)
    gain: np.ndarray | None         # (K, d_u, d_phi), closed loop only
    offset: np.ndarray | None       # (K, d_u), closed loop only
    sigma_chol: np.ndarray | None   # (K, d_u, d_u) of sigma_cov, closed loop only
    sigma_const: np.ndarray | None  # (K,), closed loop only

    def __post_init__(self):
        for a in vars(self).values():
            if a is not None:
                a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class HybridModel:
    """K-regime switching linear-Gaussian model. `stack` (the regime parameters
    stacked along K) is built on first use and cached; the model is immutable
    and `replace` builds a new one, so the cache cannot go stale."""
    K: int
    d_x: int
    d_u: int
    mode: str
    init: InitialModel
    dynamics: tuple[RegimeDynamics, ...]
    transition: TransitionModel
    controllers: tuple[RegimeController, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dynamics", tuple(self.dynamics))
        if self.controllers is not None:
            object.__setattr__(self, "controllers", tuple(self.controllers))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == OPEN_LOOP and self.controllers is not None:
            raise ValueError("open-loop models carry no controllers")
        if self.mode == CLOSED_LOOP and self.controllers is None:
            raise ValueError("closed-loop models need one controller per regime")
        if self.init.K != self.K or len(self.dynamics) != self.K or self.transition.K != self.K:
            raise ValueError("component K values disagree")
        if self.init.mu.shape[1] != self.d_x:
            raise ValueError("init dims disagree with d_x")
        if (self.transition.d_x, self.transition.d_u) != (self.d_x, self.d_u):
            raise ValueError("transition dims disagree with model dims")
        for k, dyn in enumerate(self.dynamics):
            if dyn.A.shape != (self.d_x, self.d_x) or dyn.B.shape != (self.d_x, self.d_u):
                raise ValueError(f"dynamics[{k}] dims disagree with model dims")
        if self.controllers is not None:
            if len(self.controllers) != self.K:
                raise ValueError("component K values disagree")
            lag, deg = self.controllers[0].lag, self.controllers[0].poly_degree
            d_phi = controller_feature_dim(self.d_x, self.d_u, lag, deg)
            for k, ctl in enumerate(self.controllers):
                if (ctl.lag, ctl.poly_degree) != (lag, deg):
                    raise ValueError("all controllers must share lag and poly_degree")
                if ctl.gain.shape != (len(ctl.offset), d_phi) or len(ctl.offset) != self.d_u:
                    raise ValueError(f"controllers[{k}] gain must be (d_u, {d_phi})")

    @property
    def lag(self) -> int:
        return self.controllers[0].lag if self.controllers else 0

    @property
    def poly_degree(self) -> int:
        return self.controllers[0].poly_degree if self.controllers else 1

    @cached_property
    def stack(self) -> RegimeStack:
        """The only place a regime covariance is factorized, once per model;
        evidence, sampling, forecasting, the runtime belief and act read it."""
        dyn, ctl = self.dynamics, self.controllers
        lam_chol, lam_const = gauss_factors([d.lam_cov for d in dyn])
        omega_chol, omega_const = gauss_factors(self.init.omega_cov)
        sigma_chol, sigma_const = (None, None) if ctl is None else \
            gauss_factors([g.sigma_cov for g in ctl])
        return RegimeStack(
            A=np.stack([d.A for d in dyn]), B=np.stack([d.B for d in dyn]),
            c=np.stack([d.c for d in dyn]), lam_chol=lam_chol, lam_const=lam_const,
            omega_chol=omega_chol, omega_const=omega_const,
            gain=None if ctl is None else np.stack([g.gain for g in ctl]),
            offset=None if ctl is None else np.stack([g.offset for g in ctl]),
            sigma_chol=sigma_chol, sigma_const=sigma_const)


# -- controller features ------------------------------------------------------

def controller_features(x, past_us, lag: int, poly_degree: int) -> np.ndarray:
    """Feature vector [monomials of x up to poly_degree; flattened past controls].

    past_us holds exactly `lag` control vectors in chronological order
    (oldest first, most recent last). The constant term is excluded; affine
    behavior comes from the controller offset.
    """
    x = np.asarray(x, dtype=float).ravel()
    past_us = [np.asarray(u, dtype=float).ravel() for u in past_us]
    if len(past_us) != lag:
        raise ValueError(f"expected {lag} past controls, got {len(past_us)}")
    parts = [polynomial_features(x, poly_degree)]
    parts.extend(past_us)
    return np.concatenate(parts) if parts else np.zeros(0)


def controller_feature_series(xs: np.ndarray, us: np.ndarray, lag: int,
                              poly_degree: int) -> np.ndarray:
    """(T, d_phi) features with zero-padded past controls before step `lag`."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    us = np.asarray(us, dtype=float)
    parts = [polynomial_features(xs, poly_degree)]
    for back in range(lag, 0, -1):  # u_{t-lag} ... u_{t-1}
        shifted = np.zeros_like(us)
        shifted[back:] = us[:-back]
        parts.append(shifted)
    return np.concatenate(parts, axis=1)


def _draw_control(model: HybridModel, z: int, x, past_us, rng,
                  deterministic: bool = False) -> np.ndarray:
    """Regime z's control at x: its law's mean, plus action noise unless deterministic."""
    st = model.stack
    mean = st.gain[z] @ controller_features(x, past_us, model.lag, model.poly_degree) \
        + st.offset[z]
    return mean if deterministic else gauss_draw(rng, mean, st.sigma_chol[z])


# -- sampling -----------------------------------------------------------------

def _require_rng(rng):
    if not isinstance(rng, np.random.Generator):
        raise TypeError("pass a seeded numpy Generator (np.random.default_rng(seed))")


def sample_initial(model: HybridModel, rng: np.random.Generator, u1=None):
    """Draw (z1, x1, u1). Open-loop mode takes u1 from the caller instead of sampling."""
    _require_rng(rng)
    z1 = int(rng.choice(model.K, p=model.init.pi))
    x1 = gauss_draw(rng, model.init.mu[z1], model.stack.omega_chol[z1])
    if model.mode == OPEN_LOOP:
        if u1 is None:
            raise ValueError("open-loop mode needs a caller-supplied u1")
        u1 = np.asarray(u1, dtype=float).reshape(model.d_u)
    else:
        u1 = _draw_control(model, z1, x1, [np.zeros(model.d_u)] * model.lag, rng)
    return z1, x1, u1


def step_dynamics(model: HybridModel, z_next: int, x, u, rng=None,
                  deterministic: bool = False) -> np.ndarray:
    if not 0 <= z_next < model.K:
        raise ValueError(f"regime index {z_next} out of range for K = {model.K}")
    st = model.stack
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    mean = st.A[z_next] @ x + st.B[z_next] @ u + st.c[z_next]
    if deterministic:
        return mean
    _require_rng(rng)
    return gauss_draw(rng, mean, st.lam_chol[z_next])


def sample_trajectory(model: HybridModel, T: int, rng: np.random.Generator,
                      exogenous_us=None, z_burnin=None,
                      deterministic: bool = False, dt: float = 1.0,
                      traj_id: str = ""):
    """Roll the generative model forward for T steps.

    Returns (Trajectory, regime path). `deterministic` suppresses the Gaussian
    noises (regimes are still sampled unless the transition link is degenerate).
    Open-loop mode requires `exogenous_us` of length T.
    """
    _require_rng(rng)
    if T < 2:
        raise ValueError("T must be >= 2")
    if model.mode == OPEN_LOOP:
        if exogenous_us is None:
            raise ValueError("open-loop sampling needs exogenous_us")
        exo = np.asarray(exogenous_us, dtype=float).reshape(T, model.d_u)

    if z_burnin is not None:
        z = int(z_burnin)
        if not 0 <= z < model.K:
            raise ValueError(f"z_burnin {z} out of range for K = {model.K}")
    else:
        z = int(rng.choice(model.K, p=model.init.pi))

    if deterministic:
        x = model.init.mu[z].copy()
    else:
        x = gauss_draw(rng, model.init.mu[z], model.stack.omega_chol[z])

    past = [np.zeros(model.d_u)] * model.lag
    xs = np.empty((T, model.d_x))
    us = np.empty((T, model.d_u))
    zs = np.empty(T, dtype=int)

    for t in range(T):
        if t > 0:
            probs = transition_probs(model.transition, z, xs[t - 1], us[t - 1])
            z = int(rng.choice(model.K, p=probs))
            x = step_dynamics(model, z, xs[t - 1], us[t - 1],
                              rng=rng, deterministic=deterministic)
        zs[t] = z
        xs[t] = x
        if model.mode == OPEN_LOOP:
            us[t] = exo[t]
        else:
            us[t] = _draw_control(model, z, x, past, rng, deterministic)
        if model.lag > 0:
            past = past[1:] + [us[t].copy()]

    return Trajectory(xs=xs, us=us, dt=dt, id=traj_id), zs


# -- likelihood ---------------------------------------------------------------

def log_local_evidence(model: HybridModel, traj: Trajectory) -> np.ndarray:
    """(T, K) log evidence: row t holds, per regime, the log density of arriving
    at x_t (initial Gaussian at t=0) plus, in closed-loop mode, the control
    factor for u_t. Transition factors are handled by the message passing."""
    if traj.d_x != model.d_x or traj.d_u != model.d_u:
        raise ValueError(f"trajectory dims ({traj.d_x}, {traj.d_u}) disagree with "
                         f"model dims ({model.d_x}, {model.d_u})")
    st = model.stack
    xs, us = traj.xs, traj.us
    ev = np.empty((traj.T, model.K))
    ev[0] = gauss_logpdf(xs[0], model.init.mu, st.omega_chol, st.omega_const)
    # (K, T-1, d_x) per-regime one-step means
    means = xs[:-1] @ st.A.transpose(0, 2, 1) + us[:-1] @ st.B.transpose(0, 2, 1) \
        + st.c[:, None]
    ev[1:] = gauss_logpdf(xs[1:], means, st.lam_chol[:, None], st.lam_const[:, None]).T
    if model.mode == CLOSED_LOOP:
        feats = controller_feature_series(xs, us, model.lag, model.poly_degree)
        means = feats @ st.gain.transpose(0, 2, 1) + st.offset[:, None]
        ev += gauss_logpdf(us, means, st.sigma_chol[:, None], st.sigma_const[:, None]).T
    return ev


# -- persistence --------------------------------------------------------------

def model_to_dict(model: HybridModel) -> dict:
    tm = model.transition
    tblock = {
        "kind": tm.kind,
        "bias": tm.bias.tolist(),
        "feature_params": tm.feature_params.tolist(),
        "standardizer": {"mean": tm.feat_mean.tolist(), "std": tm.feat_std.tolist()},
    }
    if tm.kind == "polynomial":
        tblock["degree"] = tm.degree
    if tm.kind == "perceptron":
        tblock["hidden_units"] = tm.hidden_units
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "mode": model.mode,
        "K": model.K,
        "d_x": model.d_x,
        "d_u": model.d_u,
        "lag": model.lag,
        "poly_degree": model.poly_degree,
        "pi": model.init.pi.tolist(),
        "init": [{"mu": model.init.mu[k].tolist(),
                  "omega_cov": model.init.omega_cov[k].tolist()}
                 for k in range(model.K)],
        "dynamics": [{"A": d.A.tolist(), "B": d.B.tolist(), "c": d.c.tolist(),
                      "lam_cov": d.lam_cov.tolist()} for d in model.dynamics],
        "transition": tblock,
    }
    if model.controllers is not None:
        doc["controllers"] = [{"gain": c.gain.tolist(), "offset": c.offset.tolist(),
                               "sigma_cov": c.sigma_cov.tolist()}
                              for c in model.controllers]
    return doc


def model_from_dict(doc: dict) -> HybridModel:
    """Inverse of model_to_dict; a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    try:
        K, d_x, d_u = int(doc["K"]), int(doc["d_x"]), int(doc["d_u"])
        init = InitialModel(
            pi=np.asarray(doc["pi"], dtype=float),
            mu=np.asarray([b["mu"] for b in doc["init"]], dtype=float),
            omega_cov=np.asarray([b["omega_cov"] for b in doc["init"]], dtype=float),
        )
        dynamics = tuple(
            RegimeDynamics(A=np.asarray(b["A"], dtype=float),
                           B=np.asarray(b["B"], dtype=float).reshape(d_x, d_u),
                           c=np.asarray(b["c"], dtype=float),
                           lam_cov=np.asarray(b["lam_cov"], dtype=float))
            for b in doc["dynamics"])
        tb = doc["transition"]
        if tb.get("per_prev", False):
            # older files may carry "per_prev": false; per-source link weights
            # are no longer supported
            raise ValueError("transition field 'per_prev' is not supported: "
                             "per-source link weights were removed")
        tm = TransitionModel(
            kind=tb["kind"], K=K, d_x=d_x, d_u=d_u,
            bias=np.asarray(tb["bias"], dtype=float),
            feature_params=np.asarray(tb["feature_params"], dtype=float),
            feat_mean=np.asarray(tb["standardizer"]["mean"], dtype=float),
            feat_std=np.asarray(tb["standardizer"]["std"], dtype=float),
            degree=int(tb.get("degree", 1)),
            hidden_units=int(tb.get("hidden_units", 0)),
        )
        controllers = None
        if doc.get("controllers") is not None:
            lag, deg = int(doc.get("lag", 0)), int(doc.get("poly_degree", 1))
            controllers = tuple(
                RegimeController(gain=np.asarray(b["gain"], dtype=float),
                                 offset=np.asarray(b["offset"], dtype=float),
                                 sigma_cov=np.asarray(b["sigma_cov"], dtype=float),
                                 lag=lag, poly_degree=deg)
                for b in doc["controllers"])
        mode = doc["mode"]
        return HybridModel(K=K, d_x=d_x, d_u=d_u, mode=mode, init=init,
                           dynamics=dynamics, transition=tm, controllers=controllers)
    except KeyError as e:
        raise ValueError(f"model document lacks field {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed model document: {e}") from e


def save_model(path, model: HybridModel) -> None:
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, indent=1)
        f.write("\n")


def load_model(path) -> HybridModel:
    with open(path) as f:
        try:
            return model_from_dict(json.load(f))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
