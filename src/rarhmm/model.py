"""Switching linear-Gaussian model with regime-dependent controllers.

A model with K regimes describes a trajectory as follows: the initial regime
is categorical with probabilities pi and the initial state Gaussian per regime;
at every step the next regime follows the transition link evaluated at the
current state and control, the next state follows the linear-Gaussian dynamics
of the *arriving* regime, and (in closed-loop mode) the control is a noisy
linear readout of controller features of the current state and recent controls.
Open-loop mode treats controls as exogenous inputs and omits their likelihood.

A model is its parameter blocks, each stacked on a leading K axis:
InitialModel, Dynamics, the transition link and (closed loop) Controllers. Its
sizes K, d_x, d_u and its mode are read from them, as a dataset's dims are
read from its trajectories. Each block copies its arrays to read-only
C-ordered floats, and the regime blocks factor their covariances once, in
their constructor: the lower Cholesky factors L (for draws), their inverses
inv(L) (the whitening matrices every density applies) and the log-normalizing
constants. The Cholesky factorization is their positive-definiteness check.
All types are immutable after construction, so everything here is safe to run
concurrently.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._linalg import c_copy, gauss_factors, gauss_logpdf, set_frozen
from .features import controller_feature_dim, polynomial_features
from .transition import TransitionModel

OPEN_LOOP = "open_loop"
CLOSED_LOOP = "closed_loop"
MODES = (OPEN_LOOP, CLOSED_LOOP)

MODEL_SCHEMA_VERSION = 1

_SYM_TOL = 1e-12   # relative to each matrix's largest entry


def _as_float(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _factors(covs: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gauss_factors of (K, d, d) covariances that are symmetric to _SYM_TOL
    of their largest entry; the Cholesky factorization is the positive-
    definiteness check."""
    scale = np.abs(covs).max(axis=(1, 2), initial=0.0)
    asym = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(asym > _SYM_TOL * scale)
    if len(bad):
        raise ValueError(f"{name}[{bad[0]}] must be symmetric within {_SYM_TOL} "
                         f"of its largest entry")
    try:
        return gauss_factors(covs)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"{name}: {e}") from e


@dataclass(frozen=True, eq=False)
class Trajectory:
    xs: np.ndarray            # (T, d_x)
    us: np.ndarray            # (T, d_u)
    dt: float
    id: str = ""

    def __post_init__(self):
        xs, us = _as_float(self.xs, "xs"), _as_float(self.us, "us")
        if xs.ndim != 2:
            raise ValueError(f"xs must hold (T, d_x) states, got shape {xs.shape}")
        T = len(xs)
        if us.ndim == 1 and len(us) == T:
            us = us[:, None]          # one scalar control per step
        elif us.ndim != 2 or len(us) != T:
            raise ValueError(f"us must hold {T} rows of controls, or {T} scalars, "
                             f"got shape {us.shape}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "us", us)
        if T < 2:
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
    """Trajectories of one system; d_x and d_u are read from the first, and
    every other must share them."""
    trajectories: tuple[Trajectory, ...]
    d_x: int = field(init=False)
    d_u: int = field(init=False)

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise ValueError("dataset must contain at least one trajectory")
        d_x, d_u = trajs[0].d_x, trajs[0].d_u
        for traj in trajs:
            if (traj.d_x, traj.d_u) != (d_x, d_u):
                raise ValueError(f"trajectory {traj.id!r} has dims "
                                 f"({traj.d_x}, {traj.d_u}), the first has ({d_x}, {d_u})")
        for name, value in (("trajectories", trajs), ("d_x", d_x), ("d_u", d_u)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def n_steps(self) -> int:
        return sum(t.T for t in self.trajectories)


@dataclass(frozen=True, eq=False)
class InitialModel:
    """Initial regime probabilities and per-regime first-state Gaussians."""
    pi: np.ndarray         # (K,)
    mu: np.ndarray         # (K, d_x)
    omega_cov: np.ndarray  # (K, d_x, d_x)
    omega_chol: np.ndarray = field(init=False, repr=False)    # lower factors L of omega_cov
    omega_whiten: np.ndarray = field(init=False, repr=False)  # their inverses inv(L)
    omega_const: np.ndarray = field(init=False, repr=False)   # (K,) d log 2pi + log det

    def __post_init__(self):
        pi, mu = c_copy(self.pi, 1, "pi"), c_copy(self.mu, 2, "mu")
        om = c_copy(self.omega_cov, 3, "omega_cov")
        K, d = mu.shape
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be nonnegative and sum to 1 within 1e-12")
        if len(pi) != K or om.shape != (K, d, d):
            raise ValueError("pi (K,), mu (K, d_x) and omega_cov (K, d_x, d_x) disagree")
        chol, whiten, const = _factors(om, "omega_cov")
        set_frozen(self, pi=pi, mu=mu, omega_cov=om, omega_chol=chol,
                   omega_whiten=whiten, omega_const=const)

    @property
    def K(self) -> int:
        return len(self.pi)


@dataclass(frozen=True, eq=False)
class Dynamics:
    """Regime k moves x to A[k] x + B[k] u + c[k] plus N(0, lam_cov[k]) noise."""
    A: np.ndarray        # (K, d_x, d_x)
    B: np.ndarray        # (K, d_x, d_u)
    c: np.ndarray        # (K, d_x)
    lam_cov: np.ndarray  # (K, d_x, d_x)
    lam_chol: np.ndarray = field(init=False, repr=False)    # lower factors L of lam_cov
    lam_whiten: np.ndarray = field(init=False, repr=False)  # their inverses inv(L)
    lam_const: np.ndarray = field(init=False, repr=False)   # (K,) d log 2pi + log det

    def __post_init__(self):
        A, B = c_copy(self.A, 3, "A"), c_copy(self.B, 3, "B")
        c, lam = c_copy(self.c, 2, "c"), c_copy(self.lam_cov, 3, "lam_cov")
        K, d = c.shape
        if A.shape != (K, d, d) or B.shape[:2] != (K, d) or lam.shape != (K, d, d):
            raise ValueError("A (K, d_x, d_x), B (K, d_x, d_u), c (K, d_x) and "
                             "lam_cov (K, d_x, d_x) disagree")
        chol, whiten, const = _factors(lam, "lam_cov")
        set_frozen(self, A=A, B=B, c=c, lam_cov=lam, lam_chol=chol, lam_whiten=whiten,
                   lam_const=const)


@dataclass(frozen=True, eq=False)
class Controllers:
    """Regime k draws u from gain[k] phi + offset[k] plus N(0, sigma_cov[k])
    noise, phi being controller_features of x and the last `lag` controls."""
    gain: np.ndarray       # (K, d_u, d_phi)
    offset: np.ndarray     # (K, d_u)
    sigma_cov: np.ndarray  # (K, d_u, d_u)
    lag: int = 0
    poly_degree: int = 1
    sigma_chol: np.ndarray = field(init=False, repr=False)    # lower factors L of sigma_cov
    sigma_whiten: np.ndarray = field(init=False, repr=False)  # their inverses inv(L)
    sigma_const: np.ndarray = field(init=False, repr=False)   # (K,) d log 2pi + log det

    def __post_init__(self):
        gain, offset = c_copy(self.gain, 3, "gain"), c_copy(self.offset, 2, "offset")
        sig = c_copy(self.sigma_cov, 3, "sigma_cov")
        K, d_u = offset.shape
        if gain.shape[:2] != (K, d_u) or sig.shape != (K, d_u, d_u):
            raise ValueError("gain (K, d_u, d_phi), offset (K, d_u) and "
                             "sigma_cov (K, d_u, d_u) disagree")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if self.poly_degree < 1:
            raise ValueError("poly_degree must be >= 1")
        chol, whiten, const = _factors(sig, "sigma_cov")
        set_frozen(self, gain=gain, offset=offset, sigma_cov=sig, sigma_chol=chol,
                   sigma_whiten=whiten, sigma_const=const)


@dataclass(frozen=True, eq=False)
class HybridModel:
    """K-regime switching linear-Gaussian model. Its blocks hold every regime
    parameter once, stacked on a leading K axis, read-only and with the
    Cholesky factors of their covariances and the inverses of those factors:
    evidence, forecasting, the runtime belief and act read them directly.
    K and d_x are read from init.mu (K, d_x), d_u from dynamics.B, and the
    mode is closed loop exactly when the model carries controllers; the
    constructor checks that the other blocks agree with these sizes."""
    init: InitialModel
    dynamics: Dynamics
    transition: TransitionModel
    controllers: Controllers | None = None
    K: int = field(init=False)
    d_x: int = field(init=False)
    d_u: int = field(init=False)
    mode: str = field(init=False)

    def __post_init__(self):
        K, d_x = self.init.mu.shape
        d_u = self.dynamics.B.shape[2]
        mode = OPEN_LOOP if self.controllers is None else CLOSED_LOOP
        for name, value in (("K", K), ("d_x", d_x), ("d_u", d_u), ("mode", mode)):
            object.__setattr__(self, name, value)
        if self.dynamics.B.shape[:2] != (K, d_x):
            raise ValueError(f"dynamics must be (K, d_x) = ({K}, {d_x}), as init is")
        if (self.transition.K, self.transition.d_x, self.transition.d_u) != (K, d_x, d_u):
            raise ValueError("transition K or dims disagree with the model")
        if self.controllers is not None:
            d_phi = controller_feature_dim(d_x, d_u, self.lag, self.poly_degree)
            if self.controllers.gain.shape != (K, d_u, d_phi):
                raise ValueError(f"controller gain must be (K, d_u, d_phi) = "
                                 f"({K}, {d_u}, {d_phi})")

    @property
    def lag(self) -> int:
        return self.controllers.lag if self.controllers is not None else 0

    @property
    def poly_degree(self) -> int:
        return self.controllers.poly_degree if self.controllers is not None else 1


# -- controller features ------------------------------------------------------

def controller_features(xs, past_us, poly_degree: int) -> np.ndarray:
    """[monomials of x up to poly_degree; past controls, oldest first] of one
    step, x (d_x,) after past_us (lag, d_u), or of a batch, xs (T, d_x) after
    past_us (T, lag, d_u); no constant term (controllers carry an offset)."""
    return np.concatenate([polynomial_features(xs, poly_degree),
                           np.reshape(past_us, np.shape(xs)[:-1] + (-1,))], axis=-1)


def control_history(us, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """(copy of us, (T, lag, d_u) windows): window t holds u_{t-lag} .. u_{t-1},
    zero before step 0. Both view one buffer, `lag` zero rows and then the
    copy, so writing u_t into the copy fills the windows after step t."""
    buf = np.concatenate([np.zeros((lag, us.shape[1])), us])
    windows = np.ndarray((len(us), lag, us.shape[1]), buffer=buf,
                         strides=(buf.strides[0],) + buf.strides)
    windows.flags.writeable = False
    return buf[lag:], windows


def control_means(model: HybridModel, x, past_us) -> np.ndarray:
    """(K, d_u) control-law means of every regime at x after past_us, the last
    `lag` controls ((lag, d_u) or a list of lag vectors, oldest first)."""
    ctl = model.controllers
    past = np.asarray(past_us, dtype=float)
    if past.shape != (ctl.lag, model.d_u) and not (ctl.lag == 0 and past.size == 0):
        raise ValueError(f"past controls must be ({ctl.lag}, {model.d_u}), got {past.shape}")
    return ctl.gain @ controller_features(x, past, ctl.poly_degree) + ctl.offset


# -- likelihood ---------------------------------------------------------------

def log_local_evidence(model: HybridModel, traj: Trajectory) -> np.ndarray:
    """(T, K) log evidence: row t holds, per regime, the log density of arriving
    at x_t (initial Gaussian at t=0) plus, in closed-loop mode, the control
    factor for u_t. Transition factors are handled by the message passing."""
    if traj.d_x != model.d_x or traj.d_u != model.d_u:
        raise ValueError(f"trajectory dims ({traj.d_x}, {traj.d_u}) disagree with "
                         f"model dims ({model.d_x}, {model.d_u})")
    init, dyn, ctl = model.init, model.dynamics, model.controllers
    xs, us = traj.xs, traj.us
    ev = np.empty((traj.T, model.K))
    ev[0] = gauss_logpdf(xs[0] - init.mu, init.omega_whiten, init.omega_const)
    # (K, T-1, d_x) per-regime one-step residuals x_{t+1} - (A x_t + B u_t + c),
    # formed in one buffer so at most two such stacks are alive at a time
    resid = xs[:-1] @ dyn.A.transpose(0, 2, 1)
    resid += us[:-1] @ dyn.B.transpose(0, 2, 1)
    resid += dyn.c[:, None]
    ev[1:] = gauss_logpdf(np.subtract(xs[1:], resid, out=resid), dyn.lam_whiten,
                          dyn.lam_const).T
    if ctl is not None:
        feats = controller_features(xs, control_history(us, ctl.lag)[1], ctl.poly_degree)
        resid = feats @ ctl.gain.transpose(0, 2, 1)
        resid += ctl.offset[:, None]
        ev += gauss_logpdf(np.subtract(us, resid, out=resid), ctl.sigma_whiten,
                           ctl.sigma_const).T
    return ev


# -- persistence --------------------------------------------------------------

def _per_regime(block, names) -> list[dict]:
    """One dict per regime of the named fields of a stacked block."""
    return [{name: getattr(block, name)[k].tolist() for name in names}
            for k in range(len(getattr(block, names[0])))]


def _stacked(blocks, name: str, shape=None) -> np.ndarray:
    """The named field of each per-regime dict, stacked on K (and reshaped
    to (K, *shape) when shape is given)."""
    a = np.asarray([b[name] for b in blocks], dtype=float)
    return a if shape is None else a.reshape(len(blocks), *shape)


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
        "init": _per_regime(model.init, ("mu", "omega_cov")),
        "dynamics": _per_regime(model.dynamics, ("A", "B", "c", "lam_cov")),
        "transition": tblock,
    }
    if model.controllers is not None:
        doc["controllers"] = _per_regime(model.controllers,
                                         ("gain", "offset", "sigma_cov"))
    return doc


def _integer(block: dict, name: str, default=None) -> int:
    """A size field of a model document block: a JSON integer, or default if absent."""
    value = block[name] if default is None else block.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"model field {name!r} must be an integer, got {value!r}")
    return int(value)


def model_from_dict(doc: dict) -> HybridModel:
    """Inverse of model_to_dict; a malformed document raises ValueError, as
    does one whose K, d_x, d_u or mode disagrees with its arrays."""
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    try:
        if _integer(doc, "version") != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported model document version {doc['version']!r}")
        stated = dict(K=_integer(doc, "K"), d_x=_integer(doc, "d_x"),
                      d_u=_integer(doc, "d_u"), mode=doc["mode"])
        init = InitialModel(pi=doc["pi"], mu=_stacked(doc["init"], "mu"),
                            omega_cov=_stacked(doc["init"], "omega_cov"))
        dyn = doc["dynamics"]
        dynamics = Dynamics(A=_stacked(dyn, "A"), B=_stacked(dyn, "B"),
                            c=_stacked(dyn, "c"), lam_cov=_stacked(dyn, "lam_cov"))
        d_x, d_u = dynamics.B.shape[1:]
        tb = doc["transition"]
        if tb.get("per_prev", False):
            # older files may carry "per_prev": false; per-source link weights
            # are no longer supported
            raise ValueError("transition field 'per_prev' is not supported: "
                             "per-source link weights were removed")
        st = tb["standardizer"]
        tm = TransitionModel(kind=tb["kind"], d_x=d_x, d_u=d_u, bias=tb["bias"],
                             feature_params=tb["feature_params"], feat_mean=st["mean"],
                             feat_std=st["std"], degree=_integer(tb, "degree", 1),
                             hidden_units=_integer(tb, "hidden_units", 0))
        controllers = None
        if doc.get("controllers") is not None:
            lag, deg = _integer(doc, "lag", 0), _integer(doc, "poly_degree", 1)
            ctl = doc["controllers"]
            # a d_u = 0 gain or sigma_cov is written as [], which loses its shape
            d_phi = controller_feature_dim(d_x, d_u, lag, deg)
            controllers = Controllers(gain=_stacked(ctl, "gain", (d_u, d_phi)),
                                      offset=_stacked(ctl, "offset"),
                                      sigma_cov=_stacked(ctl, "sigma_cov", (d_u, d_u)),
                                      lag=lag, poly_degree=deg)
        model = HybridModel(init=init, dynamics=dynamics, transition=tm,
                            controllers=controllers)
    except KeyError as e:
        raise ValueError(f"model document lacks field {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed model document: {e}") from e
    for name, value in stated.items():
        if getattr(model, name) != value:
            raise ValueError(f"model field {name!r} is {value!r}, but the model's "
                             f"arrays give {getattr(model, name)!r}")
    return model


def load_model(path) -> HybridModel:
    with open(path) as f:
        try:
            return model_from_dict(json.load(f))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
