"""EM fitting of switching linear-Gaussian models.

The E-step is exact forward-backward smoothing of the whole dataset as one
padded batch (inference.smooth_dataset), which also returns the EM lower bound
Q; Gaussian blocks (initial model, dynamics, controllers) have closed-form
weighted least-squares M-steps. Stationary transition links have a closed form
too; the other links are improved by a few L-BFGS steps on the expected
transition NLL (mstep_transitions). The solver keeps its input unless a step
strictly lowers the NLL, so the observed-data log-likelihood never decreases
beyond floating-point noise. It stops on an evaluation cap or a relative-NLL
test, not at the optimum, which lies at infinity when the posteriors are
nearly hard; a bound on each step keeps the parameters from running off
there within one M-step. Each transition M-step reduces the pairwise
marginals xi once to source mass, destination mass and pair counts; every
objective evaluation then works on (M, K) link logits and the (K, K) bias
(factored objective in transition.py), for every link kind. The k-means
initialization feeds the same M-steps one-hot posteriors. Covariances are
projected onto the SPD cone with a minimum-eigenvalue floor, which is the
constrained argmax, so the monotonicity guarantee survives the projection.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import floor_spd
from .features import controller_feature_dim
from .inference import Posterior, smooth_dataset
from .model import (CLOSED_LOOP, MODES, OPEN_LOOP, Dataset, HybridModel,
                    InitialModel, RegimeController, RegimeDynamics,
                    controller_feature_series)
from .transition import (TransitionModel, _nll_grad_packed, make_transition,
                         params_to_vector, stack_transition_stats,
                         vector_to_params, xi_marginals)

RIDGE = 1e-8
EMPTY_WEIGHT = 1e-12
COVARIANCE_FLOOR = 1e-6   # minimum eigenvalue of every fitted covariance
KMEANS_ITERS = 50
STICKY_LOGIT = 2.0
FEATURE_INIT_SCALE = 0.01
MAX_EVALS = 25        # transition objective evaluations per M-step
STEP_BOUND = 1.0      # infinity-norm bound on one transition parameter step
NLL_RTOL = 1e-5       # stop once a quasi-Newton step gains less than this, relative


def parse_transition_spec(spec: str) -> tuple[str, int | None, int | None]:
    """Parse 'stationary', 'linear', 'polynomial:2', 'perceptron:16' into
    (kind, degree, hidden_units); the numeric parts are None when absent."""
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    degree: int | None = None
    hidden: int | None = None
    if kind == "polynomial":
        degree = int(arg) if arg else None
    elif kind == "perceptron":
        hidden = int(arg) if arg else None
    elif arg:
        raise ValueError(f"transition kind {kind!r} takes no argument")
    return kind, degree, hidden


@dataclass
class FitConfig:
    K: int
    mode: str = OPEN_LOOP
    transition_kind: str = "stationary"
    lag: int = 0
    poly_degree: int = 1
    max_iters: int = 200
    rel_tol: float = 1e-6
    restarts: int = 5
    seed: int = 0
    # filled from transition_kind strings like "perceptron:16"
    transition_degree: int = field(default=1)
    hidden_units: int = field(default=0)

    def __post_init__(self):
        kind, degree, hidden = parse_transition_spec(self.transition_kind)
        self.transition_kind = kind
        if degree is not None:
            self.transition_degree = degree
        if hidden is not None:
            self.hidden_units = hidden
        if kind == "polynomial" and self.transition_degree < 1:
            raise ValueError("polynomial transition needs degree >= 1")
        if kind == "perceptron" and self.hidden_units < 1:
            self.hidden_units = 16
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.K < 1 or self.max_iters < 1 or self.restarts < 1:
            raise ValueError("K, max_iters, restarts must be positive")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.lag < 0 or self.poly_degree < 1:
            raise ValueError("lag >= 0, poly_degree >= 1 required")


@dataclass
class FitHistory:
    loglik: list[float] = field(default_factory=list)
    q_value: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, loglik: float, q_value: float, seconds: float):
        self.loglik.append(float(loglik))
        self.q_value.append(float(q_value))
        self.seconds.append(float(seconds))

    def __len__(self):
        return len(self.loglik)

    def to_csv(self, path=None, include_timings: bool = True, header_lines=()):
        """CSV with columns iter, loglik, q_value, seconds. Returns the text
        when path is None. include_timings=False writes 0.0 seconds so outputs
        of identical runs are byte-identical."""
        lines = [f"# {h}" for h in header_lines]
        lines.append("iter,loglik,q_value,seconds")
        for i, (ll, q, s) in enumerate(zip(self.loglik, self.q_value, self.seconds)):
            sec = repr(float(s)) if include_timings else "0.0"
            lines.append(f"{i},{ll!r},{q!r},{sec}")
        text = "\n".join(lines) + "\n"
        if path is None:
            return text
        with open(path, "w") as f:
            f.write(text)
        return None


# -- initialization ------------------------------------------------------------

def _kmeans(points: np.ndarray, K: int, rng: np.random.Generator,
            iters: int = KMEANS_ITERS) -> np.ndarray:
    """Plain Lloyd iteration, deterministic given the rng, for at most `iters`
    rounds.

    Empty clusters are re-seeded with the point currently farthest from its
    assigned center. Once a round ends with the previous round's labels, the
    centers it recomputes are the previous ones, so every later round repeats
    it: the labels are returned there, as the full count would return them.
    """
    distinct = np.unique(points, axis=0)
    if len(distinct) < K:
        raise ValueError(f"k-means needs at least {K} distinct points, "
                         f"got {len(distinct)}")
    centers = distinct[rng.choice(len(distinct), size=K, replace=False)]
    labels = np.zeros(len(points), dtype=int)
    for round_ in range(iters):
        prev = labels
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        dist_own = d2[np.arange(len(points)), labels]
        taken: list[int] = []
        for k in range(K):
            if not np.any(labels == k):
                order = np.argsort(-dist_own)
                pick = next(int(i) for i in order if int(i) not in taken)
                labels[pick] = k
                taken.append(pick)
        if round_ > 0 and np.array_equal(labels, prev):
            return labels
        for k in range(K):
            centers[k] = points[labels == k].mean(axis=0)
    return labels


def _dataset_standardizer(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    raw = np.concatenate([np.concatenate([t.xs, t.us], axis=1)
                          for t in dataset.trajectories], axis=0)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std[std == 0] = 1.0
    return mean, std


def _global_initial(dataset: Dataset, K: int, floor: float) -> InitialModel:
    """Fallback initial Gaussian: global stats of the first states."""
    x1 = np.stack([t.xs[0] for t in dataset.trajectories])
    mu = x1.mean(axis=0)
    cov = floor_spd(np.cov(x1.T, ddof=0).reshape(x1.shape[1], x1.shape[1]), floor)
    return InitialModel(pi=np.full(K, 1.0 / K), mu=np.tile(mu, (K, 1)),
                        omega_cov=np.tile(cov, (K, 1, 1)))


def initialize(dataset: Dataset, config: FitConfig, rng: np.random.Generator) -> HybridModel:
    """Seeded k-means on [x_t; x_{t+1} - x_t] gives hard responsibilities; one
    M-step from those yields the starting model. Transition bias starts sticky
    (self-logit +2), feature weights small random."""
    K = config.K
    pts = np.concatenate([np.concatenate([t.xs[:-1], np.diff(t.xs, axis=0)], axis=1)
                          for t in dataset.trajectories], axis=0)
    labels = _kmeans(pts, K, rng)
    # one-hot posteriors; each trajectory's last step repeats its last label
    eye = np.eye(K)
    posts = []
    ofs = 0
    for traj in dataset.trajectories:
        lab = labels[ofs:ofs + traj.T - 1]
        ofs += traj.T - 1
        g = eye[np.append(lab, lab[-1])]
        posts.append(Posterior(gamma=g, xi=g[:-1, :, None] * g[1:, None, :],
                               loglik=np.nan))

    floor = COVARIANCE_FLOOR
    fallback_init = _global_initial(dataset, K, floor)
    fallback_dyn = tuple(RegimeDynamics(A=np.eye(dataset.d_x),
                                        B=np.zeros((dataset.d_x, dataset.d_u)),
                                        c=np.zeros(dataset.d_x),
                                        lam_cov=floor * np.eye(dataset.d_x))
                         for _ in range(K))
    init = mstep_initial(posts, dataset, floor, prev=fallback_init)
    dynamics = mstep_dynamics(posts, dataset, floor, prev=fallback_dyn)

    controllers = None
    if config.mode == CLOSED_LOOP:
        d_phi = controller_feature_dim(dataset.d_x, dataset.d_u, config.lag,
                                       config.poly_degree)
        fallback_ctl = tuple(RegimeController(gain=np.zeros((dataset.d_u, d_phi)),
                                              offset=np.zeros(dataset.d_u),
                                              sigma_cov=floor * np.eye(dataset.d_u),
                                              lag=config.lag,
                                              poly_degree=config.poly_degree)
                             for _ in range(K))
        controllers = mstep_controller(posts, dataset, config.lag, config.poly_degree,
                                       floor, prev=fallback_ctl)

    mean, std = _dataset_standardizer(dataset)
    tm = make_transition(config.transition_kind, K, dataset.d_x, dataset.d_u,
                         degree=config.transition_degree,
                         hidden_units=config.hidden_units,
                         feat_mean=mean, feat_std=std,
                         bias=STICKY_LOGIT * np.eye(K),
                         rng=rng, init_scale=FEATURE_INIT_SCALE)
    return HybridModel(K=K, d_x=dataset.d_x, d_u=dataset.d_u, mode=config.mode,
                       init=init, dynamics=dynamics, transition=tm,
                       controllers=controllers)


# -- M-steps -------------------------------------------------------------------

def _mstep_regimes(W: np.ndarray, prev, what: str, fit) -> list:
    """fit(k, w, wsum) for each regime k with weight column w = W[:, k]. A
    regime without weight keeps prev[k] (warning)."""
    out = []
    for k in range(W.shape[1]):
        w = W[:, k]
        wsum = w.sum()
        if wsum < EMPTY_WEIGHT:
            if prev is None:
                raise ValueError(f"regime {k} has no {what} weight and no "
                                 f"previous parameters to keep")
            warnings.warn(f"regime {k}: no {what} weight, keeping previous parameters")
            out.append(prev[k])
            continue
        out.append(fit(k, w, wsum))
    return out


def _weighted_residual_cov(resid: np.ndarray, w: np.ndarray, wsum: float,
                           floor: float) -> np.ndarray:
    cov = (w[:, None] * resid).T @ resid / wsum
    return floor_spd(cov, floor)


def _weighted_lstsq(X: np.ndarray, Y: np.ndarray, w: np.ndarray, wsum: float,
                    floor: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares X -> Y and its floored residual covariance."""
    G = X.T @ (w[:, None] * X) + RIDGE * np.eye(X.shape[1])
    try:
        coef = np.linalg.solve(G, X.T @ (w[:, None] * Y))
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"rank-deficient regression for {what}") from e
    if not np.all(np.isfinite(coef)):
        raise FloatingPointError(f"non-finite regression solution for {what}")
    return coef, _weighted_residual_cov(Y - X @ coef, w, wsum, floor)


def mstep_initial(posteriors, dataset: Dataset, floor: float,
                  prev: InitialModel | None = None) -> InitialModel:
    """Initial regime probabilities and per-regime first-state Gaussians from
    gamma_1-weighted statistics. Regimes with vanishing weight keep their
    previous Gaussian (warning)."""
    g1 = np.stack([p.gamma[0] for p in posteriors])          # (N, K)
    x1 = np.stack([t.xs[0] for t in dataset.trajectories])   # (N, d_x)
    pi = g1.sum(axis=0)

    def fit(k, w, wsum):
        mu = w @ x1 / wsum
        return mu, _weighted_residual_cov(x1 - mu, w, wsum, floor)

    keep = None if prev is None else list(zip(prev.mu, prev.omega_cov))
    mu, om = zip(*_mstep_regimes(g1, keep, "initial-state", fit))
    return InitialModel(pi=pi / pi.sum(), mu=np.array(mu), omega_cov=np.array(om))


def mstep_dynamics(posteriors, dataset: Dataset, floor: float,
                   prev=None) -> tuple[RegimeDynamics, ...]:
    """Per-regime weighted least squares [x_t; u_t; 1] -> x_{t+1} with weights
    gamma_{t+1}(k); process noise is the weighted residual covariance, floored."""
    d_x, d_u = dataset.d_x, dataset.d_u
    trajs = dataset.trajectories
    X = np.concatenate([np.concatenate([t.xs[:-1], t.us[:-1], np.ones((t.T - 1, 1))],
                                       axis=1) for t in trajs], axis=0)
    Y = np.concatenate([t.xs[1:] for t in trajs], axis=0)

    def fit(k, w, wsum):
        coef, lam = _weighted_lstsq(X, Y, w, wsum, floor, f"dynamics regime {k}")
        return RegimeDynamics(A=coef[:d_x].T, B=coef[d_x:d_x + d_u].T, c=coef[-1],
                              lam_cov=lam)

    W = np.concatenate([p.gamma[1:] for p in posteriors], axis=0)  # (M, K)
    return tuple(_mstep_regimes(W, prev, "dynamics", fit))


def mstep_controller(posteriors, dataset: Dataset, lag: int, poly_degree: int,
                     floor: float, prev=None) -> tuple[RegimeController, ...]:
    """Per-regime weighted least squares [phi(x_t, past controls); 1] -> u_t
    with weights gamma_t(k); action noise is the floored residual covariance."""
    feats = np.concatenate([controller_feature_series(t.xs, t.us, lag, poly_degree)
                            for t in dataset.trajectories], axis=0)
    X = np.concatenate([feats, np.ones((len(feats), 1))], axis=1)
    U = np.concatenate([t.us for t in dataset.trajectories], axis=0)

    def fit(k, w, wsum):
        coef, sig = _weighted_lstsq(X, U, w, wsum, floor, f"controller regime {k}")
        return RegimeController(gain=coef[:-1].T, offset=coef[-1], sigma_cov=sig,
                                lag=lag, poly_degree=poly_degree)

    W = np.concatenate([p.gamma for p in posteriors], axis=0)
    return tuple(_mstep_regimes(W, prev, "controller", fit))


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the L-BFGS two-loop recursion over the (s, y, 1 / s'y)
    triples, oldest first, with the initial inverse Hessian scaled by
    s'y / y'y of the newest pair (Nocedal & Wright, Algorithm 7.4). Without
    pairs it is -grad."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(np.dot(s, q))
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(np.dot(y, y)))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(np.dot(y, q))) * s
    return -q


def mstep_transitions(posteriors, dataset: Dataset,
                      tm_hat: TransitionModel) -> TransitionModel:
    """Transition update. Stationary links have the closed-form normalized-count
    solution; other kinds take L-BFGS steps on the mean expected transition
    NLL and return the last accepted iterate, or tm_hat itself if no step was
    accepted (generalized EM: improvement, not the optimum, keeps EM monotone).

    The unregularized optimum lies at infinity when the posteriors are nearly
    hard, so the solver stops instead of converging: after MAX_EVALS objective
    evaluations (the one at tm_hat included), when a line search finds no
    acceptable step, or when an accepted quasi-Newton step lowers the NLL by
    less than NLL_RTOL relative. Every step is at most STEP_BOUND in the
    infinity norm. The first one, along the steepest descent, is scaled to
    exactly that length; since that length is a guess, its gain is not taken
    as a sign of convergence. Armijo backtracking halves the step from t = 1;
    a candidate is accepted only if its gradient is finite and its NLL
    strictly lower. Every accepted pair with positive curvature s'y enters the
    two-loop recursion, which keeps the inverse-Hessian estimate positive
    definite; MAX_EVALS bounds their number.

    The marginals of xi the objective reads (source mass, destination mass,
    pair counts) are computed once here, not per evaluation. Each evaluation
    is then factored: (M, K) link logits against the (K, K) bias, with an
    exact log-sum-exp for the few normalizer entries that underflow."""
    xis = [p.xi for p in posteriors]
    if tm_hat.kind == "stationary":
        counts = sum(xi.sum(axis=0) for xi in xis)           # (K, K) [source, dest]
        probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), EMPTY_WEIGHT)
        bias = np.log(np.maximum(probs.T, 1e-300))           # bias[i, j], column j
        return replace(tm_hat, bias=bias)

    feats, xi_di = stack_transition_stats(tm_hat, dataset, xis)
    marginals = xi_marginals(xi_di)
    scale = 1.0 / len(feats)  # optimize the mean NLL so step sizes are data-size-free

    def objective(v):
        f, g = _nll_grad_packed(tm_hat, v, feats, xi_di, marginals)
        return f * scale, g * scale

    vec = params_to_vector(tm_hat)
    nll, grad = objective(vec)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(
            f"non-finite transition gradient (kind={tm_hat.kind}, "
            f"|params|={np.abs(vec).max():.3e}, nll={nll:.6e})")
    evals, improved, pairs = 1, False, []
    while evals < MAX_EVALS:
        d = _lbfgs_direction(grad, pairs)
        d_max = np.abs(d).max()
        if d_max == 0.0:
            break                                 # stationary point
        if not pairs or d_max > STEP_BOUND:
            d *= STEP_BOUND / d_max
        slope = grad @ d
        t, accepted = 1.0, False
        while evals < MAX_EVALS:
            cand = vec + t * d
            cand_nll, cand_grad = objective(cand)
            evals += 1
            # Armijo sufficient decrease (c1 = 1e-4, Nocedal & Wright 3.4)
            if (cand_nll < nll and cand_nll <= nll + 1e-4 * t * slope
                    and np.all(np.isfinite(cand_grad))):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        small = bool(pairs) and nll - cand_nll < NLL_RTOL * abs(nll)
        s, y = cand - vec, cand_grad - grad
        sy = float(np.dot(s, y))
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        vec, nll, grad, improved = cand, cand_nll, cand_grad, True
        if small:
            break
    if not improved:
        return tm_hat
    return vector_to_params(tm_hat, vec)


def _mstep_all(model: HybridModel, posteriors, dataset: Dataset,
               config: FitConfig) -> HybridModel:
    floor = COVARIANCE_FLOOR
    init = mstep_initial(posteriors, dataset, floor, prev=model.init)
    dynamics = mstep_dynamics(posteriors, dataset, floor, prev=model.dynamics)
    controllers = None
    if model.mode == CLOSED_LOOP:
        controllers = mstep_controller(posteriors, dataset, config.lag,
                                       config.poly_degree, floor,
                                       prev=model.controllers)
    tm = mstep_transitions(posteriors, dataset, model.transition)
    return HybridModel(K=model.K, d_x=model.d_x, d_u=model.d_u, mode=model.mode,
                       init=init, dynamics=dynamics, transition=tm,
                       controllers=controllers)


# -- EM driver -----------------------------------------------------------------

_estep_stats = smooth_dataset  # E-step with Q; _run_em looks it up here

_RESTART_ERRORS = (np.linalg.LinAlgError, FloatingPointError, ValueError,
                   RuntimeError, OverflowError)


def _run_em(dataset: Dataset, config: FitConfig, rng: np.random.Generator,
            init_model: HybridModel | None):
    model = init_model if init_model is not None else initialize(dataset, config, rng)
    history = FitHistory()
    prev_ll = -np.inf
    converged = False
    for _ in range(config.max_iters):
        t0 = time.perf_counter()
        posteriors, loglik, q = _estep_stats(model, dataset)
        converged = np.isfinite(prev_ll) and \
            (loglik - prev_ll) < config.rel_tol * (1.0 + abs(prev_ll))
        if not converged:
            model = _mstep_all(model, posteriors, dataset, config)
        history.append(loglik, q, time.perf_counter() - t0)
        if converged:
            break
        prev_ll = loglik
    if not converged:
        # max_iters exhausted after an M-step: record the returned model's
        # likelihood so the history ends at the model actually returned
        t0 = time.perf_counter()
        _, loglik, q = _estep_stats(model, dataset)
        history.append(loglik, q, time.perf_counter() - t0)
    return model, history


def fit_em(dataset: Dataset, config: FitConfig,
           init_model: HybridModel | None = None) -> tuple[HybridModel, FitHistory]:
    """Fit by EM with seeded restarts (seeds seed..seed+restarts-1), keeping the
    run with the highest final log-likelihood. Passing init_model skips
    initialization and runs a single EM chain from it."""
    if init_model is not None:
        return _run_em(dataset, config, np.random.default_rng(config.seed), init_model)
    best = None
    errors: list[str] = []
    for r in range(config.restarts):
        rng = np.random.default_rng(config.seed + r)
        try:
            model, history = _run_em(dataset, config, rng, None)
        except _RESTART_ERRORS as e:
            warnings.warn(f"restart {r} (seed {config.seed + r}) failed: {e}")
            errors.append(f"seed {config.seed + r}: {e}")
            continue
        if best is None or history.loglik[-1] > best[1].loglik[-1]:
            best = (model, history)
    if best is None:
        raise RuntimeError("all EM restarts failed: " + "; ".join(errors))
    return best
