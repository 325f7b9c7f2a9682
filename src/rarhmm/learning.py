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
marginals xi once to source mass, destination mass and pair counts
(transition_stats); every objective evaluation then works on (M, K) link
logits and the (K, K) bias (factored objective in transition.py), for every
link kind. The Gaussian M-steps read only the per-trajectory gammas of the
posteriors, the transition M-step only the xis. The k-means initialization
feeds one-hot gammas to the same Gaussian M-steps EM runs (_mstep_gaussians);
it labels every regime, so only the initial-state and dynamics blocks need
fallbacks. The link is sized by its FitConfig spec alone, as
transition.parse_transition_spec resolves it. Covariances are projected onto
the SPD cone with one minimum-eigenvalue floor, COVARIANCE_FLOOR, which is the
constrained argmax, so the monotonicity guarantee survives the projection.
"""
from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import floor_spd, is_integer
from .inference import smooth_dataset
from .model import (CLOSED_LOOP, MODES, OPEN_LOOP, Dataset, HybridModel,
                    Controllers, Dynamics, InitialModel, control_history,
                    controller_features)
from .transition import (TransitionModel, _nll_grad, make_transition,
                         params_to_vector, parse_transition_spec, transition_stats,
                         vector_to_params)

RIDGE = 1e-8
EMPTY_WEIGHT = 1e-12
COVARIANCE_FLOOR = 1e-6   # minimum eigenvalue of every fitted covariance
KMEANS_ITERS = 50
STICKY_LOGIT = 2.0
MAX_EVALS = 25        # transition objective evaluations per M-step
STEP_BOUND = 1.0      # infinity-norm bound on one transition parameter step
NLL_RTOL = 1e-5       # stop once a quasi-Newton step gains less than this, relative


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

    def __post_init__(self):
        parse_transition_spec(self.transition_kind)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        for name, least in (("K", 1), ("lag", 0), ("poly_degree", 1), ("max_iters", 1),
                            ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        tol = self.rel_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (
                np.isfinite(tol) and tol > 0):
            raise ValueError(f"rel_tol must be a finite positive number, got {tol!r}")
        if self.mode == OPEN_LOOP and (self.lag, self.poly_degree) != (0, 1):
            raise ValueError(f"lag and poly_degree shape the controllers of a closed-loop "
                             f"fit; an open-loop fit needs lag 0 and poly_degree 1, got "
                             f"{self.lag} and {self.poly_degree}")


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

    def to_csv(self, include_timings: bool = True, header_lines=()) -> str:
        """CSV text with columns iter, loglik, q_value, seconds.
        include_timings=False writes 0.0 seconds so outputs of identical runs
        are byte-identical."""
        lines = [f"# {h}" for h in header_lines]
        lines.append("iter,loglik,q_value,seconds")
        for i, (ll, q, s) in enumerate(zip(self.loglik, self.q_value, self.seconds)):
            sec = repr(float(s)) if include_timings else "0.0"
            lines.append(f"{i},{ll!r},{q!r},{sec}")
        return "\n".join(lines) + "\n"


# -- initialization ------------------------------------------------------------

def _kmeans(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd iteration, deterministic given the rng, for at most
    KMEANS_ITERS rounds.

    Empty clusters are re-seeded, the first one first (again if a re-seed
    empties one), with the point farthest from its assigned center that no
    re-seed has moved. Once a round ends with the previous round's labels, the
    centers it recomputes are the previous ones, so every later round repeats
    it: the labels are returned there, as the full count would return them.

    A round is a few whole-array calls on the points held dimension-major,
    (D, n), that add in the order of the row-major form
    ((points[:, None] - centers) ** 2).sum(axis=2) and
    points[labels == k].mean(axis=0), so the labels are that form's bit for
    bit. numpy adds a contiguous trailing axis of under 8 values in sequence,
    as a leading-axis sum does, and from 8 (to 127) in 8 running sums added
    pairwise, which the D >= 8 branch repeats. bincount adds a cluster's rows
    in order, as that mean does for D >= 2; for D = 1 the mean adds pairwise,
    so centers, and rarely labels, can differ in the last bit (initialize has
    D = 2 d_x). The lexsort keeps np.unique's rows in its order, up to the
    sign of a zero, which no squared distance sees.
    """
    rows = points[np.lexsort(points.T[::-1])]
    distinct = np.concatenate([rows[:1], rows[1:][(rows[1:] != rows[:-1]).any(axis=1)]])
    if len(distinct) < K:
        raise ValueError(f"k-means needs at least {K} distinct points, "
                         f"got {len(distinct)}")
    centers = distinct[rng.choice(len(distinct), size=K, replace=False)].T   # (D, K)
    cols = np.ascontiguousarray(points.T)
    D, n = cols.shape
    labels = np.zeros(n, dtype=int)
    for round_ in range(KMEANS_ITERS):
        prev = labels
        sq = cols[:, None, :] - centers[:, :, None]                         # (D, K, n)
        sq *= sq
        if D >= 8:   # numpy's 8 running sums, added pairwise
            p = sq[:D - D % 8].reshape(-1, 8, K, n).sum(axis=0)
            head = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
            sq = np.concatenate([head[None], sq[D - D % 8:]])
        d2 = sq.sum(axis=0)
        labels = d2.argmin(axis=0)
        dist_own = d2[labels, np.arange(n)]
        taken: list[int] = []
        while not (counts := np.bincount(labels, minlength=K)).all():
            pick = next(int(i) for i in np.argsort(-dist_own) if int(i) not in taken)
            labels[pick] = np.argmin(counts)   # the first empty cluster
            taken.append(pick)
        if round_ > 0 and np.array_equal(labels, prev):
            return labels
        centers = np.stack([np.bincount(labels, weights=c, minlength=K) for c in cols]) / counts
    return labels


def _dataset_standardizer(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    raw = np.concatenate([np.concatenate([t.xs, t.us], axis=1)
                          for t in dataset.trajectories], axis=0)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std[std == 0] = 1.0
    return mean, std


def _global_initial(dataset: Dataset, K: int) -> InitialModel:
    """Fallback initial Gaussian: global stats of the first states."""
    x1 = np.stack([t.xs[0] for t in dataset.trajectories])
    mu = x1.mean(axis=0)
    cov = floor_spd(np.cov(x1.T, ddof=0).reshape(x1.shape[1], x1.shape[1]),
                    COVARIANCE_FLOOR)
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
    # one-hot gammas; each trajectory's last step repeats its last label
    eye = np.eye(K)
    gammas = []
    ofs = 0
    for traj in dataset.trajectories:
        lab = labels[ofs:ofs + traj.T - 1]
        ofs += traj.T - 1
        gammas.append(eye[np.append(lab, lab[-1])])

    d_x, d_u = dataset.d_x, dataset.d_u
    fallback_dyn = Dynamics(A=np.tile(np.eye(d_x), (K, 1, 1)), B=np.zeros((K, d_x, d_u)),
                            c=np.zeros((K, d_x)),
                            lam_cov=np.tile(COVARIANCE_FLOOR * np.eye(d_x), (K, 1, 1)))
    init, dynamics, controllers = _mstep_gaussians(
        gammas, dataset, config, _global_initial(dataset, K), fallback_dyn, None)

    mean, std = _dataset_standardizer(dataset)
    kind, degree, hidden = parse_transition_spec(config.transition_kind)
    tm = make_transition(kind, K, d_x, d_u, degree=degree, hidden_units=hidden,
                         feat_mean=mean, feat_std=std, bias=STICKY_LOGIT * np.eye(K),
                         rng=rng)
    return HybridModel(init=init, dynamics=dynamics, transition=tm,
                       controllers=controllers)


# -- M-steps -------------------------------------------------------------------

def _mstep_regimes(W: np.ndarray, prev, what: str, fit) -> list[np.ndarray]:
    """fit(k, w, wsum) -> one array per field for each regime k with weight
    column w = W[:, k]; a regime without weight keeps slice k of each array
    in prev (warning). Returns the fields stacked on K."""
    out = []
    for k in range(W.shape[1]):
        w = W[:, k]
        wsum = w.sum()
        if wsum < EMPTY_WEIGHT:
            if prev is None:
                raise ValueError(f"regime {k} has no {what} weight and no "
                                 f"previous parameters to keep")
            warnings.warn(f"regime {k}: no {what} weight, keeping previous parameters")
            out.append([a[k] for a in prev])
            continue
        out.append(fit(k, w, wsum))
    return [np.stack(parts) for parts in zip(*out)]


def _weighted_residual_cov(resid: np.ndarray, w: np.ndarray, wsum: float) -> np.ndarray:
    cov = (w[:, None] * resid).T @ resid / wsum
    return floor_spd(cov, COVARIANCE_FLOOR)


def _weighted_lstsq(X: np.ndarray, Y: np.ndarray, w: np.ndarray, wsum: float,
                    what: str) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares X -> Y and its floored residual covariance."""
    G = X.T @ (w[:, None] * X) + RIDGE * np.eye(X.shape[1])
    try:
        coef = np.linalg.solve(G, X.T @ (w[:, None] * Y))
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"rank-deficient regression for {what}") from e
    if not np.all(np.isfinite(coef)):
        raise FloatingPointError(f"non-finite regression solution for {what}")
    return coef, _weighted_residual_cov(Y - X @ coef, w, wsum)


def mstep_initial(gammas, dataset: Dataset, prev: InitialModel | None = None) -> InitialModel:
    """Initial regime probabilities and per-regime first-state Gaussians from
    gamma_1-weighted statistics; gammas holds one (T, K) array per trajectory.
    Regimes with vanishing weight keep their previous Gaussian (warning)."""
    g1 = np.stack([g[0] for g in gammas])                    # (N, K)
    x1 = np.stack([t.xs[0] for t in dataset.trajectories])   # (N, d_x)
    pi = g1.sum(axis=0)

    def fit(_k, w, wsum):
        mu = w @ x1 / wsum
        return mu, _weighted_residual_cov(x1 - mu, w, wsum)

    keep = None if prev is None else (prev.mu, prev.omega_cov)
    mu, om = _mstep_regimes(g1, keep, "initial-state", fit)
    return InitialModel(pi=pi / pi.sum(), mu=mu, omega_cov=om)


def mstep_dynamics(gammas, dataset: Dataset, prev: Dynamics | None = None) -> Dynamics:
    """Per-regime weighted least squares [x_t; u_t; 1] -> x_{t+1} with weights
    gamma_{t+1}(k); process noise is the weighted residual covariance, floored."""
    d_x, d_u = dataset.d_x, dataset.d_u
    trajs = dataset.trajectories
    X = np.concatenate([np.concatenate([t.xs[:-1], t.us[:-1], np.ones((t.T - 1, 1))],
                                       axis=1) for t in trajs], axis=0)
    Y = np.concatenate([t.xs[1:] for t in trajs], axis=0)

    def fit(k, w, wsum):
        coef, lam = _weighted_lstsq(X, Y, w, wsum, f"dynamics regime {k}")
        return coef[:d_x].T, coef[d_x:d_x + d_u].T, coef[-1], lam

    W = np.concatenate([g[1:] for g in gammas], axis=0)   # (M, K)
    keep = None if prev is None else (prev.A, prev.B, prev.c, prev.lam_cov)
    return Dynamics(*_mstep_regimes(W, keep, "dynamics", fit))


def mstep_controller(gammas, dataset: Dataset, lag: int, poly_degree: int,
                     prev: Controllers | None = None) -> Controllers:
    """Per-regime weighted least squares [phi(x_t, past controls); 1] -> u_t
    with weights gamma_t(k); action noise is the floored residual covariance."""
    feats = np.concatenate([controller_features(t.xs, control_history(t.us, lag)[1],
                                                poly_degree)
                            for t in dataset.trajectories], axis=0)
    X = np.concatenate([feats, np.ones((len(feats), 1))], axis=1)
    U = np.concatenate([t.us for t in dataset.trajectories], axis=0)

    def fit(k, w, wsum):
        coef, sig = _weighted_lstsq(X, U, w, wsum, f"controller regime {k}")
        return coef[:-1].T, coef[-1], sig

    W = np.concatenate(gammas, axis=0)
    keep = None if prev is None else (prev.gain, prev.offset, prev.sigma_cov)
    gain, offset, sig = _mstep_regimes(W, keep, "controller", fit)
    return Controllers(gain=gain, offset=offset, sigma_cov=sig, lag=lag,
                       poly_degree=poly_degree)


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


def mstep_transitions(xis, dataset: Dataset, tm_hat: TransitionModel) -> TransitionModel:
    """Transition update from the pairwise marginals xis, one (T-1, K, K)
    array per trajectory. Stationary links have the closed-form normalized-count
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
    if tm_hat.kind == "stationary":
        counts = sum(xi.sum(axis=0) for xi in xis)           # (K, K) [source, dest]
        probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), EMPTY_WEIGHT)
        bias = np.log(np.maximum(probs.T, 1e-300))           # bias[i, j], column j
        return replace(tm_hat, bias=bias)

    stats = transition_stats(tm_hat, dataset, xis)
    scale = 1.0 / len(stats[0])  # optimize the mean NLL so step sizes are data-size-free

    def objective(v):
        f, g = _nll_grad(tm_hat, v, *stats)
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


def _mstep_gaussians(gammas, dataset: Dataset, config: FitConfig, init,
                     dynamics, controllers):
    """The closed-form M-steps, each regime without weight keeping its block
    of init, dynamics or controllers; controllers are fit in closed loop only.
    Returns the new (init, dynamics, controllers)."""
    init = mstep_initial(gammas, dataset, prev=init)
    dynamics = mstep_dynamics(gammas, dataset, prev=dynamics)
    if config.mode == CLOSED_LOOP:
        controllers = mstep_controller(gammas, dataset, config.lag, config.poly_degree,
                                       prev=controllers)
    return init, dynamics, controllers


def _mstep_all(model: HybridModel, posteriors, dataset: Dataset,
               config: FitConfig) -> HybridModel:
    init, dynamics, controllers = _mstep_gaussians(
        [p.gamma for p in posteriors], dataset, config, model.init, model.dynamics,
        model.controllers)
    tm = mstep_transitions([p.xi for p in posteriors], dataset, model.transition)
    return HybridModel(init=init, dynamics=dynamics, transition=tm,
                       controllers=controllers)


# -- EM driver -----------------------------------------------------------------

_estep_stats = smooth_dataset  # E-step with Q; _run_em looks it up here

# numerical failures a restart absorbs; any other ValueError is a data or code error
_RESTART_ERRORS = (np.linalg.LinAlgError, FloatingPointError, OverflowError)


def _run_em(dataset: Dataset, config: FitConfig, rng: np.random.Generator | None,
            init_model: HybridModel | None):
    model = init_model if init_model is not None else initialize(dataset, config, rng)
    history = FitHistory()
    prev_ll = -np.inf
    # max_iters M-steps at most; the last pass only records the likelihood of
    # the model returned, so the history ends there
    for it in range(config.max_iters + 1):
        t0 = time.perf_counter()
        posteriors, loglik, q = _estep_stats(model, dataset)
        converged = np.isfinite(prev_ll) and \
            (loglik - prev_ll) < config.rel_tol * (1.0 + abs(prev_ll))
        last = converged or it == config.max_iters
        if not last:
            model = _mstep_all(model, posteriors, dataset, config)
        history.append(loglik, q, time.perf_counter() - t0)
        if last:
            break
        prev_ll = loglik
    return model, history


def check_init_model(model: HybridModel, config: FitConfig, dataset: Dataset) -> None:
    """Raise ValueError naming the first field on which a warm-start model
    disagrees with the config or the dataset; EM keeps the model's structure."""
    tm = model.transition
    fields = [("K", model.K, config.K), ("mode", model.mode, config.mode),
              ("transition (kind, degree, hidden units)", (tm.kind, tm.degree, tm.hidden_units),
               parse_transition_spec(config.transition_kind)),
              ("d_x", model.d_x, dataset.d_x), ("d_u", model.d_u, dataset.d_u),
              ("lag", model.lag, config.lag),
              ("poly_degree", model.poly_degree, config.poly_degree)]
    for name, got, want in fields:
        if got != want:
            raise ValueError(f"init model has {name} {got!r}, the fit needs {want!r}")


def fit_em(dataset: Dataset, config: FitConfig,
           init_model: HybridModel | None = None) -> tuple[HybridModel, FitHistory]:
    """Fit by EM with seeded restarts (seeds seed..seed+restarts-1), keeping the
    run with the highest final log-likelihood. Passing init_model skips
    initialization and runs a single EM chain from it."""
    if init_model is not None:
        check_init_model(init_model, config, dataset)
        return _run_em(dataset, config, None, init_model)
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
