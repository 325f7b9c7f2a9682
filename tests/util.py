"""Shared builders for randomized test instances, and the reference
implementations the library is checked against."""
import itertools
import json
from dataclasses import replace

import numpy as np

from rarhmm._linalg import LOG2PI
from rarhmm.envs import (CAPTURE_ANGLE, CART_CAPTURE_VEL, CART_CENTER_GAINS,
                         CART_PUMP_GAIN, CART_STAB_GAINS, PEND_CAPTURE_VEL,
                         PEND_PUMP_GAIN, PEND_PUMP_MARGIN, PEND_STAB_GAINS,
                         env_dims, hanging_state, wrap_angle)
from rarhmm.features import controller_feature_dim, polynomial_features
from rarhmm.inference import Posterior, _backward_batch, _forward_batch, smooth_dataset
from rarhmm.model import (CLOSED_LOOP, OPEN_LOOP, Controllers, Dataset, Dynamics,
                          HybridModel, InitialModel, Trajectory,
                          log_local_evidence, model_to_dict)
from rarhmm.policy import ACT_ARGMAX, ACT_MEAN, _check_belief, rollout
from rarhmm.transition import (_link_logits, _nll_grad, make_transition,
                               params_to_vector, transition_features,
                               transition_matrices, vector_to_params)


def logsumexp(a, axis=None):
    """log sum exp over axis (all entries when None); all -inf rows stay -inf."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def mvn_logpdf(x, mean, cov):
    """Log density of N(mean, cov) at a point x (d,) or at rows x (T, d),
    factorizing cov and inverting its factor on every call, then whitening
    the residuals as columns as the library does with its cached inverse
    factors. The per-covariance reference for the library's densities."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[-1]
    if d == 0:
        return np.zeros(x.shape[:-1])
    L = np.linalg.cholesky(cov)
    z = np.linalg.inv(L.T).T.copy() @ (x - mean).T      # (d,) or (d, T)
    maha = np.sum(z * z, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (d * LOG2PI + logdet + maha)


def solve_mvn_logpdf(x, mean, cov):
    """Log density of N(mean, cov) at x by a triangular solve against the
    Cholesky factor of cov, with no inverse formed; x and mean broadcast over
    leading axes. The independent check of the whitened densities."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[-1]
    if d == 0:
        return np.zeros(x.shape[:-1])
    L = np.linalg.cholesky(cov)
    resid = x - mean
    z = np.linalg.solve(L, resid[..., None])[..., 0]
    maha = np.sum(z * z, axis=-1)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (d * LOG2PI + logdet + maha)


def mvn_sample(rng, mean, cov):
    """One draw of N(mean, cov), factorizing cov on every call: the reference
    for the library's draws from cached factors."""
    mean = np.asarray(mean, dtype=float)
    if mean.shape[-1] == 0:
        return np.zeros_like(mean)
    L = np.linalg.cholesky(cov)
    return mean + L @ rng.standard_normal(mean.shape[-1])


def reference_polynomial_features(x, degree):
    """Monomial features as the library computed them before its index
    product: one column per exponent vector e, np.prod(x ** e), in
    combinations-with-replacement order."""
    x = np.asarray(x, dtype=float)
    if degree == 1:
        return x.copy()
    exponents = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(x.shape[-1]), total):
            e = [0] * x.shape[-1]
            for i in combo:
                e[i] += 1
            exponents.append(e)
    return np.stack([np.prod(x ** np.asarray(e), axis=-1) for e in exponents], axis=-1)


def reference_controller_feature_series(xs, us, lag, poly_degree):
    """(T, d_phi) controller features of a whole trajectory as the library
    built them from shifted copies of the controls: [monomials of x_t;
    u_{t-lag} .. u_{t-1}], zero before step 0."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    us = np.asarray(us, dtype=float)
    parts = [polynomial_features(xs, poly_degree)]
    for back in range(lag, 0, -1):  # u_{t-lag} ... u_{t-1}
        shifted = np.zeros_like(us)
        shifted[back:] = us[:-back]
        parts.append(shifted)
    return np.concatenate(parts, axis=1)


def reference_control_mean(model, k, x, past_us):
    """Regime k's control law evaluated from its own slice of the controllers,
    on the features of x and the list of past controls, oldest first."""
    ctl = model.controllers
    phi = np.concatenate([polynomial_features(np.asarray(x, dtype=float), ctl.poly_degree),
                          *(np.ravel(u) for u in past_us)])
    return ctl.gain[k] @ phi + ctl.offset[k]


def random_spd(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * (m @ m.T / d + np.eye(d))


def random_model(K=2, d_x=2, d_u=1, mode=OPEN_LOOP, kind="linear", seed=0,
                 lag=0, poly_degree=1, degree=2, hidden_units=4, noise_scale=0.05):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.full(K, 5.0))
    init = InitialModel(
        pi=pi,
        mu=rng.normal(size=(K, d_x)),
        omega_cov=np.stack([random_spd(rng, d_x, 0.3) for _ in range(K)]),
    )
    regimes = []   # (A, B, c, lam_cov) of each regime, drawn one regime at a time
    for _ in range(K):
        a = rng.standard_normal((d_x, d_x))
        a *= 0.85 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-6)
        regimes.append((a, 0.3 * rng.standard_normal((d_x, d_u)),
                        0.2 * rng.standard_normal(d_x),
                        random_spd(rng, d_x, noise_scale ** 2)))
    dynamics = Dynamics(*(np.stack(f) for f in zip(*regimes)))
    controllers = None
    if mode == CLOSED_LOOP:
        d_phi = controller_feature_dim(d_x, d_u, lag, poly_degree)
        laws = [(0.3 * rng.standard_normal((d_u, d_phi)), 0.1 * rng.standard_normal(d_u),
                 random_spd(rng, d_u, noise_scale ** 2)) for _ in range(K)]
        gain, offset, sigma_cov = (np.stack(f) for f in zip(*laws))
        controllers = Controllers(gain, offset, sigma_cov, lag=lag,
                                  poly_degree=poly_degree)
    tm = make_transition(kind, K, d_x, d_u, degree=degree,
                         hidden_units=hidden_units,
                         bias=0.5 * rng.standard_normal((K, K)))
    tm = replace(tm, feature_params=0.5 * rng.standard_normal(tm.feature_params.size))
    return HybridModel(init=init, dynamics=dynamics, transition=tm,
                       controllers=controllers)


def underflowing_link_model(K=3, d_x=2, d_u=1, seed=0):
    """A random perceptron-link model whose bias columns and link logits spread
    by 1000 nats in opposite directions: regime 0's bias row is raised by 1000
    and its output offset b2[0] lowered by 1000. Its link matrices are those
    of the unshifted model to rounding, but every entry of the link's shifted
    normalizer Zs (the transition module docstring) underflows to 0."""
    model = random_model(K=K, d_x=d_x, d_u=d_u, kind="perceptron", seed=seed)
    tm = model.transition
    bias, params = tm.bias.copy(), tm.feature_params.copy()
    bias[0] += 1000.0
    params[-K] -= 1000.0        # the last K parameters are the output offsets b2
    return replace(model, transition=replace(tm, bias=bias, feature_params=params))


def random_trajectory(model, T=8, seed=0, dt=0.1):
    rng = np.random.default_rng(seed)
    exo = None
    if model.mode == OPEN_LOOP:
        exo = 0.5 * rng.standard_normal((T, model.d_u))
    xs, us, zs = reference_sample_trajectory(model, T, rng, exogenous_us=exo)
    return Trajectory(xs=xs, us=us, dt=dt, id=f"t{seed}"), zs


def random_dataset(model, n=3, T=8, seed=0, dt=0.1):
    trajs = [random_trajectory(model, T=T, seed=seed + i, dt=dt)[0] for i in range(n)]
    return Dataset(trajs)


def random_xis(rng, T, K):
    """Random valid pairwise marginals: each (K, K) slice sums to 1."""
    xi = rng.dirichlet(np.ones(K * K), size=T - 1).reshape(T - 1, K, K)
    return xi


def reference_stack_transition_stats(tm, dataset, xis):
    """Link features (M, F) and the destination-major xi stack xi_di
    (M, K, K), xi_di[m, i, j] the expected count of j -> i at stacked step m,
    as the library stacked them before transition_stats."""
    feats, xs = [], []
    for traj, xi in zip(dataset.trajectories, xis):
        feats.append(transition_features(tm, traj.xs[:-1], traj.us[:-1]))
        xs.append(np.swapaxes(xi, 1, 2))
    return np.concatenate(feats, axis=0), np.concatenate(xs, axis=0)


def reference_transition_stats(tm, dataset, xis):
    """(feats, src, dest, pairs) by the old path: the xi_di stack, then its
    source mass, destination mass and pair counts through one contiguous
    (K, K, M) transpose."""
    feats, xi_di = reference_stack_transition_stats(tm, dataset, xis)
    xi_ijm = np.ascontiguousarray(xi_di.transpose(1, 2, 0))
    return feats, xi_ijm.sum(axis=0), xi_ijm.sum(axis=1), xi_ijm.sum(axis=2)


def tensor_nll_grad(tm, vec, feats, xi_di):
    """Reference expected transition NLL and gradient that builds the full
    (M, K, K) logits [m, i, j] (destination i, source j) and normalizes them
    over i, as the objective is defined; vec is bias (row-major) then
    feature_params, feats and xi_di come from reference_stack_transition_stats."""
    K = tm.K
    M, F = feats.shape
    bias, p = vec[:K * K].reshape(K, K), vec[K * K:]
    H = tm.hidden_units
    if tm.kind == "stationary":
        logits = np.broadcast_to(bias, (M, K, K))
    elif tm.kind in ("linear", "polynomial"):
        logits = bias + (feats @ p.reshape(K, F).T)[:, :, None]
    else:
        w1 = p[:H * F].reshape(H, F)
        b1 = p[H * F:H * F + H]
        w2 = p[H * F + H:H * F + H + K * H].reshape(K, H)
        b2 = p[H * F + H + K * H:]
        h = np.tanh(feats @ w1.T + b1)
        logits = bias + (h @ w2.T + b2)[:, :, None]
    top = logits.max(axis=1, keepdims=True)
    logpsi = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    nll = -float(np.sum(xi_di * logpsi))
    # d nll / d logits[m, i, j] = (sum_i' xi_di[m, i', j]) psi[m, i, j] - xi_di[m, i, j]
    g = xi_di.sum(axis=1)[:, None, :] * np.exp(logpsi) - xi_di
    parts = [g.sum(axis=0).ravel()]
    g_dest = g.sum(axis=2)
    if tm.kind in ("linear", "polynomial"):
        parts.append((g_dest.T @ feats).ravel())
    elif tm.kind == "perceptron":
        back = (g_dest @ w2) * (1.0 - h * h)
        parts += [(back.T @ feats).ravel(), back.sum(axis=0),
                  (g_dest.T @ h).ravel(), g_dest.sum(axis=0)]
    return nll, np.concatenate(parts)


def reference_transition_matrices(tm, xs, us):
    """Link matrices from source-major (M, K, K) logits [m, i, j], normalized
    over the destination axis 1, as the library built them before its
    destination-major layout."""
    feats = transition_features(tm, xs, us)
    logits = np.empty((len(feats), tm.K, tm.K))
    logits[...] = tm.bias
    if tm.kind != "stationary":
        logits += _link_logits(tm, feats, tm.feature_params)[0][:, :, None]
    z = logits - logits.max(axis=1, keepdims=True)
    return np.exp(z - np.log(np.sum(np.exp(z), axis=1, keepdims=True)))


def reference_gd_mstep(xis, dataset, tm_hat):
    """Transition M-step by gradient descent with backtracking, as the library
    did before its L-BFGS solver: up to 100 steps on the mean expected NLL,
    the first trial length 0.01 / max|grad|, doubled after each accepted step
    and halved up to 20 times per step; tm_hat itself when no step is
    accepted."""
    stats = reference_transition_stats(tm_hat, dataset, xis)
    scale = 1.0 / len(stats[0])
    vec = params_to_vector(tm_hat)
    nll, grad = _nll_grad(tm_hat, vec, *stats)
    nll, grad = nll * scale, grad * scale
    step = 1e-2 / max(np.abs(grad).max(), 1e-12)
    improved = False
    for _ in range(100):
        accepted = False
        trial = step
        for _ in range(21):
            cand = vec - trial * grad
            cand_nll, cand_grad = _nll_grad(tm_hat, cand, *stats)
            cand_nll, cand_grad = cand_nll * scale, cand_grad * scale
            if cand_nll < nll and np.all(np.isfinite(cand_grad)):
                vec, nll, grad = cand, cand_nll, cand_grad
                step = trial * 2.0
                accepted = improved = True
                break
            trial *= 0.5
        if not accepted:
            break
    return vector_to_params(tm_hat, vec) if improved else tm_hat


def reference_log_local_evidence(model, traj):
    """(T, K) local evidence one regime at a time, each density through
    mvn_logpdf, which factorizes its covariance on every call."""
    ev = np.empty((traj.T, model.K))
    dyn, ctl = model.dynamics, model.controllers
    for k in range(model.K):
        ev[0, k] = mvn_logpdf(traj.xs[0], model.init.mu[k], model.init.omega_cov[k])
        means = traj.xs[:-1] @ dyn.A[k].T + traj.us[:-1] @ dyn.B[k].T + dyn.c[k]
        ev[1:, k] = mvn_logpdf(traj.xs[1:], means, dyn.lam_cov[k])
    if model.mode == CLOSED_LOOP:
        feats = reference_controller_feature_series(traj.xs, traj.us, model.lag,
                                                    model.poly_degree)
        for k in range(model.K):
            ev[:, k] += mvn_logpdf(traj.us, feats @ ctl.gain[k].T + ctl.offset[k],
                                   ctl.sigma_cov[k])
    return ev


def reference_sample_trajectory(model, T, rng, exogenous_us=None, z_burnin=None,
                                deterministic=False):
    """Roll the generative model forward for T steps, draw by draw from each
    regime's own parameters through mvn_sample: the first regime from pi (or
    z_burnin), each later one from the link's column of the current regime at
    the previous state and control, the state from the arriving regime's
    dynamics and, in closed-loop mode, the control from its law. Open-loop
    mode reads exogenous_us (T, d_u); deterministic drops every Gaussian
    noise (regimes are still drawn). Returns (xs, us, zs)."""
    z = int(z_burnin) if z_burnin is not None else int(rng.choice(model.K, p=model.init.pi))
    if deterministic:
        x = model.init.mu[z].copy()
    else:
        x = mvn_sample(rng, model.init.mu[z], model.init.omega_cov[z])
    past = [np.zeros(model.d_u)] * model.lag
    xs, us, zs = np.empty((T, model.d_x)), np.empty((T, model.d_u)), np.empty(T, dtype=int)
    for t in range(T):
        if t > 0:
            probs = transition_matrices(model.transition, xs[t - 1:t], us[t - 1:t])[0, :, z]
            z = int(rng.choice(model.K, p=probs))
            dyn = model.dynamics
            x = dyn.A[z] @ xs[t - 1] + dyn.B[z] @ us[t - 1] + dyn.c[z]
            if not deterministic:
                x = mvn_sample(rng, x, dyn.lam_cov[z])
        zs[t], xs[t] = z, x
        if model.mode == OPEN_LOOP:
            us[t] = exogenous_us[t]
        else:
            us[t] = reference_control_mean(model, z, x, past)
            if not deterministic:
                us[t] = mvn_sample(rng, us[t], model.controllers.sigma_cov[z])
        if model.lag > 0:
            past = past[1:] + [us[t].copy()]
    return xs, us, zs


def reference_belief_step(model, b, x_prev, u_prev, x_next):
    """Runtime belief update written one regime at a time: link prediction,
    then each regime's dynamics density through mvn_logpdf."""
    pred = transition_matrices(model.transition, x_prev[None], u_prev[None])[0] @ b
    d = model.dynamics
    le = np.array([mvn_logpdf(x_next, d.A[k] @ x_prev + d.B[k] @ u_prev + d.c[k],
                              d.lam_cov[k]) for k in range(model.K)])
    lb = np.log(np.maximum(pred, 1e-300)) + le
    norm = logsumexp(lb)
    if not np.isfinite(norm):
        raise FloatingPointError("belief update collapsed: impossible evidence")
    return np.exp(lb - norm)


def reference_act(model, belief, x, past_us, mode=ACT_MEAN, rng=None):
    """Switching-policy action with each regime's law evaluated on its own."""
    b = _check_belief(model, belief)
    if mode == ACT_MEAN:
        u = np.zeros(model.d_u)
        for k in range(model.K):
            u += b[k] * reference_control_mean(model, k, x, past_us)
        return u, int(np.argmax(b))
    if mode == ACT_ARGMAX:
        k = int(np.argmax(b))
        return reference_control_mean(model, k, x, past_us), k
    k = int(rng.choice(model.K, p=b))
    return mvn_sample(rng, reference_control_mean(model, k, x, past_us),
                      model.controllers.sigma_cov[k]), k

def models_equal(a: HybridModel, b: HybridModel) -> bool:
    """Bit-exact equality of every parameter and structural setting."""
    if (a.K, a.d_x, a.d_u, a.mode, a.lag, a.poly_degree) != \
            (b.K, b.d_x, b.d_u, b.mode, b.lag, b.poly_degree):
        return False
    same = (np.array_equal(a.init.pi, b.init.pi)
            and np.array_equal(a.init.mu, b.init.mu)
            and np.array_equal(a.init.omega_cov, b.init.omega_cov))
    same = same and all(np.array_equal(getattr(a.dynamics, f), getattr(b.dynamics, f))
                        for f in ("A", "B", "c", "lam_cov"))
    if (a.controllers is None) != (b.controllers is None):
        return False
    if a.controllers is not None:
        same = same and all(np.array_equal(getattr(a.controllers, f),
                                           getattr(b.controllers, f))
                            for f in ("gain", "offset", "sigma_cov"))
    ta, tb = a.transition, b.transition
    same = same and (ta.kind, ta.degree, ta.hidden_units) == \
        (tb.kind, tb.degree, tb.hidden_units)
    same = same and all(np.array_equal(getattr(ta, f), getattr(tb, f))
                        for f in ("bias", "feature_params", "feat_mean", "feat_std"))
    return bool(same)


BRUTE_FORCE_MAX_PATHS = 10 ** 6


def brute_force_posterior(model: HybridModel, traj: Trajectory) -> Posterior:
    """Exact posterior by enumerating all K^T regime paths: the correctness
    oracle for smoothing.

    Refuses instances with more than 10^6 paths.
    """
    ev, trans = local_quantities(model, traj)
    T, K = ev.shape
    n_paths = K ** T
    if n_paths > BRUTE_FORCE_MAX_PATHS:
        raise ValueError(f"K^T = {n_paths} exceeds the brute-force budget")
    paths = np.array(list(itertools.product(range(K), repeat=T)), dtype=int)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.init.pi)
        log_trans = np.log(trans)
    logp = log_pi[paths[:, 0]].copy()
    for t in range(T):
        logp += ev[t, paths[:, t]]
    for t in range(T - 1):
        logp += log_trans[t, paths[:, t + 1], paths[:, t]]
    loglik = logsumexp(logp)
    post = np.exp(logp - loglik)
    gamma = np.zeros((T, K))
    for t in range(T):
        for k in range(K):
            gamma[t, k] = post[paths[:, t] == k].sum()
    xi = np.zeros((T - 1, K, K))
    for t in range(T - 1):
        for j in range(K):
            for i in range(K):
                xi[t, j, i] = post[(paths[:, t] == j) & (paths[:, t + 1] == i)].sum()
    return Posterior(gamma=gamma, xi=xi, loglik=float(loglik))


def viterbi(model: HybridModel, traj: Trajectory) -> np.ndarray:
    """Most likely regime path."""
    ev, trans = local_quantities(model, traj)
    T, K = ev.shape
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.init.pi)
        log_trans = np.log(trans)
    delta = log_pi + ev[0]
    back = np.zeros((T, K), dtype=int)
    for t in range(1, T):
        scores = log_trans[t - 1] + delta[None, :]   # [i, j] = trans j->i + delta_j
        back[t] = np.argmax(scores, axis=1)
        delta = ev[t] + np.max(scores, axis=1)
    path = np.empty(T, dtype=int)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 2, -1, -1):
        path[t] = back[t + 1][path[t + 1]]
    return path


def local_quantities(model: HybridModel, traj: Trajectory):
    """Log evidence (T, K) and transition matrices (T-1, K, K) of one
    trajectory, the link evaluated at each source step (x_t, u_t)."""
    return (log_local_evidence(model, traj),
            transition_matrices(model.transition, traj.xs[:-1], traj.us[:-1]))


def forward_pass(evidence, trans_mats, pi):
    """Scaled forward recursion of one trajectory, a batch of one through the
    library's core: (alpha_hat (T, K) row-normalized filtered beliefs,
    log_norms (T,), loglik = their sum)."""
    ev = np.asarray(evidence, dtype=float)[None]
    alpha, log_norms = _forward_batch(ev, np.asarray(trans_mats, dtype=float)[None],
                                      np.asarray(pi, dtype=float),
                                      np.zeros(ev.shape[:2], dtype=bool))
    return alpha[0], log_norms[0], float(log_norms[0].sum())


def filter_one(model: HybridModel, traj: Trajectory) -> np.ndarray:
    """Filtered beliefs (T, K) of one trajectory through forward_pass."""
    return forward_pass(*local_quantities(model, traj), model.init.pi)[0]


def smooth(model: HybridModel, traj: Trajectory) -> Posterior:
    """Full forward-backward smoothing of one trajectory: smooth_dataset of
    the dataset holding it alone."""
    posteriors, _, _ = smooth_dataset(model, Dataset((traj,)))
    return posteriors[0]


def backward_pass(evidence, trans_mats, log_norms):
    """Scaled backward recursion of one trajectory, consistent with
    forward_pass scaling; beta_T = 1.

    Without the filtered beliefs no regime is known to have no mass (the
    all-ones alpha passed here excludes none), so an overflowing weight raises
    FloatingPointError (see _backward_batch)."""
    ev = np.asarray(evidence, dtype=float)[None]
    beta, _ = _backward_batch(ev, np.asarray(trans_mats, dtype=float)[None],
                              np.asarray(log_norms, dtype=float)[None], np.ones_like(ev))
    return beta[0]


def save_model(path, model: HybridModel) -> None:
    """A model file as `rarhmm fit` writes it, without the provenance."""
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, indent=1)
        f.write("\n")


def reference_forward_batch(ev, trans, pi):
    """Batched scaled forward recursion combining prediction and evidence in
    log space at every step, rescaled by their joint max, as the library did
    before its linear-scale recursion. Returns (alpha (B, T, K), log_norms
    (B, T))."""
    B, T, K = ev.shape
    alpha = np.empty((B, T, K))
    log_norms = np.empty((B, T))
    pred = np.broadcast_to(pi, (B, K))
    for t in range(T):
        if t > 0:
            pred = np.einsum("bij,bj->bi", trans[:, t - 1], alpha[:, t - 1])
        with np.errstate(divide="ignore"):
            la = np.log(pred) + ev[:, t]
        m = la.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(m)):
            raise FloatingPointError(f"forward normalizer degenerate at step {t}")
        a = np.exp(la - m)
        c = a.sum(axis=1, keepdims=True)
        alpha[:, t] = a / c
        log_norms[:, t] = np.log(c[:, 0]) + m[:, 0]
    return alpha, log_norms


def reference_backward_batch(ev, trans, log_norms):
    """Batched scaled backward recursion consistent with
    reference_forward_batch, in log space: returns log beta (B, T, K), with
    log beta_T = 0. It stays finite where beta itself would overflow."""
    B, T, K = ev.shape
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
    log_beta = np.zeros((B, T, K))
    for t in range(T - 2, -1, -1):
        log_w = ev[:, t + 1] - log_norms[:, t + 1, None] + log_beta[:, t + 1]
        log_beta[:, t] = logsumexp(log_trans[:, t] + log_w[:, :, None], axis=1)
    return log_beta


def reference_kmeans(points, K, rng, iters=50):
    """Lloyd iteration for a fixed count, as the library ran it before it
    stopped at the fixed point. Returns (labels, number of empty clusters
    re-seeded over all rounds)."""
    distinct = np.unique(points, axis=0)
    centers = distinct[rng.choice(len(distinct), size=K, replace=False)]
    labels = np.zeros(len(points), dtype=int)
    reseeded = 0
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        dist_own = d2[np.arange(len(points)), labels]
        taken = []
        for k in range(K):
            if not np.any(labels == k):
                order = np.argsort(-dist_own)
                pick = next(int(i) for i in order if int(i) not in taken)
                labels[pick] = k
                taken.append(pick)
                reseeded += 1
        for k in range(K):
            centers[k] = points[labels == k].mean(axis=0)
    return labels, reseeded


def ball_rest_state(config):
    """Attracting fixed point of the impact reflection: a decayed ball parks
    here, a hair above the ground with the small residual downward velocity
    the sampled-time reflection sustains."""
    g, e, dt = config.gravity, config.restitution, config.dt
    v = -g * dt / (1.0 + e)
    h = e * (0.5 * g * dt * dt - v * dt) / (1.0 + e)
    return np.array([h, v])


def _reference_ball_step(config, state):
    g, e, dt = config.gravity, config.restitution, config.dt
    h, v = state
    h_pred = h + v * dt - 0.5 * g * dt * dt
    if h_pred < 0.0:
        return np.array([-e * h_pred, -e * v - g * dt])
    return np.array([h_pred, v - g * dt])


def _reference_pendulum_derivs(config, state, u):
    g, m, l, b = config.gravity, config.mass, config.length, config.damping
    th, om = state
    acc = (g / l) * np.sin(th) + (u - b * om) / (m * l * l)
    return np.array([om, acc])


def _reference_cartpole_derivs(config, state, u):
    g, mp, l = config.gravity, config.mass, config.length
    total = config.cart_mass + mp
    _, pd, th, om = state
    sin, cos = np.sin(th), np.cos(th)
    tmp = (u + mp * l * om * om * sin) / total
    th_acc = (g * sin - cos * tmp) / (l * (4.0 / 3.0 - mp * cos * cos / total))
    th_acc -= config.damping * om
    p_acc = tmp - mp * l * th_acc * cos / total
    return np.array([pd, p_acc, om, th_acc])


def reference_step_env(config, state, u):
    """One step on state arrays, as the library took it before its scalar
    step: the ball's map, or one RK4 step of the pendulum or cart-pole."""
    state = np.asarray(state, dtype=float)
    if config.env == "bouncing_ball":
        return _reference_ball_step(config, state)
    derivs = (_reference_pendulum_derivs if config.env == "pendulum"
              else _reference_cartpole_derivs)
    uu = float(np.asarray(u, dtype=float).reshape(-1)[0]) if np.size(u) else 0.0
    dt = config.dt
    k1 = derivs(config, state, uu)
    k2 = derivs(config, state + 0.5 * dt * k1, uu)
    k3 = derivs(config, state + 0.5 * dt * k2, uu)
    k4 = derivs(config, state + dt * k3, uu)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_clip_control(config, u):
    """Actuator clipping by np.clip on the control array."""
    return np.clip(np.asarray(u, dtype=float).reshape(env_dims(config)[1]),
                   -config.limit, config.limit)


def reference_observe_joint(config, state):
    """Joint observation as the library formed it before observe took the
    mode: angles wrapped, velocities passed through."""
    state = np.asarray(state, dtype=float)
    out = state.copy()
    if config.env == "pendulum":
        out[..., 0] = wrap_angle(state[..., 0])
    elif config.env == "cartpole":
        out[..., 2] = wrap_angle(state[..., 2])
    return out


def reference_observe(config, state):
    """Observation in config.obs as the library formed it next to
    reference_observe_joint: trig replaces each angle with its (cos, sin)."""
    state = np.asarray(state, dtype=float)
    if config.obs == "joint" or config.env == "bouncing_ball":
        return reference_observe_joint(config, state)
    if config.env == "pendulum":
        th, om = state[..., 0], state[..., 1]
        return np.stack([np.cos(th), np.sin(th), om], axis=-1)
    p, pd, th, om = (state[..., i] for i in range(4))
    return np.stack([p, pd, np.cos(th), np.sin(th), om], axis=-1)


def reference_simulate(config, policy=None, T=None, *, x0, id=""):
    """envs.simulate as the per-step loop over state arrays: observe each
    state as it is reached, clip each control by np.clip and take each step
    by reference_step_env."""
    T = config.horizon if T is None else int(T)
    d_x, d_u = env_dims(config)
    state = np.asarray(x0, dtype=float).copy()
    xs = np.empty((T, d_x))
    us = np.empty((T, d_u))
    for t in range(T):
        if not np.all(np.isfinite(state)):
            raise FloatingPointError(f"non-finite state at step {t}")
        xs[t] = reference_observe(config, state)
        u = np.zeros(d_u) if policy is None else policy(reference_observe_joint(config, state), t)
        u = reference_clip_control(config, u)
        us[t] = u
        if t < T - 1:
            state = reference_step_env(config, state, u)
    return Trajectory(xs=xs, us=us, dt=config.dt, id=id)


class LastUniformRng:
    """A generator stub: every uniform is the largest double below 1, and
    every normal is 0."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def standard_normal(self, shape):
        return np.zeros(shape)


# a belief with no mass on regime 0, within act's 1e-6 of the simplex, whose
# cumulative sum, once normalized by its total, ends below 1: a last-double
# draw lies past its last entry
EDGE_BELIEF = np.array([0.0, 0.6, 0.4000001])


def hanging_rollout(config, model, seed, **kwargs):
    """policy.rollout with rng default_rng(seed), from that generator's first
    draw of envs.hanging_state."""
    rng = np.random.default_rng(seed)
    return rollout(config, model, rng=rng, x0=hanging_state(config, rng), **kwargs)


def reference_expert_swingup(config, state):
    """envs.expert_swingup on state arrays and numpy scalars: wrap_angle for
    the wrapped angle and np.cos inside the energies, clipped by np.clip."""
    state = np.asarray(state, dtype=float)
    m, l, g = config.mass, config.length, config.gravity
    if config.env == "pendulum":
        th, om = state
        th_w = wrap_angle(th)
        if abs(th_w) < CAPTURE_ANGLE and abs(om) < PEND_CAPTURE_VEL:
            u = -PEND_STAB_GAINS[0] * th_w - PEND_STAB_GAINS[1] * om
        else:
            energy = 0.5 * m * l * l * om * om + m * g * l * np.cos(th)
            gap = m * g * l + PEND_PUMP_MARGIN - energy
            u = PEND_PUMP_GAIN * gap * (1.0 if om >= 0.0 else -1.0)
        return reference_clip_control(config, u)
    p, pd, th, om = state
    th_w = wrap_angle(th)
    if abs(th_w) < CAPTURE_ANGLE and abs(om) < CART_CAPTURE_VEL:
        kp, kpd, kth, kom = CART_STAB_GAINS
        u = -(kp * p + kpd * pd + kth * th_w + kom * om)
    else:
        energy = 0.5 * (4.0 / 3.0) * m * l * l * om * om + m * g * l * np.cos(th)
        gap = energy - m * g * l
        kx, kxd = CART_CENTER_GAINS
        u = CART_PUMP_GAIN * gap * om * np.cos(th) - kx * p - kxd * pd
    return reference_clip_control(config, u)
