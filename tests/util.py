"""Shared builders for randomized test instances, and the reference
implementations the library is checked against."""
import itertools

import numpy as np

from rarhmm._linalg import LOG2PI
from rarhmm.envs import env_dims
from rarhmm.features import controller_feature_dim
from rarhmm.inference import Posterior, local_quantities
from rarhmm.model import (CLOSED_LOOP, OPEN_LOOP, Dataset, HybridModel,
                          InitialModel, RegimeController, RegimeDynamics,
                          Trajectory, controller_feature_series,
                          controller_features, sample_trajectory)
from rarhmm.policy import ACT_ARGMAX, ACT_MEAN, _check_belief
from rarhmm.transition import (_link_logits, transition_probs, _nll_grad_packed, make_transition,
                               params_to_vector, stack_transition_stats,
                               transition_features, transition_matrices,
                               transition_matrix, vector_to_params, xi_marginals)


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
    """Log density of N(mean, cov) at x, factorizing cov on every call; x and
    mean broadcast over leading axes. The per-covariance reference for the
    library's densities from cached factors."""
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


def reference_control_mean(model, k, x, past_us):
    """Regime k's control law evaluated from its own controller."""
    ctl = model.controllers[k]
    return ctl.gain @ controller_features(x, past_us, ctl.lag, ctl.poly_degree) + ctl.offset


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
    dynamics = []
    for _ in range(K):
        a = rng.standard_normal((d_x, d_x))
        a *= 0.85 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-6)
        dynamics.append(RegimeDynamics(
            A=a, B=0.3 * rng.standard_normal((d_x, d_u)),
            c=0.2 * rng.standard_normal(d_x),
            lam_cov=random_spd(rng, d_x, noise_scale ** 2)))
    controllers = None
    if mode == CLOSED_LOOP:
        d_phi = controller_feature_dim(d_x, d_u, lag, poly_degree)
        controllers = tuple(RegimeController(
            gain=0.3 * rng.standard_normal((d_u, d_phi)),
            offset=0.1 * rng.standard_normal(d_u),
            sigma_cov=random_spd(rng, d_u, noise_scale ** 2),
            lag=lag, poly_degree=poly_degree) for _ in range(K))
    tm = make_transition(kind, K, d_x, d_u, degree=degree,
                         hidden_units=hidden_units,
                         bias=0.5 * rng.standard_normal((K, K)),
                         rng=rng, init_scale=0.5)
    return HybridModel(K=K, d_x=d_x, d_u=d_u, mode=mode, init=init,
                       dynamics=tuple(dynamics), transition=tm,
                       controllers=controllers)


def random_trajectory(model, T=8, seed=0, dt=0.1):
    rng = np.random.default_rng(seed)
    exo = None
    if model.mode == OPEN_LOOP:
        exo = 0.5 * rng.standard_normal((T, model.d_u))
    traj, zs = sample_trajectory(model, T, rng, exogenous_us=exo, dt=dt,
                                 traj_id=f"t{seed}")
    return traj, zs


def random_dataset(model, n=3, T=8, seed=0, dt=0.1):
    trajs = [random_trajectory(model, T=T, seed=seed + i, dt=dt)[0] for i in range(n)]
    return Dataset.from_trajectories(trajs)


def random_xis(rng, T, K):
    """Random valid pairwise marginals: each (K, K) slice sums to 1."""
    xi = rng.dirichlet(np.ones(K * K), size=T - 1).reshape(T - 1, K, K)
    return xi


def tensor_nll_grad(tm, vec, feats, xi_di):
    """Reference expected transition NLL and gradient that builds the full
    (M, K, K) logits [m, i, j] (destination i, source j) and normalizes them
    over i, as the objective is defined; vec is bias (row-major) then
    feature_params, feats and xi_di come from stack_transition_stats."""
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


def reference_gd_mstep(posteriors, dataset, tm_hat):
    """Transition M-step by gradient descent with backtracking, as the library
    did before its L-BFGS solver: up to 100 steps on the mean expected NLL,
    the first trial length 0.01 / max|grad|, doubled after each accepted step
    and halved up to 20 times per step; tm_hat itself when no step is
    accepted."""
    feats, xi_di = stack_transition_stats(tm_hat, dataset, [p.xi for p in posteriors])
    marginals = xi_marginals(xi_di)
    scale = 1.0 / len(feats)
    vec = params_to_vector(tm_hat)
    nll, grad = _nll_grad_packed(tm_hat, vec, feats, xi_di, marginals)
    nll, grad = nll * scale, grad * scale
    step = 1e-2 / max(np.abs(grad).max(), 1e-12)
    improved = False
    for _ in range(100):
        accepted = False
        trial = step
        for _ in range(21):
            cand = vec - trial * grad
            cand_nll, cand_grad = _nll_grad_packed(tm_hat, cand, feats, xi_di,
                                                   marginals)
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


def reference_sample_forecast(model, x0, b0, us, rng):
    """Sample-mode forecast that draws each start's process noise on its own
    through mvn_sample, one start after another."""
    M, h = us.shape[:2]
    x = np.array(x0, dtype=float)
    b = np.array(b0, dtype=float)
    A, B, c = model.stack.A, model.stack.B, model.stack.c
    out = np.empty((M, h, x.shape[1]))
    for i in range(h):
        u = us[:, i, :]
        b = np.einsum("mij,mj->mi", transition_matrices(model.transition, x, u), b)
        b /= b.sum(axis=1, keepdims=True)
        means = np.einsum("kde,me->mkd", A, x) + np.einsum("kdu,mu->mkd", B, u) + c
        ks = (rng.random(M)[:, None] < np.cumsum(b, axis=1)).argmax(axis=1)
        x = means[np.arange(M), ks]
        for m in range(M):
            x[m] = mvn_sample(rng, x[m], model.dynamics[ks[m]].lam_cov)
        b = np.eye(model.K)[ks]
        out[:, i, :] = x
    return out


def reference_log_local_evidence(model, traj):
    """(T, K) local evidence one regime at a time, each density through
    mvn_logpdf, which factorizes its covariance on every call."""
    ev = np.empty((traj.T, model.K))
    for k in range(model.K):
        dyn = model.dynamics[k]
        ev[0, k] = mvn_logpdf(traj.xs[0], model.init.mu[k], model.init.omega_cov[k])
        means = traj.xs[:-1] @ dyn.A.T + traj.us[:-1] @ dyn.B.T + dyn.c
        ev[1:, k] = mvn_logpdf(traj.xs[1:], means, dyn.lam_cov)
    if model.mode == CLOSED_LOOP:
        feats = controller_feature_series(traj.xs, traj.us, model.lag, model.poly_degree)
        for k, ctl in enumerate(model.controllers):
            ev[:, k] += mvn_logpdf(traj.us, feats @ ctl.gain.T + ctl.offset, ctl.sigma_cov)
    return ev


def reference_sample_trajectory(model, T, rng, exogenous_us=None, z_burnin=None,
                                deterministic=False):
    """sample_trajectory written draw by draw from each regime's own
    parameters through mvn_sample. Returns (xs, us, zs)."""
    z = int(z_burnin) if z_burnin is not None else int(rng.choice(model.K, p=model.init.pi))
    if deterministic:
        x = model.init.mu[z].copy()
    else:
        x = mvn_sample(rng, model.init.mu[z], model.init.omega_cov[z])
    past = [np.zeros(model.d_u)] * model.lag
    xs, us, zs = np.empty((T, model.d_x)), np.empty((T, model.d_u)), np.empty(T, dtype=int)
    for t in range(T):
        if t > 0:
            z = int(rng.choice(model.K, p=transition_probs(model.transition, z, xs[t - 1],
                                                           us[t - 1])))
            dyn = model.dynamics[z]
            x = dyn.A @ xs[t - 1] + dyn.B @ us[t - 1] + dyn.c
            if not deterministic:
                x = mvn_sample(rng, x, dyn.lam_cov)
        zs[t], xs[t] = z, x
        if model.mode == OPEN_LOOP:
            us[t] = exogenous_us[t]
        else:
            us[t] = reference_control_mean(model, z, x, past)
            if not deterministic:
                us[t] = mvn_sample(rng, us[t], model.controllers[z].sigma_cov)
        if model.lag > 0:
            past = past[1:] + [us[t].copy()]
    return xs, us, zs


def reference_belief_step(model, b, x_prev, u_prev, x_next):
    """Runtime belief update written one regime at a time: link prediction,
    then each regime's dynamics density through mvn_logpdf."""
    pred = transition_matrix(model.transition, x_prev, u_prev) @ b
    le = np.array([mvn_logpdf(x_next, d.A @ x_prev + d.B @ u_prev + d.c, d.lam_cov)
                   for d in model.dynamics])
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
                      model.controllers[k].sigma_cov), k

def models_equal(a: HybridModel, b: HybridModel) -> bool:
    """Bit-exact equality of every parameter and structural setting."""
    if (a.K, a.d_x, a.d_u, a.mode, a.lag, a.poly_degree) != \
            (b.K, b.d_x, b.d_u, b.mode, b.lag, b.poly_degree):
        return False
    same = (np.array_equal(a.init.pi, b.init.pi)
            and np.array_equal(a.init.mu, b.init.mu)
            and np.array_equal(a.init.omega_cov, b.init.omega_cov))
    for da, db in zip(a.dynamics, b.dynamics):
        same = same and all(np.array_equal(getattr(da, f), getattr(db, f))
                            for f in ("A", "B", "c", "lam_cov"))
    if (a.controllers is None) != (b.controllers is None):
        return False
    if a.controllers is not None:
        for ca, cb in zip(a.controllers, b.controllers):
            same = same and all(np.array_equal(getattr(ca, f), getattr(cb, f))
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
    """One RK4 step of the pendulum or cart-pole on state arrays, as the
    library took it before its scalar step."""
    derivs = (_reference_pendulum_derivs if config.env == "pendulum"
              else _reference_cartpole_derivs)
    state = np.asarray(state, dtype=float)
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
