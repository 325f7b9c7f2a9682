"""Forward-backward smoothing for the switching model.

Messages are scaled (normalized per step, with per-row max subtraction on the
log evidence), so likelihoods of any length stay finite: alpha_hat rows are
filtered regime beliefs, log_norms accumulate the observed-data log-likelihood.
The brute-force path enumeration below is the correctness oracle for all of it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import logsumexp
from .model import Dataset, HybridModel, Trajectory, log_local_evidence
from .transition import transition_matrices

BRUTE_FORCE_MAX_PATHS = 10 ** 6


@dataclass(frozen=True, eq=False)
class Posterior:
    """Smoothed regime marginals for one trajectory.

    gamma[t, k] = p(z_t = k | trajectory); xi[t, j, i] = p(z_t = j, z_{t+1} = i
    | trajectory); loglik is the observed-data log-likelihood.
    """
    gamma: np.ndarray  # (T, K)
    xi: np.ndarray     # (T-1, K, K), indexed [t, source, destination]
    loglik: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "loglik", float(self.loglik))

    @property
    def T(self) -> int:
        return len(self.gamma)

    @property
    def K(self) -> int:
        return self.gamma.shape[1]


def _check_evidence(ev: np.ndarray):
    if np.isnan(ev).any():
        raise ValueError("evidence contains NaN")
    if not np.all(np.max(ev, axis=-1) > -np.inf):
        raise ValueError("evidence row with no finite entry (impossible observation)")


def local_quantities(model: HybridModel, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Log evidence (T, K) and transition matrices (T-1, K, K) for one trajectory.

    Transition features are evaluated at the source step (x_t, u_t) for the
    step t -> t+1.
    """
    ev = log_local_evidence(model, traj)
    trans = transition_matrices(model.transition, traj.xs[:-1], traj.us[:-1])
    return ev, trans


# -- batched scaled recursions ------------------------------------------------
# All cores take (B, T, K) evidence and (B, T-1, K, K) transition stacks, so a
# whole dataset runs through numpy in lockstep in one time loop. Rows shorter
# than T are padded past their end with log evidence 0 and identity
# transitions: a padded step leaves the filtered belief unchanged and keeps
# the backward message at exactly 1, so each row's own steps compute as in a
# batch of one. _smooth_batch zeroes the padded log normalizers before the
# backward pass, so a row's log-likelihood sums only its own steps. The public
# single-trajectory API wraps a batch of one.

def _forward_batch(ev, trans, pi):
    B, T, K = ev.shape
    alpha = np.empty((B, T, K))
    log_norms = np.empty((B, T))
    pred = np.broadcast_to(pi, (B, K))
    for t in range(T):
        if t > 0:
            pred = np.einsum("bij,bj->bi", trans[:, t - 1], alpha[:, t - 1])
        # combine prediction and evidence in log space: rescaling by the joint
        # max keeps steps alive where the predicted-mass regimes sit hundreds
        # of nats below the best-evidence regime
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


def _backward_batch(ev, trans, log_norms):
    B, T, K = ev.shape
    beta = np.empty((B, T, K))
    beta[:, -1] = 1.0
    for t in range(T - 2, -1, -1):
        w = np.exp(ev[:, t + 1] - log_norms[:, t + 1, None]) * beta[:, t + 1]
        beta[:, t] = np.einsum("bij,bi->bj", trans[:, t], w)
    return beta


def _smooth_batch(ev, trans, pi, pad=None):
    """pad (B, T) marks the padded steps; their gamma and xi are meaningless."""
    _check_evidence(ev)
    alpha, log_norms = _forward_batch(ev, trans, pi)
    if pad is not None:
        log_norms[pad] = 0.0
    beta = _backward_batch(ev, trans, log_norms)
    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    w = np.exp(ev[:, 1:] - log_norms[:, 1:, None]) * beta[:, 1:]  # (B, T-1, K)
    xi = np.einsum("btj,btij,bti->btji", alpha[:, :-1], trans, w)
    xi /= xi.sum(axis=(2, 3), keepdims=True)
    loglik = log_norms.sum(axis=1)
    return gamma, xi, loglik


# -- public API ----------------------------------------------------------------

def forward_pass(evidence, trans_mats, pi):
    """Scaled forward recursion.

    Returns (alpha_hat (T, K) row-normalized filtered beliefs, log_norms (T,),
    loglik) with loglik = sum of log normalizers.
    """
    ev = np.asarray(evidence, dtype=float)[None]
    _check_evidence(ev)
    alpha, log_norms = _forward_batch(ev, np.asarray(trans_mats, dtype=float)[None],
                                      np.asarray(pi, dtype=float))
    return alpha[0], log_norms[0], float(log_norms[0].sum())


def backward_pass(evidence, trans_mats, log_norms):
    """Scaled backward recursion consistent with forward_pass scaling; beta_T = 1."""
    ev = np.asarray(evidence, dtype=float)[None]
    _check_evidence(ev)
    beta = _backward_batch(ev, np.asarray(trans_mats, dtype=float)[None],
                           np.asarray(log_norms, dtype=float)[None])
    return beta[0]


def smooth(model: HybridModel, traj: Trajectory) -> Posterior:
    """Full forward-backward smoothing of one trajectory."""
    ev, trans = local_quantities(model, traj)
    gamma, xi, loglik = _smooth_batch(ev[None], trans[None], model.init.pi)
    return Posterior(gamma=gamma[0], xi=xi[0], loglik=float(loglik[0]))


def smooth_dataset(model: HybridModel, dataset: Dataset):
    """Smooth all B trajectories in one padded batch; results equal
    per-trajectory smoothing. Returns (Posterior per trajectory in dataset
    order, total log-likelihood, Q = E_q[log p(x, u, z)], the EM lower bound).

    Padding to the longest length T_max holds B * T_max * K^2 floats of
    transitions and as many of xi; equal-length datasets are not padded.
    """
    lengths = np.array([traj.T for traj in dataset.trajectories])
    pad = np.arange(lengths.max()) >= lengths[:, None]   # (B, T_max)
    (B, T), K = pad.shape, model.K
    ev = np.zeros((B, T, K))
    trans = np.tile(np.eye(K), (B, T - 1, 1, 1))
    for b, traj in enumerate(dataset.trajectories):
        ev[b, :traj.T], trans[b, :traj.T - 1] = local_quantities(model, traj)
    gamma, xi, loglik = _smooth_batch(ev, trans, model.init.pi, pad)
    # Q masked to each row's own steps. The clipped logs keep 0 * log(0)
    # terms finite; gamma_1(k) > 0 forces pi_k > 0, so the clip never distorts
    # a term that contributes
    gamma[pad] = 0.0
    xi[pad[:, 1:]] = 0.0
    log_pi = np.log(np.maximum(model.init.pi, 1e-300))
    log_trans = np.log(np.maximum(trans, 1e-300, out=trans), out=trans)
    q = (float(np.sum(gamma[:, 0] * log_pi)) + float(np.sum(gamma * ev))
         + float(np.einsum("btji,btij->", xi, log_trans)))
    posteriors = [Posterior(gamma=gamma[b, :n], xi=xi[b, :n - 1], loglik=loglik[b])
                  for b, n in enumerate(lengths)]
    return posteriors, float(loglik.sum()), q


def estep(model: HybridModel, dataset: Dataset):
    """smooth_dataset without Q: (list of Posterior, total log-likelihood)."""
    posteriors, total, _ = smooth_dataset(model, dataset)
    return posteriors, total


def brute_force_posterior(model: HybridModel, traj: Trajectory) -> Posterior:
    """Exact posterior by enumerating all K^T regime paths. Oracle only.

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
    """Most likely regime path (debugging utility, not a learning path)."""
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
