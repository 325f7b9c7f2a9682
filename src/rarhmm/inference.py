"""Forward-backward smoothing for the switching model.

Messages are scaled, normalized per step, so likelihoods of any length stay
finite: alpha_hat rows are filtered regime beliefs, log_norms accumulate the
observed-data log-likelihood. The recursions run in linear scale on evidence
exponentiated once per batch against its per-step max; a step whose scale
underflows is redone in log space (see the batched recursions below).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, HybridModel, Trajectory, log_local_evidence
from .transition import transition_matrices


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
#
# The recursions run in linear scale (Rabiner 1989). The evidence is
# exponentiated once per batch against its per-step max over regimes,
# E[b, t] = exp(ev[b, t] - max_k ev[b, t]), so a forward step is: predict,
# multiply by E, sum to the scale S and divide, and log_norms = log S + max_k
# ev after the loop. Messages are kept as (K, 1) columns for the forward and
# (1, K) rows for the backward matmuls.

# A row whose scale S falls below this at some step is recomputed for that
# step in log space with the joint max of log prediction and evidence. That
# keeps steps alive whose predicted mass sits hundreds of nats below the best
# evidence, where S underflows, and raises on degenerate steps: +inf evidence
# (S is NaN) or every predicted regime impossible (S is 0).
_S_FLOOR = 1e-200


def _rescue_rows(t, pred, ev_t, a, s):
    """Redo step t in log space for the rows with s below the floor: writes
    their normalized beliefs into a, sets their s to 1 and returns (rows,
    their log normalizers)."""
    rows = np.flatnonzero(~(s >= _S_FLOOR))
    with np.errstate(divide="ignore"):
        la = np.log(pred[rows]) + ev_t[rows]
    m = la.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"forward normalizer degenerate at step {t}")
    e = np.exp(la - m)
    c = e.sum(axis=1, keepdims=True)
    a[rows] = (e / c)[:, :, None]
    s[rows] = 1.0
    return rows, np.log(c[:, 0]) + m[:, 0]


def _forward_batch(ev, trans, pi):
    """Filtered beliefs alpha (B, T, K) and log normalizers (B, T)."""
    B, T, K = ev.shape
    top = ev.max(axis=2)                                   # (B, T)
    with np.errstate(invalid="ignore"):                    # +inf evidence: caught below
        E = ev - top[:, :, None]
        E = np.exp(E, out=E)[..., None]                    # (B, T, K, 1)
    alpha = np.empty((B, T, K, 1))
    S = np.empty((T, B, 1))
    pred = np.empty((B, K, 1))
    pred[...] = np.reshape(pi, (K, 1))
    rescued = []
    for t in range(T):
        if t > 0:
            np.matmul(trans[:, t - 1], alpha[:, t - 1], out=pred)
        a = np.multiply(pred, E[:, t], out=alpha[:, t])
        s = np.sum(a, axis=1, out=S[t])
        if not s.min() >= _S_FLOOR:                        # also catches NaN
            rescued.append((t, *_rescue_rows(t, pred[:, :, 0], ev[:, t], a, s[:, 0])))
        a /= s[:, None]
    log_norms = np.log(S[:, :, 0].T) + top
    for t, rows, log_c in rescued:
        log_norms[rows, t] = log_c
    return alpha[:, :, :, 0], log_norms


def _backward_batch(ev, trans, log_norms):
    """Scaled beta (B, T, K) and the xi weights w (B, T-1, K),
    w[:, t] = exp(ev[:, t+1] - log_norms[:, t+1]) * beta[:, t+1]."""
    B, T, K = ev.shape
    w = ev[:, 1:] - log_norms[:, 1:, None]
    w = np.exp(w, out=w)[:, :, None, :]                    # (B, T-1, 1, K)
    beta = np.empty((B, T, 1, K))
    beta[:, -1] = 1.0
    for t in range(T - 2, -1, -1):
        wt = np.multiply(w[:, t], beta[:, t + 1], out=w[:, t])
        np.matmul(wt, trans[:, t], out=beta[:, t])
    return beta[:, :, 0], w[:, :, 0]


def _smooth_batch(ev, trans, pi, pad=None):
    """pad (B, T) marks the padded steps; their gamma and xi are meaningless."""
    _check_evidence(ev)
    alpha, log_norms = _forward_batch(ev, trans, pi)
    if pad is not None:
        log_norms[pad] = 0.0
    beta, w = _backward_batch(ev, trans, log_norms)
    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
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
    beta, _ = _backward_batch(ev, np.asarray(trans_mats, dtype=float)[None],
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
