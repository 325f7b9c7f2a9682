"""Forward-backward smoothing for the switching model.

Messages are scaled, normalized per step, so likelihoods of any length stay
finite: alpha_hat rows are filtered regime beliefs, log_norms accumulate the
observed-data log-likelihood. The recursions run in linear scale on evidence
exponentiated once per batch against its per-step max. The forward pass is a
blocked scan over chunks of steps, with the step-by-step sweep as the fallback
for rows whose scale underflows; the backward pass is one matmul per step (see
the batched recursions below). A dataset enters as one padded batch built by
padded_inputs: the E-step (smooth_dataset) smooths it, and the evaluation
filter (evaluation.filter_all) runs the forward pass on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, HybridModel, log_local_evidence
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


# -- batched scaled recursions ------------------------------------------------
# All cores take (B, T, K) evidence and (B, T-1, K, K) transition stacks, so a
# whole dataset runs through numpy in lockstep. Rows shorter than T are padded
# past their end with log evidence 0 and identity transitions: a padded step
# leaves the filtered belief unchanged and keeps the backward message at
# exactly 1, so each row's own steps compute as in a batch of one.
# _smooth_batch zeroes the padded log normalizers before the backward pass, so
# a row's log-likelihood sums only its own steps. padded_inputs builds these
# inputs for a whole dataset; there is no single-trajectory entry point.
#
# The recursions run in linear scale (Rabiner 1989). The evidence is
# exponentiated once per batch against its per-step max over regimes,
# E[b, t] = exp(ev[b, t] - max_k ev[b, t]), and log_norms = log S + max_k ev,
# S being each step's scale. Going forward, step t multiplies the belief by
# M_t = E[:, t, :, None] * trans[:, t-1]. Matrix products are associative, so
# _forward_batch regroups that recursion into chunks (Hassan, Särkkä &
# García-Fernández, "Temporal Parallelization of Inference in Hidden Markov
# Models", 2021; Blelloch's prefix sums, over time): a T-step pass takes about
# _CHUNK + T / _CHUNK numpy steps instead of T. The backward pass folds its
# weights into the transitions once and runs one matmul per step. Each stack
# is local to its pass, so neither is alive when _smooth_batch forms xi.

# A row whose scale S falls below this at some step leaves the scan for the
# sweep, which recomputes that step in log space from its prediction trans @
# alpha, with the joint max of log prediction and evidence. That keeps steps alive whose predicted mass
# sits hundreds of nats below the best evidence, where S underflows, and
# raises on degenerate steps: +inf evidence (S is NaN) or every predicted
# regime impossible (S is 0).
_S_FLOOR = 1e-200

# Steps per forward block of the sequential sweep. The floor is checked once
# per block; the steps after a rescued one are redone, so a rescue wastes at
# most one block.
_BLOCK = 32

# Steps per chunk of the forward scan. Fixed, never derived from T: a row's
# chunks then start at the same steps whatever the batch's longest row, so its
# result does not depend on T_max or on its batch neighbours.
_CHUNK = 16


def _rescue_rows(t, rows, pred, ev_t, u):
    """Redo step t in log space for the given rows from their predicted
    beliefs pred (R, K): writes their normalized beliefs and a scale of 1 into
    the step's unnormalized stack u (B, K+1, 1) and returns (rows, their log
    normalizers)."""
    with np.errstate(divide="ignore"):
        la = np.log(pred) + ev_t[rows]
    m = la.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"forward normalizer degenerate at step {t}")
    e = np.exp(la - m)
    c = e.sum(axis=1, keepdims=True)
    u[rows, :-1, 0] = e / c
    u[rows, -1] = 1.0
    return rows, np.log(c[:, 0]) + m[:, 0]


def _forward_sequential(ev, trans, pi, rows):
    """Filtered beliefs alpha (R, T, K) and log normalizers (R, T) of the
    batch rows `rows` (R,) alone, by the step-by-step sweep.

    Rows 0..K-1 of the stack G[t-1] are E[:, t, :, None] * trans[:, t-1] and
    row K their column sums, so step t > 0 is one matmul, U[t] = G[t-1] @
    alpha[t-1], giving the unnormalized belief and, in row K, its scale S;
    then alpha[t] = U[t, :, :K] / S. Once per block of _BLOCK steps, S is
    checked against _S_FLOOR. At the block's first step with a row whose S
    is below it or NaN, those rows go to _rescue_rows with their prediction
    trans @ alpha, and the sweep resumes after that step. _rescue_rows reads
    and writes batch rows, so it gets the batch's evidence and a batch-sized
    step stack, whose rescued rows are copied back."""
    B = len(ev)
    ev_batch = ev
    ev, trans = ev[rows], trans[rows]
    R, T, K = ev.shape
    top = ev.max(axis=2)                                   # (R, T)
    with np.errstate(invalid="ignore"):                    # +inf evidence: caught below
        E = ev - top[:, :, None]
        E = np.exp(E, out=E).transpose(1, 0, 2)[..., None]  # (T, R, K, 1)
    G = np.empty((T - 1, R, K + 1, K))
    np.multiply(E[1:], trans.transpose(1, 0, 2, 3), out=G[:, :, :K])
    np.matmul(np.ones((1, K)), G[:, :, :K], out=G[:, :, K:])   # column sums
    U = np.empty((T, R, K + 1, 1))
    np.multiply(np.reshape(pi, (K, 1)), E[0], out=U[0, :, :K])
    np.sum(U[0, :, :K], axis=1, out=U[0, :, K])
    num, S = U[:, :, :K], U[:, :, K:]                      # S[t] is (R, 1, 1)
    alpha = np.empty((T, R, K, 1))
    rescued = []
    t0 = 0
    while t0 < T:
        t1 = min(t0 + _BLOCK, T)
        with np.errstate(all="ignore"):                    # bad steps: caught below
            for t in range(t0, t1):
                if t > 0:
                    np.matmul(G[t - 1], alpha[t - 1], out=U[t])
                np.divide(num[t], S[t], out=alpha[t])
        if not S[t0:t1].min() >= _S_FLOOR:                 # also catches NaN
            ok = S[t0:t1, :, 0, 0] >= _S_FLOOR
            t = t0 + int(np.argmin(ok.all(axis=1)))        # first failing step
            bad = np.flatnonzero(~ok[t - t0])
            pred = (np.matmul(trans[bad, t - 1], alpha[t - 1, bad])[:, :, 0] if t > 0
                    else np.broadcast_to(pi, (len(bad), K)))
            u = np.empty((B, K + 1, 1))
            _, log_c = _rescue_rows(t, rows[bad], pred, ev_batch[:, t], u)
            U[t, bad] = u[rows[bad]]
            rescued.append((t, bad, log_c))
            np.divide(num[t], S[t], out=alpha[t])
            t1 = t + 1                                     # redo the steps after it
        t0 = t1
    log_norms = np.log(S[:, :, 0, 0].T) + top
    for t, bad, log_c in rescued:
        log_norms[bad, t] = log_c
    return alpha[:, :, :, 0].transpose(1, 0, 2), log_norms


def _forward_batch(ev, trans, pi):
    """Filtered beliefs alpha (B, T, K) and log normalizers (B, T), by the
    blocked scan.

    The stack P holds M_t = E[:, t, :, None] * trans[:, t-1] for t = 1..T-1,
    padded with identities to C chunks of L = _CHUNK steps: P[:, c, l] is
    step t = c*L + l + 1. L numpy steps overwrite it in place with the
    chunks' normalized prefix products, P[:, c, l] = M_t @ P[:, c, l-1] /
    n_cl, n_cl being the sum of the product's entries. A loop of C steps
    gives each chunk's starting belief, ab[:, c+1] ~ P[:, c, -1] @ ab[:, c]
    with ab[:, 0] = alpha[:, 0], and one matmul every unnormalized belief,
    V[:, c, l] = P[:, c, l] @ ab[:, c], so alpha at step t is V / sum V. The
    scale of step t is S_t = n_cl * sum V[:, c, l] / sum V[:, c, l-1],
    with sum V[:, c, -1] = 1 (ab is normalized).

    A row with any S, sum V or n below _S_FLOOR, or NaN, is redone by
    _forward_sequential, apart from the rows the scan served. S below the
    floor marks a step that sweep redoes in log space, NaN a degenerate one
    it raises on (+inf evidence, or no possible regime); sum V or n below it
    means the products went subnormal, so a scale derived from them lost its
    precision."""
    B, T, K = ev.shape
    C, L = -(-(T - 1) // _CHUNK), _CHUNK
    top = ev.max(axis=2)                                   # (B, T)
    with np.errstate(invalid="ignore"):                    # +inf evidence: caught below
        E = ev - top[:, :, None]
        E = np.exp(E, out=E)
    V = np.empty((B, C * L + 1, K))                        # V[:, t]: step t
    np.multiply(pi, E[:, 0], out=V[:, 0])
    P = np.empty((B, C * L, K, K))
    np.multiply(E[:, 1:, :, None], trans, out=P[:, :T - 1])
    del E
    P[:, T - 1:] = np.eye(K)
    P = P.reshape(B, C, L, K, K)
    n = np.empty((L, B, C))                                # n_cl, step-major
    step = np.empty((B, C, K, K))                          # contiguous: fast sums
    ab = np.empty((B, C, K, 1))
    with np.errstate(all="ignore"):                        # bad rows: caught below
        for l in range(L):
            if l:
                np.matmul(P[:, :, l], P[:, :, l - 1], out=step)
            else:
                step[...] = P[:, :, 0]
            np.sum(step.reshape(B * C, K * K), axis=1, out=n[l].reshape(B * C))
            np.divide(step, n[l, :, :, None, None], out=P[:, :, l])
        for c in range(C):
            if c:
                np.matmul(P[:, c - 1, -1], ab[:, c - 1], out=ab[:, c])
            else:
                ab[:, 0, :, 0] = V[:, 0]
            ab[:, c] /= ab[:, c].sum(axis=1, keepdims=True)
        np.matmul(P.reshape(B, C, L * K, K), ab, out=V[:, 1:].reshape(B, C, L * K, 1))
        del P                                              # the fallback folds its own
        sums = V[:, :T].sum(axis=2)                        # (B, T)
        prev = np.ones((B, C * L + 1))                     # sum V of the step before
        prev[:, 1:T] = sums[:, :-1]
        prev[:, 1::L] = 1.0                                # a chunk's first step: sum ab
        n_step = np.ones((B, T))
        n_step[:, 1:] = n.transpose(1, 2, 0).reshape(B, -1)[:, :T - 1]
        S = n_step * sums / prev[:, :T]
        log_norms = np.log(S) + top
        alpha = V[:, :T] / sums[:, :, None]
    ok = np.all((S >= _S_FLOOR) & (sums >= _S_FLOOR) & (n_step >= _S_FLOOR), axis=1)
    bad = np.flatnonzero(~ok)
    if len(bad):
        alpha[bad], log_norms[bad] = _forward_sequential(ev, trans, pi, bad)
    return alpha, log_norms


def _backward_batch(ev, trans, log_norms, alpha):
    """Scaled beta (B, T, K) and the xi weights (B, T-1, K),
    w[:, t] * beta[:, t+1] with w[:, t] = exp(ev[:, t+1] - log_norms[:, t+1]).

    The weights are folded into the transitions once, N = w[..., None] *
    trans (time-major), so step t is beta[t] = beta[t+1] @ N[t].

    A regime the filtered beliefs alpha give no mass at t+1 gets weight 0 at
    t+1, so it contributes to neither gamma nor xi. That covers every regime
    with no predicted mass, whose weight overflows when evidence favours it
    by over ~709 nats past the step's log normalizer (inf * 0 would then
    turn beta into NaN). Any other overflow raises FloatingPointError."""
    B, T, K = ev.shape
    beta = np.empty((T, B, 1, K))
    beta[-1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        w = ev[:, 1:] - log_norms[:, 1:, None]
        w = np.exp(w, out=w)
        np.copyto(w, 0.0, where=alpha[:, 1:] == 0.0)
        N = np.empty((T - 1, B, K, K))
        np.multiply(w.transpose(1, 0, 2)[..., None], trans.transpose(1, 0, 2, 3), out=N)
        for t in range(T - 2, -1, -1):
            np.matmul(beta[t + 1], N[t], out=beta[t])
        beta = np.ascontiguousarray(beta[:, :, 0].transpose(1, 0, 2))
        w *= beta[:, 1:]
    if not (beta.max() < np.inf and w.max(initial=0.0) < np.inf):   # also catches NaN
        raise FloatingPointError("backward recursion overflowed")
    return beta, w


def _smooth_batch(ev, trans, pi, pad):
    """pad (B, T) marks the padded steps; their gamma and xi are meaningless."""
    alpha, log_norms = _forward_batch(ev, trans, pi)
    log_norms[pad] = 0.0
    beta, w = _backward_batch(ev, trans, log_norms, alpha)
    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    xi = np.einsum("btj,btij,bti->btji", alpha[:, :-1], trans, w)
    xi /= xi.sum(axis=(2, 3), keepdims=True)
    loglik = log_norms.sum(axis=1)
    return gamma, xi, loglik


# -- public API ----------------------------------------------------------------

def padded_inputs(model: HybridModel, dataset: Dataset):
    """The B trajectories' filter inputs as one padded batch: log evidence
    (B, T_max, K), transition matrices (B, T_max-1, K, K) and the mask (B,
    T_max) of padded steps, which get log evidence 0 and identity
    transitions. Transition features are evaluated at the source step (x_t,
    u_t) for the step t -> t+1. Rejects NaN evidence and impossible
    observations."""
    lengths = np.array([traj.T for traj in dataset.trajectories])
    pad = np.arange(lengths.max()) >= lengths[:, None]   # (B, T_max)
    (B, T), K = pad.shape, model.K
    ev = np.zeros((B, T, K))
    trans = np.empty((B, T - 1, K, K))
    trans[pad[:, 1:]] = np.eye(K)                      # padded steps only
    for b, traj in enumerate(dataset.trajectories):
        ev[b, :traj.T] = log_local_evidence(model, traj)
        trans[b, :traj.T - 1] = transition_matrices(model.transition, traj.xs[:-1],
                                                    traj.us[:-1])
    if np.isnan(ev).any():
        raise ValueError("evidence contains NaN")
    if not np.all(np.max(ev, axis=-1) > -np.inf):
        raise ValueError("evidence row with no finite entry (impossible observation)")
    return ev, trans, pad


def smooth_dataset(model: HybridModel, dataset: Dataset):
    """Smooth all B trajectories in one padded batch; results equal
    per-trajectory smoothing. Returns (Posterior per trajectory in dataset
    order, total log-likelihood, Q = E_q[log p(x, u, z)], the EM lower bound).

    Padding to the longest length T_max holds B * T_max * K^2 floats of
    transitions and as many of xi; equal-length datasets are not padded.
    Each pass holds one more stack of that size only while it runs: the
    forward one, rounded up to whole chunks of _CHUNK steps, holds the folded
    transitions and then, in place, their prefix products.
    """
    ev, trans, pad = padded_inputs(model, dataset)
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
    posteriors = [Posterior(gamma=gamma[b, :traj.T], xi=xi[b, :traj.T - 1], loglik=loglik[b])
                  for b, traj in enumerate(dataset.trajectories)]
    return posteriors, float(loglik.sum()), q


def estep(model: HybridModel, dataset: Dataset):
    """smooth_dataset without Q: (list of Posterior, total log-likelihood)."""
    posteriors, total, _ = smooth_dataset(model, dataset)
    return posteriors, total
