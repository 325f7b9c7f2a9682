"""Forward-backward smoothing for the switching model.

Messages are scaled, normalized per step, so likelihoods of any length stay
finite: alpha_hat rows are filtered regime beliefs, log_norms accumulate the
observed-data log-likelihood. The recursions run in linear scale on evidence
exponentiated once per batch against its per-step max. The forward pass is a
prefix-product scan over chunks of steps, entered again at any step where a
row's scale underflows; the backward pass is one matmul per step (see the
batched recursions below). A dataset enters as one padded batch built by
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
# _scan regroups that recursion into chunks (Hassan, Särkkä &
# García-Fernández, "Temporal Parallelization of Inference in Hidden Markov
# Models", 2021; Blelloch's prefix sums, over time): a T-step pass takes about
# _CHUNK + T / _CHUNK numpy steps instead of T. The backward pass folds its
# weights into the transitions once and runs one matmul per step. Each stack
# is local to its pass, so neither is alive when _smooth_batch forms xi.

# A scan serves a row up to its first step whose scale, belief sum or product
# normalizer is below this (see _scan).
_S_FLOOR = 1e-200

# Steps per chunk of the forward scan. Fixed, never derived from T: a row's
# chunks then start at the same steps whatever the batch's longest row, so its
# result does not depend on T_max or on its batch neighbours.
_CHUNK = 16

# Steps per restarted scan: its entry step and four chunks. Fixed, so a
# restart costs the same whatever is left of the row.
_WINDOW = 4 * _CHUNK + 1


def _scan(ev, trans, pred, start):
    """Filtered beliefs alpha (R, W, K) and log normalizers (R, W) of R rows
    of W steps entered at global steps start (R,) from predicted beliefs pred
    (R, K), and how many leading steps of each row the scan serves.

    The entry step is the one place a belief is formed from a prediction,
    V[:, 0] = pred * E[:, 0]. Where its scale is below _S_FLOOR it is formed
    in log space, from log pred + ev[:, 0] and their joint max m, which
    replaces the step's max evidence: that keeps a step alive whose predicted
    mass sits hundreds of nats below the best evidence. A non-finite m, from
    +inf evidence or no possible regime, raises naming the step.

    The stack P holds M_t for t = 1..W-1, padded with identities to C chunks
    of L = _CHUNK steps: P[:, c, l] is step t = c*L + l + 1. L numpy steps
    overwrite it in place with the chunks' normalized prefix products,
    P[:, c, l] = M_t @ P[:, c, l-1] / n_cl, n_cl being the sum of the
    product's entries. A loop of C steps gives each chunk's starting belief,
    ab[:, c+1] ~ P[:, c, -1] @ ab[:, c] with ab[:, 0] ~ V[:, 0], and one
    matmul every unnormalized belief, V[:, c, l] = P[:, c, l] @ ab[:, c], so
    alpha at step t is V / sum V. The scale of step t is S_t = n_cl *
    sum V[:, c, l] / sum V[:, c, l-1], with sum V[:, c, -1] = 1.

    A row is served up to its first step with S, sum V or n below _S_FLOOR,
    or NaN: S underflowed there (0 if no regime is possible, NaN on +inf
    evidence), for an entry step to handle; sum V or n below it means the
    products went subnormal, so a scale derived from them lost precision."""
    R, W, K = ev.shape
    C, L = -(-(W - 1) // _CHUNK), _CHUNK
    top = ev.max(axis=2)                                   # (R, W)
    with np.errstate(invalid="ignore"):                    # +inf evidence: caught below
        E = ev - top[:, :, None]
        E = np.exp(E, out=E)
    V = np.empty((R, C * L + 1, K))                        # V[:, t]: step t
    np.multiply(pred, E[:, 0], out=V[:, 0])
    low = np.flatnonzero(~(V[:, 0].sum(axis=1) >= _S_FLOOR))
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(pred[low]) + ev[low, 0]
    m = la.max(axis=1)
    if not np.all(np.isfinite(m)):
        t = start[low[~np.isfinite(m)]].min()
        raise FloatingPointError(f"forward normalizer degenerate at step {t}")
    V[low, 0] = np.exp(la - m[:, None])
    top[low, 0] = m
    P = np.empty((R, C * L, K, K))
    np.multiply(E[:, 1:, :, None], trans, out=P[:, :W - 1])
    del E
    P[:, W - 1:] = np.eye(K)
    P = P.reshape(R, C, L, K, K)
    Pl, n = P.transpose(2, 0, 1, 3, 4), np.empty((L, R, C, 1, 1))   # Pl[l] = P[:, :, l]
    step = np.empty((R, C, K, K))                          # contiguous: fast sums
    step_sums, n_sums = step.reshape(R * C, K * K), n.reshape(L, R * C)
    ab = np.empty((R, C, K, 1))
    with np.errstate(all="ignore"):                        # bad rows: caught below
        for l in range(L):
            if l:
                np.matmul(Pl[l], Pl[l - 1], out=step)
            else:
                np.copyto(step, Pl[0])
            np.add.reduce(step_sums, axis=1, out=n_sums[l])
            np.divide(step, n[l], out=Pl[l])
        abc, last = ab.transpose(1, 0, 2, 3), Pl[-1].transpose(1, 0, 2, 3)   # [c]: chunk c
        for c in range(C):
            if c:
                np.matmul(last[c - 1], abc[c - 1], out=abc[c])
            else:
                abc[0, :, :, 0] = V[:, 0]
            np.divide(abc[c], np.add.reduce(abc[c], axis=1, keepdims=True), out=abc[c])
        np.matmul(P.reshape(R, C, L * K, K), ab, out=V[:, 1:].reshape(R, C, L * K, 1))
        del P, Pl, last                                    # all views of the stack
        sums = V[:, :W].sum(axis=2)                        # (R, W)
        prev = np.ones((R, C * L + 1))                     # sum V of the step before
        prev[:, 1:W] = sums[:, :-1]
        prev[:, 1::L] = 1.0                                # a chunk's first step: sum ab
        n_step = np.ones((R, W))
        n_step[:, 1:] = n_sums.T.reshape(R, -1)[:, :W - 1]
        S = n_step * sums / prev[:, :W]
        log_norms = np.log(S) + top
        alpha = V[:, :W] / sums[:, :, None]
    ok = (S >= _S_FLOOR) & (sums >= _S_FLOOR) & (n_step >= _S_FLOOR)
    return alpha, log_norms, np.where(ok.all(axis=1), W, ok.argmin(axis=1))


def _forward_batch(ev, trans, pi):
    """Filtered beliefs alpha (B, T, K) and log normalizers (B, T): one scan
    of every row from step 0, entered from pi. A row not served to its end is
    scanned again from its first step t not served, entered from the
    prediction trans[t-1] @ alpha[t-1], over _WINDOW steps padded past T as
    padded_inputs pads, until every row is served. A scan always serves its
    entry step, so each moves a row on."""
    B, T, K = ev.shape
    alpha, log_norms, done = _scan(ev, trans, np.broadcast_to(pi, (B, K)), np.zeros(B, int))
    rows = np.flatnonzero(done < T)
    while len(rows):
        t = done[rows]
        pred = np.matmul(trans[rows, t - 1], alpha[rows, t - 1, :, None])[:, :, 0]
        steps = t[:, None] + np.arange(_WINDOW)            # (R, _WINDOW)
        inside, rr = steps < T, rows[:, None]
        ev_w = np.where(inside[:, :, None], ev[rr, np.minimum(steps, T - 1)], 0.0)
        trans_w = np.where(inside[:, 1:, None, None],
                           trans[rr, np.minimum(steps[:, :-1], T - 2)], np.eye(K))
        a, norms, served = _scan(ev_w, trans_w, pred, t)
        r, i = np.nonzero(inside & (np.arange(_WINDOW) < served[:, None]))
        alpha[rows[r], steps[r, i]] = a[r, i]
        log_norms[rows[r], steps[r, i]] = norms[r, i]
        done[rows] = t + served
        rows = rows[done[rows] < T]
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
    transitions and then, in place, their prefix products. Rows scanned again
    from a step the first scan could not serve hold a stack of _WINDOW steps
    each, once that stack is freed.
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
