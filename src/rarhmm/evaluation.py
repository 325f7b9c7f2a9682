"""Forecasting protocol: filtering, h-step open-loop prediction, NMSE
scoring, split-averaged report tables, and parameter counting.

Forecasts start from the filtered regime belief at the prefix end, then
alternate belief propagation through the state-dependent transition with a
one-step state prediction. Each start of a test trajectory runs one forecast
path, as long as the largest horizon that fits before the trajectory ends,
and that path is scored at the final step of every horizon window it covers,
normalized by per-dimension test-set variance so a mean predictor scores 1.
Every start of every test trajectory runs in one batch of ragged rows per
model (_forecast_batch with lengths), so each (start, step) pair is forecast
once, whatever the horizons, and each step of the batch is one link evaluation
over all running rows. Only the beliefs in that batch depend on the model: the
rest is laid out once per evaluate call (_forecast_layout). The beliefs come
from one forward pass over the whole test set, padded to its longest
trajectory (filter_all): the same padded batch the E-step smooths.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._linalg import is_integer, last_axis_sum
from .inference import _forward_batch, padded_inputs
from .model import Dataset, HybridModel
from .transition import transition_matrices

MODE_MARGINAL = "marginal"
MODE_ARGMAX = "argmax"
FORECAST_MODES = (MODE_MARGINAL, MODE_ARGMAX)


def filter_all(model: HybridModel, dataset: Dataset) -> np.ndarray:
    """Filtered regime posteriors (B, T_max, K) of the B trajectories, from
    one forward pass over their padded batch (inference.padded_inputs): entry
    [b, t-1] is p(z_t | x_{1:t}, u_{1:t}) of trajectory b, computed as alone,
    and entries past its end repeat its last belief. The pass also holds one
    stack of B * (T_max-1) * K * K floats, rounded up to whole chunks of
    inference._CHUNK steps: the folded transitions, overwritten in place by
    their prefix products. Rows scanned again from a step where their scale
    underflowed hold a stack of inference._WINDOW steps each, once that stack
    is freed."""
    ev, trans, pad = padded_inputs(model, dataset)
    return _forward_batch(ev, trans, model.init.pi, pad)[0]


def _forecast_batch(model: HybridModel, x0: np.ndarray, b0: np.ndarray,
                    us: np.ndarray, mode: str, lengths: np.ndarray) -> np.ndarray:
    """Forecast up to h steps from M starts at once.

    x0 (M, d_x) states, b0 (M, K) beliefs, us (M, h, d_u) recorded actions.
    Returns (M, h, d_x). Row r runs lengths[r] <= h steps and its later
    entries are NaN; lengths must not increase (a ValueError names the first
    row that breaks either rule), so the rows still running at step i are a
    prefix and only that prefix of x, b and us[:, i] is read. Marginal
    propagates the full belief and predicts the belief-weighted mean; argmax
    collapses the belief to its best regime each step. mode is one of
    FORECAST_MODES, which evaluate checks.
    """
    M, h = us.shape[:2]
    bad = np.flatnonzero(np.diff(lengths, prepend=h) > 0)
    if bad.size:
        raise ValueError(f"lengths must not increase and must be at most h = {h}, "
                         f"but row {bad[0]} runs {lengths[bad[0]]} steps")
    running = np.count_nonzero(lengths > np.arange(h)[:, None], axis=1)
    x = np.array(x0, dtype=float)
    b = np.array(b0, dtype=float)
    A, B, c = model.dynamics.A, model.dynamics.B, model.dynamics.c
    out = np.full((M, h, x.shape[1]), np.nan)
    for i, m in enumerate(running):
        x, b = x[:m], b[:m]
        u = us[:m, i, :]
        psi = transition_matrices(model.transition, x, u)     # (m, K, K) [dest, src]
        b = np.einsum("mij,mj->mi", psi, b)
        b /= last_axis_sum(b)[:, None]
        # per-regime one-step means: (m, K, d_x); without controls B adds nothing
        Ax = np.einsum("kde,me->mkd", A, x)
        means = (Ax + np.einsum("kdu,mu->mkd", B, u) if u.shape[1] else Ax) + c
        if mode == MODE_MARGINAL:
            x = np.einsum("mk,mkd->md", b, means)
        else:
            ks = b.argmax(axis=1)
            x = means[np.arange(m), ks]
            b = np.eye(model.K)[ks]
        out[:m, i, :] = x
    return out


def nmse(preds: np.ndarray, truths: np.ndarray, normalizer: np.ndarray) -> float:
    """Mean over points of the per-dimension variance-normalized squared
    error, averaged over dimensions; a test-set-mean predictor scores 1."""
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    truths = np.atleast_2d(np.asarray(truths, dtype=float))
    if preds.shape != truths.shape or preds.size == 0:
        raise ValueError(f"preds {preds.shape} and truths {truths.shape} must "
                         f"match and be nonempty")
    normalizer = np.asarray(normalizer, dtype=float)
    if np.any(normalizer <= 0):
        raise ValueError("zero-variance dimension in the normalizer")
    err = (preds - truths) ** 2 / normalizer
    return float(np.mean(err.sum(axis=1) / preds.shape[1]))


def dataset_normalizer(test: Dataset) -> np.ndarray:
    """Per-dimension variance of all test-set states."""
    xs = np.concatenate([t.xs for t in test.trajectories], axis=0)
    var = xs.var(axis=0)
    if np.any(var <= 0):
        raise ValueError("test set has a zero-variance state dimension")
    return var


@dataclass
class EvalReport:
    """Split-averaged NMSE table plus per-split long rows and param counts."""
    rows: list = field(default_factory=list)        # dicts: tag, K, h, mean, std, n
    per_split: list = field(default_factory=list)   # dicts: tag, K, split, h, nmse
    param_counts: dict = field(default_factory=dict)

    def to_csv(self, header_lines=()) -> str:
        lines = [f"# {h}" for h in header_lines]
        lines.append("model_tag,K,h,nmse_mean,nmse_std,n_splits")
        for r in self.rows:
            lines.append(f"{r['tag']},{r['K']},{r['h']},{r['mean']!r},"
                         f"{r['std']!r},{r['n']}")
        return "\n".join(lines) + "\n"

    def to_long_csv(self, header_lines=()) -> str:
        lines = [f"# {h}" for h in header_lines]
        lines.append("model_tag,K,split,h,nmse")
        for r in self.per_split:
            lines.append(f"{r['tag']},{r['K']},{r['split']},{r['h']},{r['nmse']!r}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        out = []
        for r in self.rows:
            out.append(f"{r['tag']:24s} K={r['K']:<2d} h={r['h']:<3d} "
                       f"nmse={r['mean']:.6g} +- {r['std']:.3g} "
                       f"(n={r['n']})")
        for tag, count in self.param_counts.items():
            out.append(f"{tag:24s} params={count}")
        return "\n".join(out)


def _forecast_layout(test: Dataset, horizons: list) -> tuple:
    """The model-free part of a test set's forecast batch: one row per
    1-based start s = i + 1 of trajectory b with s + min(horizons) <= T_b,
    running the largest horizon that fits. Rows are ordered by path length,
    descending and stable over test-set order (by trajectory, then start), as
    _forecast_batch requires. Returns, in batch order, the starts' (b, i)
    index, states, action windows (NaN past a trajectory's end, which the link
    rejects) and path lengths; and per horizon h, in the given order, the rows
    of the starts with s + h <= T_b and their truths x_{s+h}, both in test-set
    order."""
    hs = np.unique(horizons)
    T = np.array([traj.T for traj in test.trajectories])
    b, i = np.nonzero(np.arange(T.max()) < (T - hs[0])[:, None])
    lengths = hs[np.searchsorted(hs, T[b] - 1 - i, side="right") - 1]
    order = np.argsort(-lengths, kind="stable")
    rows = np.argsort(order)   # the batch row of each start in test-set order
    xs = np.full((T.size, T.max(), test.d_x), np.nan)
    us = np.full((T.size, T.max() + hs[-1] - 1, test.d_u), np.nan)
    for k, traj in enumerate(test.trajectories):
        xs[k, :traj.T], us[k, :traj.T] = traj.xs, traj.us
    scored = []
    for h in horizons:
        keep = i < T[b] - h
        scored.append((rows[keep], xs[b[keep], i[keep] + h]))
    starts = b[order], i[order]
    windows = sliding_window_view(us, hs[-1], axis=1).swapaxes(2, 3)
    return starts, xs[starts], windows[starts], lengths[order], scored


def evaluate(models_by_tag: dict, test: Dataset, horizons,
             mode: str = MODE_MARGINAL) -> EvalReport:
    """Score each tag's per-split models on the test set at every horizon.

    models_by_tag maps a tag to the list of fitted models, one per split,
    which must agree in K and in count_params_breakdown. horizons are
    distinct integers >= 1. Aggregation is the mean and population std over
    splits. Each model filters the whole test set once (filter_all) and
    forecasts it in one batch: one path per start, scored at every horizon
    that fits. mode is one of FORECAST_MODES. Once per call the batch holds,
    for all n_starts starts and the longest horizon h_max, the starts' states
    and (n_starts, h_max, d_u) action windows, and per horizon an index of
    the scored rows and their truths (_forecast_layout). Per model the padded
    (B, T_max, K) beliefs, the starts' beliefs and one (n_starts, h_max, d_x)
    forecast array are held, and at each step one (n_running, K, K) link
    stack over the rows still running.
    """
    if mode not in FORECAST_MODES:
        raise ValueError(f"mode must be one of {FORECAST_MODES}, got {mode!r}")
    horizons = list(horizons)
    if not horizons or not all(is_integer(h) and h >= 1 for h in horizons):
        raise ValueError(f"horizons must be integers >= 1, got {horizons!r}")
    horizons = [int(h) for h in horizons]
    normalizer = dataset_normalizer(test)
    longest = max(traj.T for traj in test.trajectories)
    for h in horizons:
        if horizons.count(h) > 1:
            raise ValueError(f"horizon {h} is given more than once")
        if longest <= h:
            raise ValueError(f"no trajectory is longer than horizon {h}")
    for tag, models in models_by_tag.items():
        if not models:
            raise ValueError(f"tag {tag!r} has no models")
        if any(count_params_breakdown(m) != count_params_breakdown(models[0]) for m in models):
            raise ValueError(f"tag {tag!r} mixes models of different K or parameter counts")
    starts, x0, us, lengths, scored = _forecast_layout(test, horizons)
    report = EvalReport()
    for tag, models in models_by_tag.items():
        K = models[0].K
        scores = np.empty((len(models), len(horizons)))
        for s, model in enumerate(models):
            out = _forecast_batch(model, x0, filter_all(model, test)[starts], us, mode, lengths)
            for j, (h, (rows, truths)) in enumerate(zip(horizons, scored)):
                scores[s, j] = nmse(out[rows, h - 1], truths, normalizer)
                report.per_split.append(dict(tag=tag, K=model.K, split=s, h=h,
                                             nmse=float(scores[s, j])))
        for j, h in enumerate(horizons):
            report.rows.append(dict(tag=tag, K=K, h=h,
                                    mean=float(scores[:, j].mean()),
                                    std=float(scores[:, j].std()),
                                    n=len(models)))
        report.param_counts[tag] = count_params(models[0])
    return report


def count_params(model: HybridModel) -> int:
    """Documented counting convention: initial regime probabilities (K) plus
    transition (K^2 bias + feature parameters) plus, per regime, A (d_x^2),
    B (d_x d_u), c (d_x) and a diagonal process noise (d_x); closed-loop
    controllers add gain, offset and diagonal noise analogously. The
    initial-state Gaussians are excluded."""
    return sum(count_params_breakdown(model).values())


def count_params_breakdown(model: HybridModel) -> dict:
    K, d_x, d_u = model.K, model.d_x, model.d_u
    out = {
        "initial_probs": K,
        "transition_bias": K * K,
        "transition_features": int(model.transition.feature_params.size),
        "dynamics": K * (d_x * d_x + d_x * d_u + d_x + d_x),
    }
    if model.controllers is not None:
        d_phi = model.controllers.gain.shape[2]
        out["controllers"] = K * (d_u * d_phi + d_u + d_u)
    return out
