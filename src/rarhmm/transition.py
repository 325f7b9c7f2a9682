"""Regime transition links: probabilities of the next regime given the previous
regime and the current state and control.

Logits for destination regime i from source regime j at input (x, u) are

    logit[i, j] = bias[i, j] + g_i(s(x, u))

where s standardizes the raw (x, u) vector with the stored mean/std and g is a
kind-specific map sharing parameters across source regimes:

    stationary   g = 0                          (classic HMM)
    linear       g = W s
    polynomial   g = W poly(s)                  (monomials up to `degree`)
    perceptron   g = W2 tanh(W1 s + b1) + b2    (`hidden_units` wide)

Columns of the resulting matrix are probability distributions over the next
regime. feature_params is the flat parameter vector of g (empty when
stationary); the trainable vector for the M-step is bias (row-major) followed
by feature_params.

The M-step objective is the expected transition NLL under pairwise marginals
xi[m, i, j] (source j -> destination i at stacked step m). Because g is shared
across sources, the objective never forms (M, K, K) tensors. With link logits
a = g(s) of shape (M, K) and b = bias,

    log psi[m, i, j] = a[m, i] + b[i, j] - log Z[m, j],
    Z[m, j] = sum_i exp(a[m, i] + b[i, j]),

so the objective and its gradients need only three marginals of xi: source
mass src[m, j] = sum_i xi, destination mass dest[m, i] = sum_j xi and pair
counts pairs[i, j] = sum_m xi:

    NLL    = sum src * log Z - sum dest * a - sum pairs * b
    d a    = E * ((src / Zs) @ B.T) - dest
    d bias = B * (E.T @ (src / Zs)) - pairs

where E = exp(a - max_i a), B = exp(b - max_i b) and Zs = E @ B, one
(M, K) @ (K, K) product, is Z with both shifts divided out:
log Z[m, j] = log Zs[m, j] + max_i a[m, i] + max_i b[i, j]. The shifts cancel
from the NLL, which is therefore summed over the shifted terms. An entry of Zs
underflows when both the link-logit row and the bias column spread by hundreds
of nats; those (m, j) entries alone are recomputed with an exact log-sum-exp
over i. The code stores a, E, Zs, src and dest transposed, as (K, M), and the
full logits of transition_matrices destination-major, as (K, M, K): numpy
reduces over a short trailing or middle axis 15-25x slower than over a leading
one (K = 5, M = 1200).

transition_matrix is the single-step path of the runtime belief and the
samplers, where per-call overhead rather than arithmetic sets the cost. It runs
the same input check, link and bias + link-logit add as transition_matrices,
then the same destination-axis log-softmax on a (K, K) array instead of the
(K, 1, K) tensor, so it equals transition_matrices(tm, x[None], u[None])[0]
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .features import n_monomials, polynomial_features

KINDS = ("stationary", "linear", "polynomial", "perceptron")


def _input_dim(d_x: int, d_u: int) -> int:
    return d_x + d_u


def _feature_dim(kind: str, d_x: int, d_u: int, degree: int) -> int:
    f = _input_dim(d_x, d_u)
    if kind == "polynomial":
        return n_monomials(f, degree)
    return f


def n_feature_params(kind: str, K: int, d_x: int, d_u: int, degree: int = 1,
                     hidden_units: int = 0) -> int:
    f = _feature_dim(kind, d_x, d_u, degree)
    if kind == "stationary":
        return 0
    if kind in ("linear", "polynomial"):
        return K * f
    if kind == "perceptron":
        return hidden_units * f + hidden_units + K * hidden_units + K
    raise ValueError(f"unknown transition kind {kind!r}")


@dataclass(frozen=True)
class TransitionModel:
    kind: str
    K: int
    d_x: int
    d_u: int
    bias: np.ndarray            # (K, K), bias[i, j] for source j -> destination i
    feature_params: np.ndarray  # flat vector, layout per kind
    feat_mean: np.ndarray       # (d_x + d_u,)
    feat_std: np.ndarray        # (d_x + d_u,), all > 0
    degree: int = 1
    hidden_units: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.kind == "perceptron" and self.hidden_units < 1:
            raise ValueError("perceptron needs hidden_units >= 1")
        # drop metadata that is inert for this kind so equality and
        # serialization are canonical
        if self.kind != "polynomial":
            object.__setattr__(self, "degree", 1)
        if self.kind != "perceptron":
            object.__setattr__(self, "hidden_units", 0)
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=float))
        object.__setattr__(self, "feature_params", np.asarray(self.feature_params, dtype=float).ravel())
        object.__setattr__(self, "feat_mean", np.asarray(self.feat_mean, dtype=float).ravel())
        object.__setattr__(self, "feat_std", np.asarray(self.feat_std, dtype=float).ravel())
        if self.bias.shape != (self.K, self.K):
            raise ValueError(f"bias must be (K, K), got {self.bias.shape}")
        if not np.all(np.isfinite(self.bias)):
            raise ValueError("bias must be finite")
        expected = n_feature_params(self.kind, self.K, self.d_x, self.d_u,
                                    self.degree, self.hidden_units)
        if self.feature_params.size != expected:
            raise ValueError(f"feature_params has {self.feature_params.size} entries, "
                             f"expected {expected} for kind {self.kind!r}")
        if not np.all(np.isfinite(self.feature_params)):
            raise ValueError("feature_params must be finite")
        f = _input_dim(self.d_x, self.d_u)
        if self.feat_mean.shape != (f,) or self.feat_std.shape != (f,):
            raise ValueError("standardizer mean/std must have d_x + d_u entries")
        if not np.all(self.feat_std > 0):
            raise ValueError("standardizer std must be positive")


def make_transition(kind: str, K: int, d_x: int, d_u: int, *, degree: int = 1,
                    hidden_units: int = 0, feat_mean=None, feat_std=None, bias=None,
                    rng: np.random.Generator | None = None,
                    init_scale: float = 0.01) -> TransitionModel:
    """Build a transition model, drawing small random feature weights if rng given."""
    f = _input_dim(d_x, d_u)
    if feat_mean is None:
        feat_mean = np.zeros(f)
    if feat_std is None:
        feat_std = np.ones(f)
    if bias is None:
        bias = np.zeros((K, K))
    n = n_feature_params(kind, K, d_x, d_u, degree, hidden_units)
    if rng is not None:
        params = init_scale * rng.standard_normal(n)
    else:
        params = np.zeros(n)
    return TransitionModel(kind=kind, K=K, d_x=d_x, d_u=d_u, bias=bias,
                           feature_params=params, feat_mean=feat_mean,
                           feat_std=feat_std, degree=degree,
                           hidden_units=hidden_units)


# -- feature pipeline ---------------------------------------------------------

def _standardize(tm: TransitionModel, raw: np.ndarray) -> np.ndarray:
    """Standardized raw [x, u] inputs, (..., d_x + d_u); non-finite ones are
    rejected."""
    if not np.isfinite(raw).all():
        raise ValueError("transition inputs must be finite")
    return (raw - tm.feat_mean) / tm.feat_std


def _expand(tm: TransitionModel, s: np.ndarray) -> np.ndarray:
    return polynomial_features(s, tm.degree) if tm.kind == "polynomial" else s


def standardize_inputs(tm: TransitionModel, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    us = np.asarray(us, dtype=float).reshape(xs.shape[0], tm.d_u)
    return _standardize(tm, np.concatenate([xs, us], axis=1))


def transition_features(tm: TransitionModel, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """(M, F) feature matrix for the link, standardized then expanded per kind."""
    return _expand(tm, standardize_inputs(tm, xs, us))


def _unpack(tm: TransitionModel, params: np.ndarray):
    """Split the flat feature_params per kind. Returns a tuple of views."""
    f = _feature_dim(tm.kind, tm.d_x, tm.d_u, tm.degree)
    K, H = tm.K, tm.hidden_units
    if tm.kind == "stationary":
        return ()
    if tm.kind in ("linear", "polynomial"):
        return (params.reshape(K, f),)
    w1 = params[: H * f].reshape(H, f)
    b1 = params[H * f: H * f + H]
    w2 = params[H * f + H: H * f + H + K * H].reshape(K, H)
    b2 = params[H * f + H + K * H:]
    return (w1, b1, w2, b2)


def _link_logits(tm: TransitionModel, feats: np.ndarray, params: np.ndarray):
    """(M, K) link logits g(s), plus the perceptron's (M, H) hidden layer
    (None for other kinds)."""
    if tm.kind == "stationary":
        return np.zeros((feats.shape[0], tm.K)), None
    parts = _unpack(tm, params)
    if tm.kind in ("linear", "polynomial"):
        return feats @ parts[0].T, None
    w1, b1, w2, b2 = parts
    h = np.tanh(feats @ w1.T + b1)
    return h @ w2.T + b2, h


def _log_softmax_dest(logits: np.ndarray) -> np.ndarray:
    """Normalize destination-major logits (K, ...) over the destination axis 0,
    the leading axis, which numpy reduces fastest."""
    z = logits - logits.max(axis=0)
    z -= np.log(np.add.reduce(np.exp(z), axis=0))
    return z


def transition_matrices(tm: TransitionModel, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Column-stochastic matrices (M, K, K): entry [m, i, j] = p(next = i | prev = j).

    The result is a transposed view of destination-major (K, M, K) storage.
    """
    feats = transition_features(tm, xs, us)  # validates xs and us for every kind
    if tm.kind == "stationary":
        # every step shares softmax(bias): normalize once, repeat M times
        return np.repeat(np.exp(_log_softmax_dest(tm.bias))[None], len(feats), axis=0)
    # (K, M, K) logits [i, m, j]. Fill, then add in place: one add of two
    # broadcast operands is slower at large M
    logits = np.empty((tm.K, len(feats), tm.K))
    logits[...] = tm.bias[:, None, :]
    logits += _link_logits(tm, feats, tm.feature_params)[0].T[:, :, None]
    return np.exp(_log_softmax_dest(logits)).transpose(1, 0, 2)


def transition_matrix(tm: TransitionModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column-stochastic (K, K) matrix at one input: entry [i, j] =
    p(next = i | prev = j). Bit-identical to transition_matrices at M = 1,
    with the same checks, link and softmax on (K, K) arrays (module
    docstring)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (tm.d_x,) or u.size != tm.d_u:
        raise ValueError(f"transition input must be x ({tm.d_x},) and u ({tm.d_u},), "
                         f"got {x.shape} and {u.shape}")
    s = _standardize(tm, np.concatenate((x, u.ravel())))
    if tm.kind == "stationary":
        return np.exp(_log_softmax_dest(tm.bias))
    a = _link_logits(tm, _expand(tm, s[None]), tm.feature_params)[0][0]
    return np.exp(_log_softmax_dest(tm.bias + a[:, None]))


def transition_probs(tm: TransitionModel, z_prev: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    if not 0 <= z_prev < tm.K:
        raise ValueError(f"z_prev {z_prev} out of range for K = {tm.K}")
    return transition_matrix(tm, x, u)[:, z_prev]


# -- M-step objective ---------------------------------------------------------

def params_to_vector(tm: TransitionModel) -> np.ndarray:
    return np.concatenate([tm.bias.ravel(), tm.feature_params])


def vector_to_params(tm: TransitionModel, vec: np.ndarray) -> TransitionModel:
    vec = np.asarray(vec, dtype=float)
    kk = tm.K * tm.K
    if vec.size != kk + tm.feature_params.size:
        raise ValueError("parameter vector length mismatch")
    return replace(tm, bias=vec[:kk].reshape(tm.K, tm.K).copy(),
                   feature_params=vec[kk:].copy())


def stack_transition_stats(tm: TransitionModel, dataset, xis) -> tuple[np.ndarray, np.ndarray]:
    """Stack link features at source steps and xi tables across trajectories.

    xis holds one (T-1, K, K) pairwise-marginal array per trajectory, indexed
    [t, j, i] for source j -> destination i. Returns feats (M, F) and
    xi_di (M, K, K) with xi_di[m, i, j] the expected count of j -> i at
    stacked step m.
    """
    feats, xs = [], []
    for traj, xi in zip(dataset.trajectories, xis):
        feats.append(transition_features(tm, traj.xs[:-1], traj.us[:-1]))
        xs.append(np.swapaxes(xi, 1, 2))
    return np.concatenate(feats, axis=0), np.concatenate(xs, axis=0)


# Entries of the shifted normalizer Zs below this are recomputed exactly. Far
# above the subnormal range, so terms lost to underflow are negligible against
# Zs, and src / Zs stays far from overflow in the matmuls that consume it.
_Z_FLOOR = 1e-200


def xi_marginals(xi_di: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source mass src[j, m] and destination mass dest[i, m], both regime-major
    (K, M), and pair counts pairs[i, j] of xi_di[m, i, j]: the only statistics
    of xi the factored objective reads."""
    xi_ijm = np.ascontiguousarray(xi_di.transpose(1, 2, 0))
    return xi_ijm.sum(axis=0), xi_ijm.sum(axis=1), xi_ijm.sum(axis=2)


def _nll_grad_factored(tm: TransitionModel, bias: np.ndarray, params: np.ndarray,
                       feats: np.ndarray, src: np.ndarray, dest: np.ndarray,
                       pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective of _nll_grad_packed from the marginals of xi (module
    docstring). Per-step arrays are (K, M)."""
    a, h = _link_logits(tm, feats, params)
    a = np.ascontiguousarray(a.T)
    a_rel = a - a.max(axis=0)                          # <= 0
    b_rel = bias - bias.max(axis=0)                    # <= 0 per source column
    E = np.exp(a_rel)
    B = np.exp(b_rel)
    zs = B.T @ E                                       # shifted normalizer zs[j, m]
    low = zs.min() < _Z_FLOOR
    if low:
        jj, mm = np.nonzero(zs < _Z_FLOOR)
        zs[jj, mm] = 1.0                               # placeholder, fixed below
    # row and column shifts cancel from the NLL, because sum_i dest[i, m] and
    # sum_j src[j, m] are both the mass at step m, and sum_m src[j, m] and
    # sum_i pairs[i, j] are both the mass leaving j
    log_zs = np.log(zs)
    ratio = src / zs
    if low:
        ratio[jj, mm] = 0.0
        rel = (a_rel[:, mm] + b_rel[:, jj]).T          # (n, K) over destinations
        top = rel.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(rel - top).sum(axis=1))
        log_zs[jj, mm] = lse
        flow = src[jj, mm][:, None] * np.exp(rel - lse[:, None])
    nll = float(np.vdot(src, log_zs) - np.vdot(dest, a_rel) - np.vdot(pairs, b_rel))

    grad_a = E * (B @ ratio) - dest                    # shared across sources
    grad_bias = B * (E @ ratio.T) - pairs
    if low:
        np.add.at(grad_a.T, mm, flow)
        np.add.at(grad_bias.T, jj, flow)
    if tm.kind == "stationary":
        return nll, grad_bias.ravel()
    if tm.kind in ("linear", "polynomial"):
        grad_w = grad_a @ feats
        return nll, np.concatenate([grad_bias.ravel(), grad_w.ravel()])
    _, _, w2, _ = _unpack(tm, params)
    grad_w2 = grad_a @ h
    grad_b2 = grad_a.sum(axis=1)
    back = (grad_a.T @ w2) * (1.0 - h * h)             # (M, H)
    grad_w1 = back.T @ feats
    grad_b1 = back.sum(axis=0)
    return nll, np.concatenate([grad_bias.ravel(), grad_w1.ravel(), grad_b1,
                                grad_w2.ravel(), grad_b2])


def _nll_grad_packed(tm: TransitionModel, vec: np.ndarray, feats: np.ndarray,
                     xi_di: np.ndarray,
                     marginals: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                     ) -> tuple[float, np.ndarray]:
    """Expected transition NLL and its gradient at parameter vector `vec`.

    feats and xi_di come from stack_transition_stats; marginals is the optional
    precomputed xi_marginals(xi_di), invariant across evaluations. The objective
    is -sum_m sum_ij xi_di[m, i, j] log psi[m, i, j], evaluated in factored form
    (see the module docstring).
    """
    kk = tm.K * tm.K
    src, dest, pairs = xi_marginals(xi_di) if marginals is None else marginals
    return _nll_grad_factored(tm, vec[:kk].reshape(tm.K, tm.K), vec[kk:], feats,
                              src, dest, pairs)


def weighted_nll_and_grad(tm: TransitionModel, dataset, xis) -> tuple[float, np.ndarray]:
    """Expected negative log-likelihood of transitions under pairwise marginals.

    The gradient is with respect to the trainable vector params_to_vector(tm):
    bias entries row-major, then feature_params.
    """
    feats, xi_di = stack_transition_stats(tm, dataset, xis)
    return _nll_grad_packed(tm, params_to_vector(tm), feats, xi_di)
