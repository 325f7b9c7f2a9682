"""Regime transition links: probabilities of the next regime given the previous
regime and the current state and control.

Logits for destination regime i from source regime j at input (x, u) are

    logit[i, j] = bias[i, j] + g_i(s(x, u))

where s standardizes the raw (x, u) vector with the stored mean/std and g
shares its parameters across source regimes. g is one of two maps of the
link features phi(s) (_features):

    affine       g = W phi(s)
    perceptron   g = W2 tanh(W1 s + b1) + b2    (`hidden_units` wide)

The affine map covers three kinds, which differ only in phi: a stationary
link (classic HMM) has no features, so g = 0; a linear link has phi(s) = s; a
polynomial link has the monomials of s up to `degree`. The spec strings that
name a link, such as 'polynomial:2' or 'perceptron:16', are parsed here
(parse_transition_spec).

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
counts pairs[i, j] = sum_m xi. transition_stats stacks the link features and
reduces the posteriors to these three once; every evaluation of the objective
_nll_grad then reads them:

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

transition_matrices evaluates the link matrices: the E-step and the evaluation
filter on whole trajectories, the runtime belief on one step (M = 1), and the
forecast only where the factored form above underflows. transition_features
is the one entry point for link inputs, and it checks shapes and finiteness.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import c_copy, set_frozen
from .features import n_monomials, polynomial_features

KINDS = ("stationary", "linear", "polynomial", "perceptron")
PERCEPTRON_HIDDEN_UNITS = 16  # width of a perceptron spec without one
FEATURE_INIT_SCALE = 0.01     # scale of make_transition's random feature weights
_SPEC_GRAMMAR = "stationary, linear, polynomial[:DEGREE] or perceptron[:UNITS]"


def _check_link_size(kind: str, degree: int, hidden_units: int) -> None:
    """The one size rule of a link: a polynomial needs degree >= 1 and a
    perceptron hidden units >= 1."""
    if kind == "polynomial" and degree < 1:
        raise ValueError(f"polynomial transition needs degree >= 1, got {degree}")
    if kind == "perceptron" and hidden_units < 1:
        raise ValueError(f"perceptron transition needs hidden units >= 1, "
                         f"got {hidden_units}")


def parse_transition_spec(spec: str) -> tuple[str, int, int]:
    """Resolve a link spec 'stationary', 'linear', 'polynomial:2' or
    'perceptron:16' to (kind, degree, hidden_units): degree 1 and width 0
    unless given, a bare 'perceptron' PERCEPTRON_HIDDEN_UNITS wide."""
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    default = {"polynomial": 1, "perceptron": PERCEPTRON_HIDDEN_UNITS}.get(kind)
    bad = ValueError(f"transition spec {spec!r} is not one of {_SPEC_GRAMMAR}")
    if kind not in KINDS or (arg and default is None):
        raise bad
    try:
        size = int(arg) if arg else default
    except ValueError:
        raise bad from None
    degree = size if kind == "polynomial" else 1
    hidden = size if kind == "perceptron" else 0
    _check_link_size(kind, degree, hidden)
    return kind, degree, hidden


def _feature_dim(kind: str, d_x: int, d_u: int, degree: int) -> int:
    """Width of the link features: none when stationary, the monomials of the
    d_x + d_u inputs up to the degree for a polynomial, the inputs otherwise."""
    if kind == "stationary":
        return 0
    return n_monomials(d_x + d_u, degree if kind == "polynomial" else 1)


def n_feature_params(kind: str, K: int, d_x: int, d_u: int, degree: int = 1,
                     hidden_units: int = 0) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown transition kind {kind!r}")
    f = _feature_dim(kind, d_x, d_u, degree)
    if kind == "perceptron":
        return hidden_units * f + hidden_units + K * hidden_units + K
    return K * f


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """A link of one kind (module docstring); K is read from the square bias.
    The arrays are held as read-only C-ordered float copies. Like the regime
    blocks, a link compares and hashes by identity."""
    kind: str
    d_x: int
    d_u: int
    bias: np.ndarray            # (K, K), bias[i, j] for source j -> destination i
    feature_params: np.ndarray  # flat vector, layout per kind
    feat_mean: np.ndarray       # (d_x + d_u,)
    feat_std: np.ndarray        # (d_x + d_u,), all > 0
    degree: int = 1
    hidden_units: int = 0
    K: int = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transition kind {self.kind!r}")
        _check_link_size(self.kind, self.degree, self.hidden_units)
        # drop metadata that is inert for this kind, so a link's fields and
        # its serialized form are canonical
        if self.kind != "polynomial":
            object.__setattr__(self, "degree", 1)
        if self.kind != "perceptron":
            object.__setattr__(self, "hidden_units", 0)
        bias = c_copy(self.bias, 2, "bias")
        K = len(bias)
        if K < 1 or bias.shape != (K, K):
            raise ValueError(f"bias must be (K, K) with K >= 1, got {bias.shape}")
        params, mean, std = (c_copy(getattr(self, name), 1, name)
                             for name in ("feature_params", "feat_mean", "feat_std"))
        expected = n_feature_params(self.kind, K, self.d_x, self.d_u,
                                    self.degree, self.hidden_units)
        if params.size != expected:
            raise ValueError(f"feature_params has {params.size} entries, "
                             f"expected {expected} for kind {self.kind!r}")
        f = self.d_x + self.d_u
        if mean.shape != (f,) or std.shape != (f,):
            raise ValueError("standardizer mean/std must have d_x + d_u entries")
        if not np.all(std > 0):
            raise ValueError("standardizer std must be positive")
        object.__setattr__(self, "K", K)
        set_frozen(self, bias=bias, feature_params=params, feat_mean=mean, feat_std=std)


def make_transition(kind: str, K: int, d_x: int, d_u: int, *, degree: int = 1,
                    hidden_units: int = 0, feat_mean=None, feat_std=None, bias=None,
                    rng: np.random.Generator | None = None) -> TransitionModel:
    """Build a transition model, drawing feature weights of scale
    FEATURE_INIT_SCALE if rng is given (zeros otherwise)."""
    f = d_x + d_u
    if feat_mean is None:
        feat_mean = np.zeros(f)
    if feat_std is None:
        feat_std = np.ones(f)
    if bias is None:
        bias = np.zeros((K, K))
    n = n_feature_params(kind, K, d_x, d_u, degree, hidden_units)
    if rng is not None:
        params = FEATURE_INIT_SCALE * rng.standard_normal(n)
    else:
        params = np.zeros(n)
    return TransitionModel(kind=kind, d_x=d_x, d_u=d_u, bias=bias,
                           feature_params=params, feat_mean=feat_mean,
                           feat_std=feat_std, degree=degree,
                           hidden_units=hidden_units)


# -- feature pipeline ---------------------------------------------------------

def transition_features(tm: TransitionModel, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """(M, F) link features of finite inputs xs (M, d_x) and us (M, d_u): none
    for a stationary link, else the standardized [x, u] rows expanded to their
    monomials up to the degree (1 unless polynomial)."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != tm.d_x or us.shape != (len(xs), tm.d_u):
        raise ValueError(f"transition inputs must be xs (M, {tm.d_x}) and us "
                         f"(M, {tm.d_u}), got {xs.shape} and {us.shape}")
    raw = np.concatenate([xs, us], axis=1)
    if not np.isfinite(raw).all():
        raise ValueError("transition inputs must be finite")
    if tm.kind == "stationary":
        return raw[:, :0]
    s = (raw - tm.feat_mean) / tm.feat_std
    return s if tm.degree == 1 else polynomial_features(s, tm.degree)


def _unpack(tm: TransitionModel, params: np.ndarray):
    """Split the flat feature_params: the (K, F) weights of the affine link, or
    the perceptron's (w1, b1, w2, b2). Returns a tuple of views."""
    f = _feature_dim(tm.kind, tm.d_x, tm.d_u, tm.degree)
    K, H = tm.K, tm.hidden_units
    if tm.kind != "perceptron":
        return (params.reshape(K, f),)
    w1 = params[: H * f].reshape(H, f)
    b1 = params[H * f: H * f + H]
    w2 = params[H * f + H: H * f + H + K * H].reshape(K, H)
    b2 = params[H * f + H + K * H:]
    return (w1, b1, w2, b2)


def _link_logits(tm: TransitionModel, feats: np.ndarray, params: np.ndarray):
    """(M, K) link logits g(s), plus the perceptron's (M, H) hidden layer
    (None for the affine link)."""
    parts = _unpack(tm, params)
    if tm.kind != "perceptron":
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


# -- M-step objective ---------------------------------------------------------

def params_to_vector(tm: TransitionModel) -> np.ndarray:
    return np.concatenate([tm.bias.ravel(), tm.feature_params])


def vector_to_params(tm: TransitionModel, vec: np.ndarray) -> TransitionModel:
    vec = np.asarray(vec, dtype=float)
    kk = tm.K * tm.K
    if vec.size != kk + tm.feature_params.size:
        raise ValueError("parameter vector length mismatch")
    return replace(tm, bias=vec[:kk].reshape(tm.K, tm.K), feature_params=vec[kk:])


def transition_stats(tm: TransitionModel, dataset, xis
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Link features at source steps and the statistics of xi the objective
    reads, stacked across trajectories.

    xis holds one (T-1, K, K) pairwise-marginal array per trajectory, indexed
    [t, j, i] for source j -> destination i. Returns feats (M, F), source
    mass src[j, m] and destination mass dest[i, m], both regime-major (K, M),
    and pair counts pairs[i, j]. All three are sums of one C-ordered (K, K, M)
    array [i, j, m], so each reduces over a leading axis or the contiguous one.
    """
    feats = np.concatenate([transition_features(tm, traj.xs[:-1], traj.us[:-1])
                            for traj in dataset.trajectories], axis=0)
    xi_ijm = np.ascontiguousarray(
        np.concatenate([xi.transpose(2, 1, 0) for xi in xis], axis=2))
    return feats, xi_ijm.sum(axis=0), xi_ijm.sum(axis=1), xi_ijm.sum(axis=2)


# Entries of the shifted normalizer Zs below this are recomputed exactly. Far
# above the subnormal range, so terms lost to underflow are negligible against
# Zs, and src / Zs stays far from overflow in the matmuls that consume it.
_Z_FLOOR = 1e-200


def _nll_grad(tm: TransitionModel, vec: np.ndarray, feats: np.ndarray,
              src: np.ndarray, dest: np.ndarray,
              pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """Expected transition NLL -sum_m sum_ij xi[m, i, j] log psi[m, i, j] and
    its gradient at parameter vector `vec`, in factored form from the
    statistics of transition_stats (module docstring). Per-step arrays are
    (K, M)."""
    kk = tm.K * tm.K
    bias, params = vec[:kk].reshape(tm.K, tm.K), vec[kk:]
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
    if tm.kind != "perceptron":
        return nll, np.concatenate([grad_bias.ravel(), (grad_a @ feats).ravel()])
    _, _, w2, _ = _unpack(tm, params)
    grad_w2 = grad_a @ h
    grad_b2 = grad_a.sum(axis=1)
    back = (grad_a.T @ w2) * (1.0 - h * h)             # (M, H)
    grad_w1 = back.T @ feats
    grad_b1 = back.sum(axis=0)
    return nll, np.concatenate([grad_bias.ravel(), grad_w1.ravel(), grad_b1,
                                grad_w2.ravel(), grad_b2])


def weighted_nll_and_grad(tm: TransitionModel, dataset, xis) -> tuple[float, np.ndarray]:
    """Expected negative log-likelihood of transitions under pairwise marginals.

    The gradient is with respect to the trainable vector params_to_vector(tm):
    bias entries row-major, then feature_params.
    """
    return _nll_grad(tm, params_to_vector(tm), *transition_stats(tm, dataset, xis))
