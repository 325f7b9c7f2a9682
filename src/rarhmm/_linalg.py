"""Small numeric helpers shared across modules. Every parameter block holds
read-only C-ordered copies of its arrays (c_copy, set_frozen). Only the regime
blocks of model.py (InitialModel, Dynamics, Controllers) call gauss_factors,
once each in their constructor; gauss_logpdf reads the whitening matrices they
hold, and gauss_draw the Cholesky factors that only Controllers keeps, for
policy.act's sample draws. draw_regimes is the one regime draw from a belief.
A density whitens its residuals with the cached inverse W = inv(L) of the lower
Cholesky factor L, |W r|^2 being the Mahalanobis term, so it costs one matmul
and no factorization.

last_axis_max and last_axis_sum reduce over a short last axis, the regimes,
by K - 1 elementwise passes over its slices: numpy reduces such an axis one
output row at a time when its entries are adjacent in memory, several times
slower on batch-sized arrays. Each returns numpy's x.max(axis=-1) or
x.sum(axis=-1) bit for bit, save a NaN's sign bit, which depends on operand
order (as from inf - inf). Below 8 entries numpy adds the entries in sequence
from +0.0, and the slices add them in that order; from 8 entries on numpy
sums pairwise and breaks a max's ties between -0.0 and +0.0 in an order of its
own, so there the helpers call numpy. They call numpy too when the last axis
is strided (as in a Fortran-ordered array): numpy then already runs
elementwise, over the axis whose entries are adjacent, in fewer calls."""
from __future__ import annotations

import numpy as np

LOG2PI = float(np.log(2.0 * np.pi))


def c_copy(x, ndim: int | None, name: str) -> np.ndarray:
    """A finite C-ordered float copy of x with ndim axes (any number when
    None), so freezing it leaves the caller's array writeable."""
    a = np.array(x, dtype=float, order="C")
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} axes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def is_integer(value) -> bool:
    """An int or numpy integer, and not a bool: a count or a size."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def set_frozen(block, **arrays) -> None:
    """Set each named array on a frozen dataclass, read-only."""
    for name, a in arrays.items():
        a.flags.writeable = False
        object.__setattr__(block, name, a)


def floor_spd(cov: np.ndarray, floor: float) -> np.ndarray:
    """Project a matrix onto the symmetric cone with eigenvalues >= floor.

    Symmetrizes first; eigenvalues below the floor are clipped up. For a zero
    matrix this reduces to floor * I.
    """
    cov = np.asarray(cov, dtype=float)
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def gauss_factors(covs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower Cholesky factors L of (K, d, d) covariances, their C-ordered
    inverses W = inv(L) (the whitening matrices gauss_logpdf applies), and
    d log 2pi + log det of each, summed in the order gauss_logpdf adds them
    to the Mahalanobis term."""
    covs = np.asarray(covs, dtype=float)
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"covariance not positive definite (min eig "
                                    f"{np.linalg.eigvalsh(covs).min():.3e})") from e
    logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    # LU of the upper factor L' swaps no rows, so inverting it is plain back
    # substitution and W = inv(L')' comes out exactly lower triangular
    whiten = np.linalg.inv(chols.swapaxes(1, 2)).swapaxes(1, 2).copy()
    return chols, whiten, covs.shape[-1] * LOG2PI + logdet


def gauss_logpdf(resid: np.ndarray, whiten: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Log density of N(0, L_k L_k') per regime k at resid (K, n, d), n rows
    per regime, giving (K, n), or at resid (K, d), one point per regime,
    giving (K,); whiten (K, d, d) = inv(L) and const (K,) = d log 2pi + log
    det. The whitened residuals are columns, z = whiten @ resid', so the
    Mahalanobis term sums squares over the d rows of z."""
    if resid.shape[-1] == 0:
        # empty event space: the density of a point mass is 1
        return np.zeros(resid.shape[:-1])
    point = resid.ndim < whiten.ndim
    z = whiten @ (resid[..., None] if point else resid.swapaxes(-1, -2))   # (K, d, n)
    out = -0.5 * (const[:, None] + np.square(z, out=z).sum(axis=-2))
    return out[:, 0] if point else out


def gauss_draw(rng: np.random.Generator, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Draws of N(mean, chol chol') from lower factors chol (..., d, d), one
    per row of mean (..., d), taking the normals in row order."""
    if mean.shape[-1] == 0:
        return np.zeros_like(mean)
    return mean + (chol @ rng.standard_normal(mean.shape)[..., None])[..., 0]


def draw_regimes(rng: np.random.Generator, beliefs: np.ndarray) -> np.ndarray:
    """One regime per row of beliefs (m, K) from one rng.random(m) call, by
    Generator.choice's rule, so a row draws what rng.choice(K, p=row) would:
    the first regime whose cumulative mass, normalized by the row's total,
    exceeds the row's draw (a total rounding below 1 leaves no draw unmatched)."""
    cum = np.cumsum(beliefs, axis=1)
    cum /= cum[:, -1:]
    return np.count_nonzero(cum <= rng.random(len(beliefs))[:, None], axis=1)


def _by_slices(x: np.ndarray) -> bool:
    """Whether x's last axis has fewer than 8 entries, adjacent in memory:
    the case in which reducing it by slices beats numpy and matches its
    rounding (see the module docstring)."""
    return x.shape[-1] < 8 and x.strides[-1] == x.itemsize


def last_axis_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1) bit for bit, by elementwise maxima of the last axis's
    slices when it is short and contiguous (see the module docstring)."""
    if not _by_slices(x):
        return x.max(axis=-1)
    out = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(out, x[..., k], out=out)
    return out


def last_axis_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) bit for bit, by adding the last axis's slices in
    sequence when it is short and contiguous (see the module docstring)."""
    if not _by_slices(x):
        return x.sum(axis=-1)
    out = x[..., 0] + 0.0                  # as numpy's sum, -0.0 + 0.0 is +0.0
    for k in range(1, x.shape[-1]):
        out += x[..., k]
    return out
