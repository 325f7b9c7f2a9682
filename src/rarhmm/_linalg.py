"""Small numeric helpers shared across modules. Only `HybridModel.stack`
calls gauss_factors; gauss_logpdf and gauss_draw read the factors it holds."""
from __future__ import annotations

import numpy as np

LOG2PI = float(np.log(2.0 * np.pi))


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


def gauss_factors(covs) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of (K, d, d) covariances and d log 2pi + log det
    of each, summed in the order gauss_logpdf adds them to the Mahalanobis
    term."""
    covs = np.asarray(covs, dtype=float)
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"covariance not positive definite (min eig "
                                    f"{np.linalg.eigvalsh(covs).min():.3e})") from e
    logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    return chols, covs.shape[-1] * LOG2PI + logdet


def gauss_logpdf(x, mean, chol: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Log density of N(mean, chol chol') at x from lower factors chol
    (..., d, d) and const (...) = d log 2pi + log det; x - mean (..., d)
    broadcasts against both."""
    resid = x - mean
    if resid.shape[-1] == 0:
        # empty event space: the density of a point mass is 1
        return np.zeros(resid.shape[:-1])
    z = np.linalg.solve(chol, resid[..., None])[..., 0]
    return -0.5 * (const + (z * z).sum(axis=-1))


def gauss_draw(rng: np.random.Generator, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Draws of N(mean, chol chol') from lower factors chol (..., d, d), one
    per row of mean (..., d), taking the normals in row order."""
    if mean.shape[-1] == 0:
        return np.zeros_like(mean)
    return mean + (chol @ rng.standard_normal(mean.shape)[..., None])[..., 0]
