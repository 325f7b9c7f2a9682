"""Polynomial feature maps shared by controllers and transition links.

Monomials are ordered by total degree, then lexicographically by variable index
(combinations-with-replacement order). For d = 2, degree = 2 the columns are
x1, x2, x1^2, x1*x2, x2^2. The constant term is never included; affine parts
live in explicit offsets.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

import numpy as np


def n_monomials(dim: int, degree: int) -> int:
    return comb(dim + degree, degree) - 1


def polynomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Map (..., d) points to (..., n_monomials(d, degree)) monomial values.

    Each degree group multiplies the columns its combination indices gather,
    left to right, so x1^2 x2 is (x1 * x1) * x2."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    x = np.asarray(x, dtype=float)
    if degree == 1:
        return x.copy()
    groups = [x]
    for total in range(2, degree + 1):
        idx = np.array(list(combinations_with_replacement(range(x.shape[-1]), total)))
        cols = x[..., idx[:, 0]]
        for j in range(1, total):
            cols *= x[..., idx[:, j]]
        groups.append(cols)
    return np.concatenate(groups, axis=-1)


def controller_feature_dim(d_x: int, d_u: int, lag: int, poly_degree: int) -> int:
    return n_monomials(d_x, poly_degree) + lag * d_u
