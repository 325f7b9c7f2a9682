import itertools

import numpy as np
import pytest

from rarhmm.features import n_monomials, polynomial_features

from util import reference_polynomial_features


def test_column_order_is_the_documented_one():
    x = np.array([[2.0, 3.0], [-1.5, 0.5]])
    # x1, x2, x1^2, x1*x2, x2^2
    np.testing.assert_array_equal(polynomial_features(x, 2), [[2.0, 3.0, 4.0, 6.0, 9.0],
                                                              [-1.5, 0.5, 2.25, -0.75, 0.25]])
    np.testing.assert_array_equal(polynomial_features(x[0], 3),
                                  [2.0, 3.0, 4.0, 6.0, 9.0, 8.0, 12.0, 18.0, 27.0])


def test_degree_one_is_a_copy():
    x = np.arange(6.0).reshape(3, 2)
    out = polynomial_features(x, 1)
    np.testing.assert_array_equal(out, x)
    out[0, 0] = 99.0
    assert x[0, 0] == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 6])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_index_product_matches_per_monomial_powers(d, degree):
    rng = np.random.default_rng(10 * d + degree)
    x = rng.standard_normal((500, d)) * np.exp(rng.uniform(-3.0, 3.0, size=(500, d)))
    got = polynomial_features(x, degree)
    want = reference_polynomial_features(x, degree)
    assert got.shape == (500, n_monomials(d, degree))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    if degree == 2:
        # products of distinct variables are exact either way; a square is
        # x * x, correctly rounded, where the reference's x ** 2 may be off
        # by an ulp (numpy's array power need not round correctly)
        square = np.array([i == j for i, j in
                           itertools.combinations_with_replacement(range(d), 2)])
        np.testing.assert_array_equal(got[:, :d], want[:, :d])
        np.testing.assert_array_equal(got[:, d:][:, ~square], want[:, d:][:, ~square])
        np.testing.assert_array_equal(got[:, d:][:, square], x * x)
    # one point at a time gives the rows of the batch
    np.testing.assert_array_equal(polynomial_features(x[7], degree), got[7])


def test_degree_below_one_is_rejected():
    with pytest.raises(ValueError, match="degree must be >= 1"):
        polynomial_features(np.ones(2), 0)
