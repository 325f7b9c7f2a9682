import math

import numpy as np
import pytest

from rarhmm._linalg import logsumexp
from rarhmm.inference import (Posterior, backward_pass, brute_force_posterior,
                              estep, forward_pass, local_quantities, smooth,
                              viterbi)
from rarhmm.model import CLOSED_LOOP, Dataset, log_local_evidence

from util import random_dataset, random_model, random_trajectory


def _assert_posterior_close(a: Posterior, b: Posterior, tol=1e-10):
    assert abs(a.loglik - b.loglik) <= tol * max(1.0, abs(b.loglik))
    np.testing.assert_allclose(a.gamma, b.gamma, atol=tol)
    np.testing.assert_allclose(a.xi, b.xi, atol=tol)


def test_oracle_equivalence_k3_t6_seed1():
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=1)
    traj, _ = random_trajectory(m, T=6, seed=1)
    _assert_posterior_close(smooth(m, traj), brute_force_posterior(m, traj))


def test_oracle_equivalence_k2_t8_seed2():
    m = random_model(K=2, d_x=2, d_u=1, kind="perceptron", seed=2)
    traj, _ = random_trajectory(m, T=8, seed=2)
    _assert_posterior_close(smooth(m, traj), brute_force_posterior(m, traj))


def test_oracle_equivalence_closed_loop():
    m = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="polynomial",
                     seed=3, lag=1, poly_degree=2)
    traj, _ = random_trajectory(m, T=7, seed=3)
    _assert_posterior_close(smooth(m, traj), brute_force_posterior(m, traj))


def test_independent_logsumexp_accumulation_order():
    # same path sum accumulated ascending with fsum agrees with our logsumexp
    m = random_model(K=2, d_x=2, d_u=1, seed=2)
    traj, _ = random_trajectory(m, T=8, seed=2)
    ev, trans = local_quantities(m, traj)
    import itertools
    logps = []
    for path in itertools.product(range(2), repeat=8):
        lp = math.log(m.init.pi[path[0]])
        for t in range(8):
            lp += ev[t, path[t]]
        for t in range(7):
            lp += math.log(trans[t, path[t + 1], path[t]])
        logps.append(lp)
    mx = max(logps)
    ref = mx + math.log(math.fsum(sorted(math.exp(lp - mx) for lp in logps)))
    assert abs(smooth(m, traj).loglik - ref) < 1e-10 * max(1.0, abs(ref))


def test_k1_loglik_is_total_evidence():
    m = random_model(K=1, d_x=2, d_u=1, seed=4)
    traj, _ = random_trajectory(m, T=30, seed=4)
    ev, trans = local_quantities(m, traj)
    _, _, ll = forward_pass(ev, trans, m.init.pi)
    assert ll == pytest.approx(float(ev.sum()), rel=1e-10)
    assert brute_force_posterior(m, traj).loglik == ll


def test_forward_rows_normalized_and_consistent_with_backward():
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=5)
    traj, _ = random_trajectory(m, T=40, seed=5)
    ev, trans = local_quantities(m, traj)
    alpha, log_norms, ll = forward_pass(ev, trans, m.init.pi)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    beta = backward_pass(ev, trans, log_norms)
    np.testing.assert_array_equal(beta[-1], 1.0)
    # with this scaling, sum_k alpha_t(k) beta_t(k) = 1 at every step
    np.testing.assert_allclose((alpha * beta).sum(axis=1), 1.0, atol=1e-9)


def test_posterior_marginal_consistency():
    m = random_model(K=3, d_x=2, d_u=1, kind="perceptron", seed=6)
    traj, _ = random_trajectory(m, T=50, seed=6)
    post = smooth(m, traj)
    np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(post.xi.sum(axis=(1, 2)), 1.0, atol=1e-12)
    np.testing.assert_allclose(post.xi.sum(axis=2), post.gamma[:-1], atol=1e-9)
    np.testing.assert_allclose(post.xi.sum(axis=1), post.gamma[1:], atol=1e-9)


def test_log_domain_reference_long_trajectory():
    # full log-domain forward recursion, no scaling tricks
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=7)
    traj, _ = random_trajectory(m, T=200, seed=7)
    ev, trans = local_quantities(m, traj)
    log_alpha = np.log(m.init.pi) + ev[0]
    for t in range(1, traj.T):
        log_alpha = ev[t] + logsumexp(
            np.log(trans[t - 1]) + log_alpha[None, :], axis=1)
    ref = logsumexp(log_alpha)
    _, _, ll = forward_pass(ev, trans, m.init.pi)
    assert ll == pytest.approx(ref, rel=1e-10)


def test_estep_matches_per_trajectory_smoothing():
    m = random_model(K=2, d_x=2, d_u=1, kind="polynomial", seed=8)
    # mixed lengths, shortest (T = 2) next to the longest, out of length order:
    # every row but the longest is padded in the one batch
    t1, _ = random_trajectory(m, T=12, seed=1)
    t2, _ = random_trajectory(m, T=9, seed=2)
    t3, _ = random_trajectory(m, T=2, seed=3)
    t4, _ = random_trajectory(m, T=12, seed=4)
    ds = Dataset.from_trajectories([t2, t1, t3, t4])
    posts, total = estep(m, ds)
    singles = [smooth(m, t) for t in ds.trajectories]
    assert total == pytest.approx(sum(s.loglik for s in singles), rel=1e-12)
    for got, want, traj in zip(posts, singles, ds.trajectories):
        assert got.gamma.shape == (traj.T, 2)
        assert got.xi.shape == (traj.T - 1, 2, 2)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)
        np.testing.assert_allclose(got.gamma, want.gamma, atol=1e-12)
        np.testing.assert_allclose(got.xi, want.xi, atol=1e-12)


def test_impossible_evidence_rejected():
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    traj, _ = random_trajectory(m, T=6, seed=9)
    ev, trans = local_quantities(m, traj)
    ev[3] = -np.inf
    with pytest.raises(ValueError):
        forward_pass(ev, trans, m.init.pi)
    ev[3] = np.nan
    with pytest.raises(ValueError):
        forward_pass(ev, trans, m.init.pi)


def test_brute_force_budget_guard():
    m = random_model(K=3, d_x=2, d_u=1, seed=10)
    traj, _ = random_trajectory(m, T=14, seed=10)
    with pytest.raises(ValueError):
        brute_force_posterior(m, traj)


def test_viterbi_tracks_sharp_posterior():
    # strongly separated regimes: the MAP path agrees with argmax marginals
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=11,
                     noise_scale=0.01)
    traj, zs = random_trajectory(m, T=30, seed=11)
    post = smooth(m, traj)
    path = viterbi(m, traj)
    agree = (path == post.gamma.argmax(axis=1)).mean()
    assert agree >= 0.95


def test_random_oracle_sweep():
    rng = np.random.default_rng(0)
    for case in range(10):
        K = int(rng.integers(1, 4))
        T = int(rng.integers(2, 9))
        kind = ["stationary", "linear", "polynomial", "perceptron"][case % 4]
        m = random_model(K=K, d_x=2, d_u=1, kind=kind, seed=100 + case)
        traj, _ = random_trajectory(m, T=T, seed=100 + case)
        _assert_posterior_close(smooth(m, traj), brute_force_posterior(m, traj))
