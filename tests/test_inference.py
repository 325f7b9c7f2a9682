import math
import warnings

import numpy as np
import pytest

from rarhmm import inference
from rarhmm.inference import (Posterior, _forward_batch, _smooth_batch,
                              backward_pass, estep, forward_pass,
                              local_quantities, smooth, smooth_dataset)
from rarhmm.model import CLOSED_LOOP, Dataset, log_local_evidence

from util import (brute_force_posterior, logsumexp, random_dataset,
                  random_model, random_trajectory, reference_backward_batch,
                  reference_forward_batch, viterbi)


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


# -- linear-scale forward core: rescue, degenerate steps, reference agreement --

def _reference_smooth(ev, trans, pi):
    """alpha, log_norms, log beta, gamma and xi of one trajectory from the
    log-space reference recursions, with gamma and xi normalized in log space."""
    alpha, log_norms = reference_forward_batch(ev[None], trans[None], pi)
    log_beta = reference_backward_batch(ev[None], trans[None], log_norms)
    alpha, log_norms, log_beta = alpha[0], log_norms[0], log_beta[0]
    with np.errstate(divide="ignore"):
        log_alpha, log_trans = np.log(alpha), np.log(trans)
    log_gamma = log_alpha + log_beta
    gamma = np.exp(log_gamma - logsumexp(log_gamma, axis=1)[:, None])
    log_w = ev[1:] - log_norms[1:, None] + log_beta[1:]
    log_xi = log_alpha[:-1, :, None] + log_trans.transpose(0, 2, 1) + log_w[:, None, :]
    xi = np.exp(log_xi - logsumexp(log_xi, axis=(1, 2))[:, None, None])
    return alpha, log_norms, log_beta, gamma, xi


def _unreachable_instance(T=6, seed=0):
    """Three regimes; regime 2 has no initial mass and no transition into it,
    so evidence that favours it by hundreds of nats sends the linear-scale
    normalizer to 0 at that step."""
    rng = np.random.default_rng(seed)
    ev = rng.normal(size=(T, 3))
    trans = np.tile(np.array([[0.8, 0.3, 0.2],
                              [0.2, 0.7, 0.3],
                              [0.0, 0.0, 0.5]]), (T - 1, 1, 1))
    return ev, trans, np.array([0.6, 0.4, 0.0])


@pytest.fixture
def rescued(monkeypatch):
    """(step, rows) of every forward step redone in log space."""
    calls = []
    rescue = inference._rescue_rows

    def spy(t, *args):
        rows, log_c = rescue(t, *args)
        calls.append((t, rows.tolist()))
        return rows, log_c

    monkeypatch.setattr(inference, "_rescue_rows", spy)
    return calls


def test_forward_rescue_matches_log_domain_reference(rescued):
    # pi = [1, 0]: all initial mass on the regime 1000 nats below the other
    ev2 = np.random.default_rng(1).normal(size=(5, 2))
    ev2[0] = [-1000.0, 0.0]
    trans2 = np.tile(np.array([[0.9, 0.2], [0.1, 0.8]]), (4, 1, 1))
    ev3, trans3, pi3 = _unreachable_instance()
    ev3[0] = [-1000.0, -1001.5, 0.0]
    ev3[3] = [-900.0, -899.0, 0.0]
    for ev, trans, pi, steps in [(ev2, trans2, np.array([1.0, 0.0]), [0]),
                                 (ev3, trans3, pi3, [0, 3])]:
        rescued.clear()
        alpha, log_norms, _ = forward_pass(ev, trans, pi)
        assert rescued == [(t, [0]) for t in steps]
        ref_alpha, ref_norms = reference_forward_batch(ev[None], trans[None], pi)
        np.testing.assert_allclose(alpha, ref_alpha[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_norms, ref_norms[0], rtol=1e-12, atol=0)
        assert np.all(alpha[steps, -1] == 0.0)


def test_forward_raises_on_positive_infinite_evidence():
    ev, trans, pi = _unreachable_instance()
    ev[2, 1] = np.inf
    with pytest.raises(FloatingPointError, match="at step 2$"):
        forward_pass(ev, trans, pi)
    with pytest.raises(FloatingPointError, match="at step 2$"):
        reference_forward_batch(ev[None], trans[None], pi)


def test_forward_raises_when_predicted_regimes_are_impossible():
    # regime 2 is never reached, so -inf evidence on regimes 0 and 1 leaves
    # no predicted mass at step 3
    ev, trans, pi = _unreachable_instance()
    ev[3] = [-np.inf, -np.inf, 0.0]
    with pytest.raises(FloatingPointError, match="at step 3$"):
        forward_pass(ev, trans, pi)
    with pytest.raises(FloatingPointError, match="at step 3$"):
        reference_forward_batch(ev[None], trans[None], pi)


@pytest.mark.parametrize("steps, gap", [([1], 1000.0), ([2], 1000.0), ([3], 1000.0),
                                       ([1, 2], 700.0)])
def test_backward_gives_unreachable_regime_zero_weight(steps, gap):
    # regime 2 has no predicted mass, yet evidence favours it by `gap` nats
    # over the step's log normalizer: a weight of exp(1000) overflows, and
    # two weights of exp(700) overflow their product in beta
    ev, trans, pi = _unreachable_instance(T=4)
    ev[steps] = [-gap, -gap - 1.5, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, xi, loglik = _smooth_batch(ev[None], trans[None], pi)
    _, log_norms, _, ref_gamma, ref_xi = _reference_smooth(ev, trans, pi)
    np.testing.assert_allclose(gamma[0], ref_gamma, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xi[0], ref_xi, rtol=0, atol=1e-12)
    assert loglik[0] == pytest.approx(log_norms.sum(), rel=1e-12, abs=0)
    assert np.all(gamma[0, :, 2] == 0.0)


def test_backward_raises_on_other_overflow():
    ev, trans, pi = _unreachable_instance(T=4)
    ev[2] = [-1000.0, -1001.5, 0.0]
    _, log_norms, _ = forward_pass(ev, trans, pi)
    # without the filtered beliefs no regime can be shown unreachable
    with pytest.raises(FloatingPointError, match="backward recursion overflowed"):
        backward_pass(ev, trans, log_norms)
    # a subnormal transition into regime 2 gives it predicted mass
    trans[:, 2, 0] = 1e-320
    with pytest.raises(FloatingPointError, match="backward recursion overflowed"):
        _smooth_batch(ev[None], trans[None], pi)


def test_row_results_do_not_depend_on_batch_neighbours(rescued):
    # row 0 takes the linear path throughout; row 1 is longer and is rescued
    # at steps 0 and 4, so row 0 is padded next to rescued steps. Row 1's
    # evidence gaps stay below ~709 nats, where exp in the backward weights
    # would overflow
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=12)
    traj, _ = random_trajectory(m, T=5, seed=12)
    ev0, trans0 = local_quantities(m, traj)
    ev1, trans1, pi = _unreachable_instance(T=8, seed=12)
    ev1[0] = [-600.0, -601.5, 0.0]
    ev1[4] = [-500.0, -499.0, 0.0]
    ev = np.zeros((2, 8, 3))
    trans = np.tile(np.eye(3), (2, 7, 1, 1))
    ev[0, :5], trans[0, :4] = ev0, trans0
    ev[1], trans[1] = ev1, trans1
    pad = np.arange(8) >= np.array([5, 8])[:, None]
    batch = _forward_batch(ev, trans, pi)
    assert rescued == [(0, [1]), (4, [1])]
    smoothed = _smooth_batch(ev, trans, pi, pad)
    for b, (e, tr) in enumerate([(ev0, trans0), (ev1, trans1)]):
        n = len(e)
        alone = _forward_batch(e[None], tr[None], pi)
        assert np.array_equal(batch[0][b, :n], alone[0][0])
        assert np.array_equal(batch[1][b, :n], alone[1][0])
        gamma, xi, loglik = _smooth_batch(e[None], tr[None], pi)
        assert np.array_equal(smoothed[0][b, :n], gamma[0])
        assert np.array_equal(smoothed[1][b, :n - 1], xi[0])
        assert smoothed[2][b] == loglik[0]
    assert np.all(np.isfinite(smoothed[0])) and np.all(np.isfinite(smoothed[1]))


@pytest.mark.parametrize("K", [1, 2, 5, 9])
def test_linear_scale_matches_log_domain_reference(K):
    m = random_model(K=K, d_x=2, d_u=1, kind="linear", seed=20 + K)
    # mixed lengths, shortest next to the longest: a padded batch
    trajs = [random_trajectory(m, T=T, seed=30 + i)[0]
             for i, T in enumerate([40, 17, 2, 40])]
    ds = Dataset.from_trajectories(trajs)
    for batch in (ds, Dataset.from_trajectories(trajs[:1])):
        posts, _, _ = smooth_dataset(m, batch)
        for post, traj in zip(posts, batch.trajectories):
            ev, trans = local_quantities(m, traj)
            alpha, log_norms, log_beta, gamma, xi = _reference_smooth(ev, trans, m.init.pi)
            assert post.loglik == pytest.approx(log_norms.sum(), rel=1e-12, abs=0)
            np.testing.assert_allclose(post.gamma, gamma, rtol=0, atol=1e-12)
            np.testing.assert_allclose(post.xi, xi, rtol=0, atol=1e-12)
            got_alpha, got_norms, _ = forward_pass(ev, trans, m.init.pi)
            np.testing.assert_allclose(got_alpha, alpha, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_norms, log_norms, rtol=1e-12, atol=0)
            np.testing.assert_allclose(backward_pass(ev, trans, got_norms),
                                       np.exp(log_beta), rtol=1e-12, atol=0)

