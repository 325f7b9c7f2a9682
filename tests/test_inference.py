import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rarhmm import inference
from rarhmm.inference import (Posterior, _forward_batch, _smooth_batch, estep,
                              smooth_dataset)
from rarhmm.evaluation import filter_all
from rarhmm.model import CLOSED_LOOP, Dataset, log_local_evidence

from util import (backward_pass, brute_force_posterior, forward_pass,
                  local_quantities, logsumexp, random_dataset, random_model,
                  random_trajectory, reference_backward_batch,
                  reference_forward_batch, smooth,
                  viterbi)


def _smooth_one(ev, trans, pi):
    """_smooth_batch of one unpadded trajectory."""
    return _smooth_batch(ev[None], trans[None], pi, np.zeros((1, len(ev)), dtype=bool))


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
    ds = Dataset([t2, t1, t3, t4])
    posts, total = estep(m, ds)
    singles = [smooth(m, t) for t in ds.trajectories]
    assert total == pytest.approx(sum(s.loglik for s in singles), rel=1e-12)
    for got, want, traj in zip(posts, singles, ds.trajectories):
        assert got.gamma.shape == (traj.T, 2)
        assert got.xi.shape == (traj.T - 1, 2, 2)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)
        np.testing.assert_allclose(got.gamma, want.gamma, atol=1e-12)
        np.testing.assert_allclose(got.xi, want.xi, atol=1e-12)


def test_impossible_evidence_rejected(monkeypatch):
    # through every entry point that builds the padded inputs, with the bad
    # step in the shorter row of a ragged batch
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    ds = Dataset([random_trajectory(m, T=T, seed=9 + T)[0]
                  for T in (10, 6)])
    for bad, match in [(-np.inf, "impossible observation"), (np.nan, "NaN")]:
        def evidence(model, traj):
            ev = log_local_evidence(model, traj)
            if traj.T == 6:
                ev[3] = bad
            return ev

        monkeypatch.setattr(inference, "log_local_evidence", evidence)
        for entry in (inference.padded_inputs, smooth_dataset, estep, filter_all):
            with pytest.raises(ValueError, match=match):
                entry(m, ds)


def test_padded_inputs_pad_with_zero_evidence_and_identity():
    m = random_model(K=3, d_x=2, d_u=1, kind="polynomial", seed=16)
    trajs = [random_trajectory(m, T=T, seed=16 + i)[0] for i, T in enumerate((9, 2, 12))]
    ev, trans, pad = inference.padded_inputs(m, Dataset(trajs))
    assert ev.shape == (3, 12, 3) and trans.shape == (3, 11, 3, 3)
    assert np.array_equal(pad, np.arange(12) >= np.array([[9], [2], [12]]))
    for b, traj in enumerate(trajs):
        e, tr = local_quantities(m, traj)
        assert np.array_equal(ev[b, :traj.T], e) and np.all(ev[b, traj.T:] == 0.0)
        assert np.array_equal(trans[b, :traj.T - 1], tr)
        assert np.all(trans[b, traj.T - 1:] == np.eye(3))


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


# -- forward scan: log-space entry, restarts, degenerate steps, reference -----

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


def _padded_batch(rows):
    """One padded batch (ev, trans, pad) of (ev, trans) rows, padded as
    padded_inputs pads."""
    T = max(len(ev) for ev, _ in rows)
    K = rows[0][0].shape[1]
    ev = np.zeros((len(rows), T, K))
    trans = np.tile(np.eye(K), (len(rows), T - 1, 1, 1))
    for b, (e, tr) in enumerate(rows):
        ev[b, :len(e)], trans[b, :len(e) - 1] = e, tr
    return ev, trans, np.arange(T) >= np.array([len(e) for e, _ in rows])[:, None]


def _assert_rows_match_reference(alpha, log_norms, rows, pi):
    """Each (ev, trans) row's own steps of a batch's forward pass agree with
    the log-domain reference to rounding."""
    for b, (e, tr) in enumerate(rows):
        T = len(e)
        ref_alpha, ref_norms = reference_forward_batch(e[None], tr[None], pi)
        np.testing.assert_allclose(alpha[b, :T], ref_alpha[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_norms[b, :T], ref_norms[0], rtol=1e-12, atol=0)


@pytest.fixture
def scans(monkeypatch):
    """The global entry steps, one list per call, of every scan the forward
    pass runs: the first enters each row at step 0, each later one restarts
    rows at their first step not yet served."""
    calls = []
    scan = inference._scan

    def spy(ev, trans, pred, start):
        calls.append(start.tolist())
        return scan(ev, trans, pred, start)

    monkeypatch.setattr(inference, "_scan", spy)
    return calls


def test_forward_rescue_matches_log_domain_reference(scans):
    # pi = [1, 0]: all initial mass on the regime 1000 nats below the other
    ev2 = np.random.default_rng(1).normal(size=(5, 2))
    ev2[0] = [-1000.0, 0.0]
    trans2 = np.tile(np.array([[0.9, 0.2], [0.1, 0.8]]), (4, 1, 1))
    ev3, trans3, pi3 = _unreachable_instance()
    ev3[0] = [-1000.0, -1001.5, 0.0]
    ev3[3] = [-900.0, -899.0, 0.0]
    for ev, trans, pi, steps, want_scans in [
            (ev2, trans2, np.array([1.0, 0.0]), [0], [[0]]),
            (ev3, trans3, pi3, [0, 3], [[0], [3]])]:
        scans.clear()
        alpha, log_norms, _ = forward_pass(ev, trans, pi)
        assert scans == want_scans
        _assert_rows_match_reference(alpha[None], log_norms[None], [(ev, trans)], pi)
        assert np.all(alpha[steps, -1] == 0.0)


def test_first_step_ruled_out_by_pi_is_served_by_the_first_scan(scans):
    # pi puts all its mass on regimes 0 and 1, which the first observation
    # rules out by a thousand nats against regime 2: the entry step's linear
    # scale underflows to 0, so the step is formed in log space, and the one
    # scan from step 0 serves the whole row, across several chunks
    T = 3 * inference._CHUNK + 5
    ev = np.random.default_rng(4).normal(size=(T, 3))
    ev[0] = [-1000.0, -1001.5, 0.0]
    trans = np.tile(np.array([[0.8, 0.1, 0.3],
                              [0.1, 0.8, 0.3],
                              [0.1, 0.1, 0.4]]), (T - 1, 1, 1))
    pi = np.array([0.6, 0.4, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, log_norms, _ = forward_pass(ev, trans, pi)
    assert scans == [[0]]
    assert alpha[0, 2] == 0.0 and log_norms[0] < -999.0
    _assert_rows_match_reference(alpha[None], log_norms[None], [(ev, trans)], pi)


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
        gamma, xi, loglik = _smooth_one(ev, trans, pi)
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
        _smooth_one(ev, trans, pi)
    # regime 2 is entered only through a subnormal transition and left only
    # for regime 3: its xi weight at step 2 (~1e304 times a backward message
    # of ~1e16) overflows while every backward message stays finite
    trans = np.tile(np.array([[0.8, 0.3, 0.0, 0.0],
                              [0.2, 0.7, 0.0, 0.5],
                              [1e-320, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 1.0, 0.5]]), (3, 1, 1))
    ev = np.zeros((4, 4))
    ev[2] = [-700.0, -701.5, 0.0, -700.0]
    ev[3] = [-700.0, -701.5, -700.0, 0.0]
    with pytest.raises(FloatingPointError, match="backward recursion overflowed"):
        _smooth_one(ev, trans, np.array([0.6, 0.4, 0.0, 0.0]))


def test_row_results_do_not_depend_on_batch_neighbours(scans):
    # row 0 takes the linear path throughout; row 1 is longer, formed in log
    # space at step 0 and restarted at step 4, so row 0 is padded next to
    # rescued steps. Row 1's evidence gaps stay below ~709 nats, where exp in
    # the backward weights would overflow
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
    batch = _forward_batch(ev, trans, pi, pad)
    assert scans == [[0, 0], [4]]
    smoothed = _smooth_batch(ev, trans, pi, pad)
    for b, (e, tr) in enumerate([(ev0, trans0), (ev1, trans1)]):
        n = len(e)
        alone = forward_pass(e, tr, pi)
        assert np.array_equal(batch[0][b, :n], alone[0])
        assert np.array_equal(batch[1][b, :n], alone[1])
        gamma, xi, loglik = _smooth_one(e, tr, pi)
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
    batches = [Dataset(trajs), Dataset(trajs[:1])]
    if K == 9:
        # a 1000-step row batched with short, padded ones: each scale comes
        # from the summed row of the folded stack, not from a sum of the belief
        long_traj, _ = random_trajectory(m, T=1000, seed=40)
        batches.append(Dataset([trajs[1], long_traj, trajs[2]]))
    for batch in batches:
        posts, _, _ = smooth_dataset(m, batch)
        for post, traj in zip(posts, batch.trajectories):
            ev, trans = local_quantities(m, traj)
            alpha, log_norms, log_beta, gamma, xi = _reference_smooth(ev, trans, m.init.pi)
            assert post.loglik == pytest.approx(log_norms.sum(), rel=1e-12, abs=0)
            np.testing.assert_allclose(post.gamma, gamma, rtol=0, atol=1e-12)
            np.testing.assert_allclose(post.xi, xi, rtol=0, atol=1e-12)
            got_alpha, got_norms, _ = forward_pass(ev, trans, m.init.pi)
            np.testing.assert_allclose(got_alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_alpha, alpha, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_norms, log_norms, rtol=1e-12, atol=0)
            np.testing.assert_allclose(backward_pass(ev, trans, got_norms),
                                       np.exp(log_beta), rtol=1e-12, atol=0)


def test_rescued_rows_get_their_prediction_at_a_later_step(monkeypatch):
    # rows 1 and 2 are restarted at step 4, row 0 is not; rows 0 and 2 are
    # padded. The restart must be entered from each row's prediction trans @
    # alpha bit for bit, not from a value derived from the folded stack
    seen = []
    scan = inference._scan

    def spy(ev, trans, pred, start):
        seen.append((start.tolist(), pred.copy()))
        return scan(ev, trans, pred, start)

    monkeypatch.setattr(inference, "_scan", spy)
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=12)
    traj, _ = random_trajectory(m, T=5, seed=12)
    ev1, trans1, pi = _unreachable_instance(T=8, seed=12)
    ev1[4] = [-500.0, -499.0, 0.0]
    ev2, trans2, _ = _unreachable_instance(T=6, seed=13)
    ev2[4] = [-600.0, -601.5, 0.0]
    rows = [local_quantities(m, traj), (ev1, trans1), (ev2, trans2)]
    ev, trans, pad = _padded_batch(rows)
    alpha, log_norms = _forward_batch(ev, trans, pi, pad)
    assert [start for start, _ in seen] == [[0, 0, 0], [4, 4]]
    t, restarted = 4, [1, 2]
    want = np.matmul(trans[restarted, t - 1], alpha[restarted, t - 1][:, :, None])[:, :, 0]
    assert np.array_equal(seen[1][1], want)
    assert np.all(alpha[restarted, t, -1] == 0.0)
    _assert_rows_match_reference(alpha, log_norms, rows, pi)


def _padded_rescue_batch():
    """A B = 3 padded batch of the unreachable-regime instance whose evidence
    gaps send the scale below the floor at step 0, inside chunks and at chunk
    edges of the first scan, and inside, at chunk edges, at the entry step
    and at the last step of restarted scans. Returns (rows, ev, trans, pad,
    pi, the entry steps of every scan)."""
    n, w = inference._CHUNK, inference._WINDOW
    T = 3 * w
    a = 7
    lengths = [T, T - 5, 2 * n + 6]
    steps = [[0, n - 1, n, n + 5, 2 * n, T - 1],
             # restarted at a; then at the last step of that scan's first
             # chunk, the first step of the next scan's second chunk, the entry
             # step of the scan after a whole one, and the last step of that
             [a, a + n, a + 2 * n + 1, a + 2 * n + 1 + w, a + 2 * n + 1 + 2 * w - 1],
             [2 * n]]                                     # shared with row 0
    rows = []
    for b, (n_b, at) in enumerate(zip(lengths, steps)):
        e, tr, pi = _unreachable_instance(T=n_b, seed=40 + b)
        e[at] = [-600.0, -601.5, 0.0]
        rows.append((e, tr))
    ev, trans, pad = _padded_batch(rows)
    # row 0 restarts where it fails, then runs whole scans from step 2n on,
    # until it fails at its last step; row 1 likewise from step a. Row 2 is
    # restarted once, at step 2n: that scan reaches past its end at 2n + 6
    want_scans = [[0, 0, 0], [n - 1, a, 2 * n], [n, a + n], [n + 5, a + 2 * n + 1],
                  [2 * n, a + 2 * n + 1 + w], [2 * n + w, a + 2 * n + 2 * w],
                  [2 * n + 2 * w], [T - 1]]
    return rows, ev, trans, pad, pi, want_scans


def test_restarts_match_log_domain_reference_at_chunk_edges(scans):
    rows, ev, trans, pad, pi, want_scans = _padded_rescue_batch()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, log_norms = _forward_batch(ev, trans, pi, pad)
    assert scans == want_scans
    _assert_rows_match_reference(alpha, log_norms, rows, pi)
    assert np.all(alpha[:, :, 2] == 0.0)            # the unreachable regime keeps no mass
    assert np.all(log_norms[pad] == 0.0)
    gamma, xi, loglik = _smooth_batch(ev, trans, pi, pad)
    for b, (e, tr) in enumerate(rows):
        n = len(e)
        alone = forward_pass(e, tr, pi)
        assert np.array_equal(alpha[b, :n], alone[0])
        assert np.array_equal(log_norms[b, :n], alone[1])
        # the padded steps hold the row's last belief, and smoothing the batch
        # gives the row what smoothing it alone gives
        assert np.array_equal(alpha[b, n:], np.broadcast_to(alone[0][-1], alpha[b, n:].shape))
        want = _smooth_one(e, tr, pi)
        assert np.array_equal(gamma[b, :n], want[0][0])
        assert np.array_equal(xi[b, :n - 1], want[1][0])
        assert loglik[b] == want[2][0]
    # and a batch without rescues, longer than several chunks: the first scan
    # serves it
    m = random_model(K=4, d_x=2, d_u=1, kind="linear", seed=3)
    ds = random_dataset(m, n=2, T=5 * inference._CHUNK + 1, seed=3)
    rows = [local_quantities(m, t) for t in ds.trajectories]
    ev, trans, pad = _padded_batch(rows)
    scans.clear()
    alpha, log_norms = _forward_batch(ev, trans, m.init.pi, pad)
    assert scans == [[0, 0]]
    _assert_rows_match_reference(alpha, log_norms, rows, m.init.pi)


def test_blocked_forward_raises_on_degenerate_steps_mid_block():
    n, w = inference._CHUNK, inference._WINDOW
    t = n + n // 2 + 3                          # neither edge of its chunk
    ev, trans, pi = _unreachable_instance(T=3 * w)
    ev[t, 1] = np.inf
    with pytest.raises(FloatingPointError, match=f"at step {t}$"):
        forward_pass(ev, trans, pi)
    ev, trans, pi = _unreachable_instance(T=3 * w)
    ev[t] = [-np.inf, -np.inf, 0.0]
    with pytest.raises(FloatingPointError, match=f"at step {t}$"):
        forward_pass(ev, trans, pi)
    # a rescued step earlier in the same chunk does not hide a later one
    ev[t - 2] = [-600.0, -601.5, 0.0]
    with pytest.raises(FloatingPointError, match=f"at step {t}$"):
        forward_pass(ev, trans, pi)
    # nor does a restart at step a hide one inside its scan, at its chunk
    # edges, at its last step, or at the entry step of the scan after it
    a = 5
    for bad in [a + 3, a + n, a + n + 1, a + w - 1, a + w]:
        ev, trans, pi = _unreachable_instance(T=3 * w)
        ev[a] = [-600.0, -601.5, 0.0]
        ev[bad] = [-np.inf, -np.inf, 0.0]
        with pytest.raises(FloatingPointError, match=f"at step {bad}$"):
            forward_pass(ev, trans, pi)


def test_scan_matches_log_domain_reference_at_chunk_edges(scans):
    # each row ends at a different place relative to the chunks: inside the
    # first, at its end, one step into the second, inside the fourth
    n = inference._CHUNK
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=50)
    rows = [local_quantities(m, random_trajectory(m, T=T, seed=50 + i)[0])
            for i, T in enumerate([2, n, n + 1, 3 * n + 5])]
    ev, trans, pad = _padded_batch(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, log_norms = _forward_batch(ev, trans, m.init.pi, pad)
    assert scans == [[0, 0, 0, 0]]
    _assert_rows_match_reference(alpha, log_norms, rows, m.init.pi)
    for b, (e, tr) in enumerate(rows):
        alone = forward_pass(e, tr, m.init.pi)
        assert np.array_equal(alpha[b, :len(e)], alone[0])
        assert np.array_equal(log_norms[b, :len(e)], alone[1])


def test_scan_redoes_only_the_failing_row(scans):
    # row 1 is restarted inside the second chunk; rows 0 and 2, one shorter
    # and one longer, are served by the first scan
    n = inference._CHUNK
    t = n + 5
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=51)
    e1, tr1, pi = _unreachable_instance(T=2 * n + 3, seed=51)
    e1[t] = [-600.0, -601.5, 0.0]
    rows = [local_quantities(m, random_trajectory(m, T=n + 3, seed=52)[0]), (e1, tr1),
            local_quantities(m, random_trajectory(m, T=3 * n, seed=53)[0])]
    ev, trans, pad = _padded_batch(rows)
    alpha, log_norms = _forward_batch(ev, trans, pi, pad)
    assert scans == [[0, 0, 0], [t]]
    _assert_rows_match_reference(alpha[1:2], log_norms[1:2], rows[1:2], pi)
    assert alpha[1, t, 2] == 0.0                 # the unreachable regime keeps no mass
    for b in (0, 2):
        e, tr = rows[b]
        scans.clear()
        alone = forward_pass(e, tr, pi)
        assert scans == [[0]]
        assert np.array_equal(alpha[b, :len(e)], alone[0])
        assert np.array_equal(log_norms[b, :len(e)], alone[1])


def _subnormal_instance(which):
    """(ev, trans, pi, the first step the scan cannot serve) where every
    step's scale clears the floor, but the scan would derive one from a
    subnormal number and lose its precision.

    "sums": two absorbing regimes, all belief on the one the evidence
    disfavours by 740 / _CHUNK nats a step. A chunk's products carry that
    belief as a share e^(-740 (l+1) / _CHUNK) of their mass: below the floor
    from its tenth step, e^-740 at its last. "normalizer": three absorbing
    regimes, the belief on regime 0, disfavoured by 92 nats a step; at step 5
    the evidence rules out regime 1, which held the products' mass, so their
    normalizer is e^-736."""
    if which == "sums":
        T = 2 * inference._CHUNK + 1
        ev = np.tile([-740.0 / inference._CHUNK, 0.0], (T, 1))
        pi = np.array([1.0, 0.0])
        first = 10
    else:
        T = 6
        ev = np.tile([-92.0, 0.0, -1000.0], (T, 1))
        ev[0] = [0.0, 0.0, -1000.0]
        ev[5] = [-368.0, -1000.0, 0.0]
        pi = np.array([1.0, 0.0, 0.0])
        first = 5
    K = len(pi)
    return ev, np.tile(np.eye(K), (T - 1, 1, 1)), pi, first


@pytest.mark.parametrize("which", ["sums", "normalizer"])
def test_scan_restarts_rows_with_subnormal_products(scans, which):
    ev, trans, pi, first = _subnormal_instance(which)
    alpha, log_norms, _ = forward_pass(ev, trans, pi)
    assert scans[:2] == [[0], [first]]
    _assert_rows_match_reference(alpha[None], log_norms[None], [(ev, trans)], pi)


@pytest.mark.parametrize("offset", [-1, 0, 1, 5])
@pytest.mark.parametrize("kind", ["inf", "impossible"])
def test_scan_raises_on_degenerate_steps_at_chunk_edges(offset, kind):
    # t = _CHUNK is the last step of the first chunk, whose belief starts the
    # second; t = _CHUNK + 1 is the second chunk's first step
    t = inference._CHUNK + offset
    ev, trans, pi = _unreachable_instance(T=3 * inference._CHUNK)
    if kind == "inf":
        ev[t, 1] = np.inf
    else:
        ev[t] = [-np.inf, -np.inf, 0.0]
    with pytest.raises(FloatingPointError, match=f"at step {t}$"):
        forward_pass(ev, trans, pi)
    # next to a row the scan serves
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=54)
    ev2, trans2, pad2 = _padded_batch([local_quantities(m, random_trajectory(m, T=20, seed=54)[0]),
                                 (ev, trans)])
    with pytest.raises(FloatingPointError, match=f"at step {t}$"):
        _forward_batch(ev2, trans2, pi, pad2)


def test_smoothing_peak_memory_is_bounded():
    # the folded forward and backward stacks must be gone before xi and the
    # log transitions are formed: the E-step's peak stays within 3.5 times
    # one (B, T-1, K, K) array
    m = random_model(K=5, d_x=2, d_u=1, kind="linear", seed=0)
    ds = random_dataset(m, n=4, T=500, seed=0)
    smooth_dataset(m, ds)
    tracemalloc.start()
    try:
        smooth_dataset(m, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (4 * 499 * 5 * 5 * 8)


def test_filter_peak_memory_is_bounded():
    # the scan's prefix products overwrite its folded stack: besides the
    # input transitions, filter_all holds one more (B, T-1, K, K) stack and a
    # few arrays of the beliefs' size, (B, T, K)
    m = random_model(K=5, d_x=2, d_u=1, kind="linear", seed=0)
    ds = random_dataset(m, n=4, T=500, seed=0)
    filter_all(m, ds)
    tracemalloc.start()
    try:
        filter_all(m, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (4 * 499 * 5 * 5 * 8) + 5 * (4 * 500 * 5 * 8)
