import warnings

import numpy as np
import pytest

from rarhmm._linalg import draw_regimes
from rarhmm.envs import default_config, simulate
from rarhmm import evaluation, inference
from rarhmm.evaluation import (_forecast_batch, count_params,
                               count_params_breakdown, evaluate, filter_all, nmse,
                               dataset_normalizer)
from rarhmm.model import (Controllers, Dataset, Dynamics, HybridModel,
                          InitialModel, Trajectory, log_local_evidence)
from rarhmm.transition import make_transition, transition_matrices

from util import (EDGE_BELIEF, LastUniformRng, brute_force_posterior, filter_one,
                  forward_pass, local_quantities, mvn_logpdf, random_dataset, random_model,
                  random_trajectory, reference_sample_trajectory, underflowing_link_model)


def _ball_truth_maps(cfg):
    dt, g, e = cfg.dt, cfg.gravity, cfg.restitution
    A_f = np.array([[1.0, dt], [0.0, 1.0]])
    c_f = np.array([-0.5 * g * dt * dt, -g * dt])
    A_i = np.array([[-e, -e * dt], [0.0, -e]])
    c_i = np.array([e * g * dt * dt / 2.0, -g * dt])
    return (A_f, c_f), (A_i, c_i)


def _ball_model(cfg, kappa=1e8, lam=1e-10):
    """Exact two-regime ball model with a saturated linear switching link.

    Regime 0 is flight, regime 1 the impact reflection; the link fires on the
    sign of the predicted next height h + v dt - g dt^2 / 2.
    """
    dt, g = cfg.dt, cfg.gravity
    (A_f, c_f), (A_i, c_i) = _ball_truth_maps(cfg)
    dynamics = Dynamics(A=[A_f, A_i], B=np.zeros((2, 2, 0)), c=[c_f, c_i],
                        lam_cov=np.tile(lam * np.eye(2), (2, 1, 1)))
    w = np.array([1.0, dt])
    bias = np.array([[-0.5 * g * dt * dt * kappa] * 2,
                     [+0.5 * g * dt * dt * kappa] * 2])
    tm = make_transition("linear", 2, 2, 0, bias=bias)
    tm = type(tm)(kind="linear", d_x=2, d_u=0, bias=bias,
                  feature_params=np.concatenate([kappa * w, -kappa * w]),
                  feat_mean=tm.feat_mean, feat_std=tm.feat_std)
    init = InitialModel(pi=np.array([0.5, 0.5]),
                        mu=np.array([[1.0, 0.0], [1.0, 0.0]]),
                        omega_cov=np.stack([np.eye(2), np.eye(2)]))
    return HybridModel(init=init, dynamics=dynamics, transition=tm)


def _hand_piecewise_rollout(cfg, x, h):
    (A_f, c_f), (A_i, c_i) = _ball_truth_maps(cfg)
    dt, g = cfg.dt, cfg.gravity
    out = []
    for _ in range(h):
        if x[0] + x[1] * dt - 0.5 * g * dt * dt < 0:
            x = A_i @ x + c_i
        else:
            x = A_f @ x + c_f
        out.append(x)
    return np.array(out)


def _forecast(model, traj, t, h, mode="marginal"):
    """States t+1 .. t+h (h, d_x) forecast from the filtered belief at step t
    (1-based) under the recorded controls u_t .. u_{t+h-1}: one row of
    _forecast_batch."""
    b = filter_all(model, Dataset([traj]))[0, t - 1]
    return _forecast_batch(model, traj.xs[t - 1][None], b[None],
                           traj.us[None, t - 1:t - 1 + h], mode, np.array([h]))[0]


def test_filter_k1_is_one():
    m = random_model(K=1, d_x=2, d_u=1, seed=0)
    traj, _ = random_trajectory(m, T=10, seed=0)
    np.testing.assert_array_equal(filter_one(m, traj), np.ones((10, 1)))


def test_filter_t1_uninformative_recovers_prior():
    m = random_model(K=3, d_x=2, d_u=1, seed=1)
    # identical emission blocks across regimes make the first step uninformative
    init = InitialModel(pi=m.init.pi,
                        mu=np.tile(m.init.mu[:1], (3, 1)),
                        omega_cov=np.tile(m.init.omega_cov[:1], (3, 1, 1)))
    m = HybridModel(init=init, dynamics=m.dynamics, transition=m.transition)
    traj, _ = random_trajectory(m, T=5, seed=1)
    np.testing.assert_allclose(filter_one(m, traj)[0], m.init.pi, atol=1e-12)


def test_filter_matches_brute_force_prefix():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=5)
    traj, _ = random_trajectory(m, T=8, seed=5)
    alpha = filter_all(m, Dataset([traj]))[0]
    for t in (2, 3, 6, 8):
        prefix = Trajectory(xs=traj.xs[:t], us=traj.us[:t], dt=traj.dt, id="p")
        want = brute_force_posterior(m, prefix).gamma[-1]
        np.testing.assert_allclose(alpha[t - 1], want, atol=1e-10)
    # t = 1 directly: posterior over z_1 from the initial Gaussian alone
    lp = np.array([mvn_logpdf(traj.xs[0], m.init.mu[k], m.init.omega_cov[k])
                   for k in range(2)]) + np.log(m.init.pi)
    want1 = np.exp(lp - lp.max())
    np.testing.assert_allclose(alpha[0], want1 / want1.sum(), atol=1e-12)


def test_filter_all_agrees_with_prefixes():
    m = random_model(K=3, d_x=2, d_u=1, kind="perceptron", seed=2)
    traj, _ = random_trajectory(m, T=12, seed=2)
    alpha = filter_all(m, Dataset([traj]))[0]
    # the belief at step t reads only the first t steps: filtering the prefix
    # alone ends on it, to rounding
    for t in (2, 5, 12):
        prefix = Trajectory(xs=traj.xs[:t], us=traj.us[:t], dt=traj.dt, id="p")
        np.testing.assert_allclose(alpha[t - 1],
                                   filter_all(m, Dataset([prefix]))[0, -1],
                                   rtol=1e-12, atol=0)


def test_filter_all_equals_per_trajectory_forward(monkeypatch):
    # a ragged B = 3 test set. Regime 2 has no initial mass and no way in, so
    # evidence favouring it by 600 nats at the last step of the first chunk
    # sends the middle row's scale below the floor there: only that row is
    # scanned again, from that step
    n = inference._CHUNK
    base = random_model(K=3, d_x=2, d_u=1, kind="stationary", seed=15)
    bias = np.array(base.transition.bias)
    bias[2] = -1000.0                           # exp underflows: exactly 0
    m = HybridModel(init=InitialModel(pi=np.array([0.6, 0.4, 0.0]), mu=base.init.mu,
                                      omega_cov=base.init.omega_cov),
                    dynamics=base.dynamics,
                    transition=make_transition("stationary", 3, 2, 1, bias=bias))
    trajs = [random_trajectory(m, T=T, seed=15 + i)[0]
             for i, T in enumerate((n + 9, 2 * n + 5, 7))]

    def evidence(model, traj):
        ev = log_local_evidence(model, traj)
        if traj.T == 2 * n + 5:
            ev[n] = [-600.0, -601.5, 0.0]
        return ev

    scans = []
    scan = inference._scan

    def spy(ev, trans, pred, start):
        scans.append(start.tolist())
        return scan(ev, trans, pred, start)

    monkeypatch.setattr(inference, "log_local_evidence", evidence)
    monkeypatch.setattr(inference, "_scan", spy)
    alpha = filter_all(m, Dataset(trajs))
    assert scans == [[0, 0, 0], [n]]
    assert alpha.shape == (3, 2 * n + 5, 3)
    assert alpha[1, n, 2] == 0.0
    for a, traj in zip(alpha, trajs):
        _, trans = local_quantities(m, traj)
        want = forward_pass(evidence(m, traj), trans, m.init.pi)[0]
        assert np.array_equal(a[:traj.T], want)
        # each padded step repeats the last belief
        assert np.array_equal(a[traj.T:], np.broadcast_to(want[-1], a[traj.T:].shape))


def test_forecast_k1_deterministic_rollout():
    m = random_model(K=1, d_x=2, d_u=1, seed=3, noise_scale=1e-6)
    traj, _ = random_trajectory(m, T=12, seed=3)
    h, t = 5, 4
    got = _forecast(m, traj, t=t, h=h)
    x = traj.xs[t - 1]
    d = m.dynamics
    want = []
    for i in range(h):
        x = d.A[0] @ x + d.B[0] @ traj.us[t - 1 + i] + d.c[0]
        want.append(x)
    np.testing.assert_allclose(got, np.array(want), atol=1e-12)


def test_forecast_exact_model_zero_error():
    m = random_model(K=1, d_x=2, d_u=1, seed=4)
    rng = np.random.default_rng(4)
    us = 0.3 * rng.standard_normal((30, 1))
    xs, us, _ = reference_sample_trajectory(m, 30, rng, exogenous_us=us, deterministic=True)
    traj = Trajectory(xs=xs, us=us, dt=1.0)
    for h in (1, 3, 10):
        got = _forecast(m, traj, t=5, h=h)
        np.testing.assert_allclose(got[-1], traj.xs[4 + h], atol=1e-10)


def test_ball_forecast_matches_hand_piecewise_rollout():
    cfg = default_config("bouncing_ball")
    model = _ball_model(cfg)
    sim = simulate(cfg, x0=np.array([0.30, -2.0]), T=30, id="ball")
    # the window crosses an impact
    t, h = 2, 5
    got = _forecast(model, sim, t=t, h=h)
    want = _hand_piecewise_rollout(cfg, sim.xs[t - 1], h)
    np.testing.assert_allclose(got, want, atol=1e-9)
    # and the simulator agrees with the hand rollout (same piecewise maps)
    np.testing.assert_allclose(sim.xs[t:t + h], want, atol=1e-12)


def test_marginal_equals_argmax_when_saturated():
    cfg = default_config("bouncing_ball")
    model = _ball_model(cfg)
    sim = simulate(cfg, x0=np.array([1.0, 0.0]), T=60, id="ball")
    a = _forecast(model, sim, t=3, h=20, mode="marginal")
    b = _forecast(model, sim, t=3, h=20, mode="argmax")
    np.testing.assert_array_equal(a, b)


def test_evaluate_rejects_a_bad_mode_before_filtering(monkeypatch):
    m = random_model(K=2, d_x=2, d_u=1, seed=6)
    test = random_dataset(m, n=2, T=10, seed=6)
    calls = []

    def counted(model, dataset):
        calls.append(id(model))
        return filter_all(model, dataset)

    monkeypatch.setattr(evaluation, "filter_all", counted)
    for mode in ("modal", "sample"):
        with pytest.raises(ValueError, match="mode must be one of"):
            evaluate({"m": [m]}, test, [1, 2], mode=mode)
    assert calls == []


def test_draw_regimes_equals_generator_choice():
    rng = np.random.default_rng(12)
    for K in (1, 2, 3, 7):
        for alpha in (1.0, 0.05):
            beliefs = rng.dirichlet(np.full(K, alpha), size=500)
            # half the rows that have other mass get none on regime 0
            beliefs[(rng.random(500) < 0.5) & (beliefs[:, 1:].sum(axis=1) > 0), 0] = 0.0
            beliefs /= beliefs.sum(axis=1, keepdims=True)
            seed = 100 * K + int(20 * alpha)
            chosen = np.random.default_rng(seed)
            want = [chosen.choice(K, p=b) for b in beliefs]
            assert np.array_equal(draw_regimes(np.random.default_rng(seed), beliefs), want)


def test_draw_regimes_never_draws_a_regime_without_mass():
    # the belief's cumulative sum rounds below 1, and the largest uniform
    # lands past it: the draw is the last regime with mass, as
    # Generator.choice draws it, not one past the end
    b = EDGE_BELIEF / EDGE_BELIEF.sum()
    assert np.cumsum(b)[-1] <= np.nextafter(1.0, 0.0)
    assert draw_regimes(LastUniformRng(), b[None])[0] == 2


def test_ragged_forecast_reads_only_each_rows_actions():
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=11)
    rng = np.random.default_rng(11)
    M, h = 9, 5
    x0 = rng.standard_normal((M, 2))
    b0 = rng.dirichlet(np.ones(3), size=M)
    us = rng.standard_normal((M, h, 1))
    lengths = np.array([5, 5, 4, 3, 3, 3, 2, 1, 1])
    full = _forecast_batch(m, x0, b0, us, "marginal", np.full(M, h))
    # actions past each row's window are NaN: never read, so nothing raises
    us[np.arange(h) >= lengths[:, None]] = np.nan
    got = _forecast_batch(m, x0, b0, us, "marginal", lengths)
    ran = np.arange(h) < lengths[:, None]
    assert np.array_equal(got[ran], full[ran])
    assert np.all(np.isnan(got[~ran]))
    # one step too many for the last two rows reaches their NaN actions
    with pytest.raises(ValueError, match="finite"):
        _forecast_batch(m, x0, b0, us, "marginal", np.r_[lengths[:-2], 2, 2])


@pytest.mark.parametrize("mode", ["marginal", "argmax"])
@pytest.mark.parametrize("K", [2, 5, 9])
@pytest.mark.parametrize("kind", ["stationary", "linear", "polynomial", "perceptron"])
def test_forecast_rows_round_alone(kind, K, mode):
    # each sum over regimes, link features or coordinates runs elementwise
    # over the rows, so a batch of ragged rows forecasts each row bit for bit
    # as a call of its own would; a matmul or an einsum rounds a row by the
    # number of rows it shares a call with
    m = random_model(K=K, d_x=2, d_u=1, kind=kind, seed=40 + K)
    rng = np.random.default_rng(K)
    M, h = 13, 6
    x0, b0 = rng.standard_normal((M, 2)), rng.dirichlet(np.ones(K), size=M)
    us = rng.standard_normal((M, h, 1))
    lengths = np.sort(rng.integers(1, h + 1, size=M))[::-1]
    got = _forecast_batch(m, x0, b0, us, mode, lengths)
    for r in range(M):
        alone = _forecast_batch(m, x0[r:r + 1], b0[r:r + 1], us[r:r + 1], mode,
                                lengths[r:r + 1])
        assert np.array_equal(got[r], alone[0], equal_nan=True)


def _reference_forecast(model, x0, b0, us, mode):
    """Each row forecast on its own, one step at a time, from the link matrix
    transition_matrices gives at that step."""
    d = model.dynamics
    out = np.empty((len(x0), us.shape[1], model.d_x))
    for r, (x, b) in enumerate(zip(x0, b0)):
        for i, u in enumerate(us[r]):
            b = transition_matrices(model.transition, x[None], u[None])[0] @ b
            b = b / b.sum()
            means = d.A @ x + d.B @ u + d.c
            if mode == "marginal":
                x = b @ means
            else:
                x, b = means[b.argmax()], np.eye(model.K)[b.argmax()]
            out[r, i] = x
    return out


@pytest.mark.parametrize("mode", ["marginal", "argmax"])
def test_forecast_takes_the_exact_link_where_the_normalizer_underflows(monkeypatch, mode):
    # every entry of the factored link's shifted normalizer underflows, so
    # every step takes the link matrices over its running rows from
    # transition_matrices, looked up through evaluation; no divide by zero
    # or invalid value is raised on the way
    m = underflowing_link_model(K=3, seed=42)
    rng = np.random.default_rng(42)
    M, h = 7, 5
    x0, b0 = rng.standard_normal((M, 2)), rng.dirichlet(np.ones(3), size=M)
    us = rng.standard_normal((M, h, 1))
    lengths = np.array([5, 5, 4, 3, 3, 1, 1])
    calls = []

    def counted(tm, xs, us):
        calls.append(len(xs))
        return transition_matrices(tm, xs, us)

    monkeypatch.setattr(evaluation, "transition_matrices", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _forecast_batch(m, x0, b0, us, mode, lengths)
    assert calls == [7, 5, 5, 3, 2]
    want = _reference_forecast(m, x0, b0, us, mode)
    ran = np.arange(h) < lengths[:, None]
    np.testing.assert_allclose(got[ran], want[ran], rtol=1e-12, atol=1e-12)
    assert np.all(np.isnan(got[~ran]))


def test_nmse_values():
    assert nmse(np.zeros((4, 2)), np.zeros((4, 2)), np.ones(2)) == 0.0
    got = nmse(np.array([[1.0, 0.0], [0.0, 1.0]]),
               np.zeros((2, 2)), np.ones(2))
    assert got == pytest.approx(0.5)
    with pytest.raises(ValueError):
        nmse(np.zeros((2, 2)), np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        nmse(np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2))


def test_nmse_mean_predictor_scores_one():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(500, 3)) * np.array([1.0, 3.0, 0.2])
    var = xs.var(axis=0)
    preds = np.tile(xs.mean(axis=0), (500, 1))
    assert nmse(preds, xs, var) == pytest.approx(1.0, rel=1e-12)


def test_nmse_monotone_under_corruption():
    rng = np.random.default_rng(1)
    truths = rng.normal(size=(100, 2))
    noise = rng.normal(size=(100, 2))
    var = truths.var(axis=0)
    vals = [nmse(truths + eps * noise, truths, var)
            for eps in (0.0, 0.1, 0.3, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_evaluate_exact_model_zero_column():
    # the simulator is exactly the two affine maps switched on the impact
    # event, so the saturated two-regime model forecasts it to round-off
    cfg = default_config("bouncing_ball")
    model = _ball_model(cfg)
    trajs = [simulate(cfg, x0=np.array(x0), T=120, id=f"t{i}")
             for i, x0 in enumerate([(1.0, -0.5), (1.2, -0.2), (1.4, 0.1)])]
    report = evaluate({"ball": [model]}, Dataset(trajs),
                      horizons=[1, 20])
    for r in report.rows:
        assert r["mean"] < 1e-6
    assert [r["h"] for r in report.rows] == [1, 20]


def test_evaluate_duplicate_split_stats():
    m = random_model(K=2, d_x=2, d_u=1, seed=8)
    test = random_dataset(m, n=2, T=25, seed=8)
    one = evaluate({"m": [m]}, test, horizons=[3])
    two = evaluate({"m": [m, m]}, test, horizons=[3])
    assert two.rows[0]["mean"] == pytest.approx(one.rows[0]["mean"])
    assert two.rows[0]["std"] == 0.0
    assert two.rows[0]["n"] == 2


def _per_horizon_reference(m, trajs, horizons, mode, normalizer):
    """NMSE per horizon by the per-horizon protocol: one forecast batch per
    (trajectory, horizon), over the starts t with t + h <= T, each filtering
    the trajectory anew on its own (filter_one)."""
    want = []
    for h in horizons:
        preds, truths = [], []
        for traj in trajs:
            if traj.T <= h:
                continue
            starts = np.arange(1, traj.T - h + 1)
            us = np.stack([traj.us[s - 1:s - 1 + h] for s in starts])
            out = _forecast_batch(m, traj.xs[starts - 1], filter_one(m, traj)[starts - 1],
                                  us, mode, np.full(len(starts), h))
            preds.append(out[:, -1])
            truths.append(traj.xs[starts - 1 + h])
        want.append(nmse(np.concatenate(preds), np.concatenate(truths), normalizer))
    return want


@pytest.mark.parametrize("mode", ["marginal", "argmax"])
def test_evaluate_filters_each_trajectory_once(monkeypatch, mode):
    m = random_model(K=2, d_x=2, d_u=1, seed=10)
    trajs = [random_trajectory(m, T=T, seed=s)[0] for s, T in enumerate((25, 12, 30))]
    test = Dataset(trajs)
    horizons = [1, 5, 15]
    want = _per_horizon_reference(m, trajs, horizons, mode, dataset_normalizer(test))
    calls = []

    def counted(model, dataset):
        calls.append((id(model), dataset is test))
        return filter_all(model, dataset)

    monkeypatch.setattr(evaluation, "filter_all", counted)
    m2 = random_model(K=3, d_x=2, d_u=1, seed=11)
    report = evaluate({"m": [m], "m2": [m2]}, test, horizons, mode=mode)
    # one padded batch of the whole test set per model
    assert calls == [(id(m), True), (id(m2), True)]
    assert [r["nmse"] for r in report.per_split[:len(horizons)]] == want


@pytest.mark.parametrize("horizons", [(25, 1, 7, 10), (10, 1, 12, 3), (4,)])
@pytest.mark.parametrize("mode", ["marginal", "argmax"])
def test_joint_forecast_equals_per_horizon_protocol(mode, horizons):
    # unsorted horizons; T = 9 falls between horizons 7 and 10, T = 26 passes
    # 25 by one step, T = 12 equals a horizon, T = 3 is shorter than every
    # horizon but 1
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=21)
    trajs = [random_trajectory(m, T=T, seed=s)[0]
             for s, T in enumerate((40, 9, 26, 3, 12))]
    test = Dataset(trajs)
    want = _per_horizon_reference(m, trajs, horizons, mode, dataset_normalizer(test))
    report = evaluate({"m": [m]}, test, horizons, mode=mode)
    assert [r["h"] for r in report.per_split] == list(horizons)
    # exact, though the reference forecasts the one h = 25 start of T = 26 in a
    # call of its own and evaluate stacks it with 15 rows of T = 40: a row
    # rounds the same whichever rows share its call
    # (test_forecast_rows_round_alone)
    assert [r["nmse"] for r in report.per_split] == want
    assert [r["mean"] for r in report.rows] == want


def test_evaluate_forecasts_each_trajectory_once_per_model(monkeypatch):
    m1, m2 = (random_model(K=2, d_x=2, d_u=1, seed=s) for s in (12, 13))
    m3 = random_model(K=3, d_x=2, d_u=1, seed=14)
    trajs = [random_trajectory(m1, T=T, seed=s)[0] for s, T in enumerate((20, 3, 11))]
    calls = []
    batch = evaluation._forecast_batch

    def counted(model, x0, *args, **kwargs):
        calls.append((id(model), len(x0), sorted(map(tuple, x0))))
        return batch(model, x0, *args, **kwargs)

    layouts = []
    layout = evaluation._forecast_layout

    def laid_out(*args):
        layouts.append(args)
        return layout(*args)

    monkeypatch.setattr(evaluation, "_forecast_batch", counted)
    monkeypatch.setattr(evaluation, "_forecast_layout", laid_out)
    evaluate({"a": [m1, m2], "b": [m3]}, Dataset(trajs), [8, 3, 5])
    # the model-free part of the batch is laid out once per call
    assert len(layouts) == 1
    # the T = 3 trajectory exceeds no horizon; the others forecast every
    # start t <= T - 3, all in one call per model: 17 + 8 rows
    starts = sorted(map(tuple, np.concatenate([trajs[0].xs[:17], trajs[2].xs[:8]])))
    assert calls == [(id(m), 25, starts) for m in (m1, m2, m3)]


@pytest.mark.parametrize("mode", ["marginal", "argmax"])
def test_stacked_forecast_equals_one_call_per_trajectory(monkeypatch, mode):
    # sorted by path length, the rows of T = 40 and 26 run 25 steps, then
    # those of 40, 26 and 12 run 10, then 40, 26, 12 and 9 run 7, ...
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=21)
    trajs = [random_trajectory(m, T=T, seed=s)[0]
             for s, T in enumerate((40, 9, 26, 3, 12))]
    test = Dataset(trajs)
    hs = np.array([1, 7, 10, 25])
    calls = []
    batch = evaluation._forecast_batch

    def counted(model, x0, *args, **kwargs):
        out = batch(model, x0, *args, **kwargs)
        calls.append((x0, out))
        return out

    monkeypatch.setattr(evaluation, "_forecast_batch", counted)
    evaluate({"m": [m]}, test, [25, 1, 10, 7], mode=mode)
    assert len(calls) == 1
    x0, res = calls[0]
    assert len(x0) == sum(T - 1 for T in (40, 9, 26, 3, 12))
    stacked = np.concatenate([traj.xs[:traj.T - 1] for traj in trajs])
    assert not np.array_equal(x0, stacked)
    (b, i), *_ = evaluation._forecast_layout(test, list(hs))
    for k, (traj, alpha) in enumerate(zip(trajs, filter_all(m, test))):
        n = traj.T - 1
        rows = np.flatnonzero(b == k)
        assert np.array_equal(i[rows], np.arange(n))
        assert np.array_equal(x0[rows], traj.xs[:n])
        out = res[rows]
        lengths = hs[np.searchsorted(hs, traj.T - np.arange(1, n + 1), side="right") - 1]
        us = np.full((n, 25, 1), np.nan)
        for r, length in enumerate(lengths):
            us[r, :length] = traj.us[r:r + length]
        # bit for bit, also the first start of T = 26: from step 10 on it is
        # the one row its own call runs, and in the stacked batch one of 16
        want = batch(m, traj.xs[:n], alpha[:n], us, mode, lengths)
        assert np.array_equal(out, want, equal_nan=True)


@pytest.mark.parametrize("mode", ["marginal", "argmax"])
def test_evaluate_scores_every_tag_as_if_alone(mode):
    # ragged, with T = 4 shorter than every horizon but the first; tags of
    # K = 2 and 3, one of two models, and horizons out of order
    gen = random_model(K=2, d_x=2, d_u=1, seed=30)
    trajs = [random_trajectory(gen, T=T, seed=s)[0] for s, T in enumerate((30, 4, 17, 23))]
    test = Dataset(trajs)
    horizons = [9, 1, 16, 5]
    models = {"a": [random_model(K=2, d_x=2, d_u=1, seed=s) for s in (31, 32)],
              "b": [random_model(K=3, d_x=2, d_u=1, kind="linear", seed=33)]}
    both = evaluate(models, test, horizons, mode=mode)
    for tag in models:
        alone = evaluate({tag: models[tag]}, test, horizons, mode=mode)
        assert [r for r in both.rows if r["tag"] == tag] == alone.rows
        assert [r for r in both.per_split if r["tag"] == tag] == alone.per_split
    assert [r["tag"] for r in both.rows] == ["a"] * 4 + ["b"] * 4


def test_forecast_lengths_must_not_increase_nor_pass_the_horizon():
    m = random_model(K=2, d_x=2, d_u=1, seed=11)
    rng = np.random.default_rng(11)
    x0, b0 = rng.standard_normal((4, 2)), rng.dirichlet(np.ones(2), size=4)
    us = rng.standard_normal((4, 5, 1))
    # both used to run silently: with [5, 3, 4, 1] the running prefix held
    # the wrong rows (row 1 ran a fourth step, row 2 stopped after three),
    # and a length past h was cut to h
    with pytest.raises(ValueError, match="must not increase .* row 2 runs 4 steps$"):
        _forecast_batch(m, x0, b0, us, "marginal", np.array([5, 3, 4, 1]))
    with pytest.raises(ValueError, match="at most h = 5, but row 0 runs 6 steps$"):
        _forecast_batch(m, x0, b0, us, "argmax", np.array([6, 5, 2, 1]))


def test_evaluate_errors():
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    test = random_dataset(m, n=2, T=10, seed=9)
    with pytest.raises(ValueError):
        evaluate({}, Dataset([]), horizons=[1])
    # an empty tag map used to give a report with a header and no rows
    with pytest.raises(ValueError, match="names no model tag"):
        evaluate({}, test, horizons=[1])
    with pytest.raises(ValueError):
        evaluate({"m": []}, test, horizons=[1])
    with pytest.raises(ValueError):
        evaluate({"m": [m]}, test, horizons=[])
    with pytest.raises(ValueError, match="longer than horizon"):
        evaluate({"m": [m]}, test, horizons=[10])
    # the first horizon, in the given order, that no trajectory exceeds
    with pytest.raises(ValueError, match="no trajectory is longer than horizon 12$"):
        evaluate({"m": [m]}, test, horizons=[3, 12, 9, 10])
    with pytest.raises(ValueError, match="no trajectory is longer than horizon 10$"):
        evaluate({"m": [m]}, test, horizons=[10, 12])
    # [2.5, True] used to score and label horizons 2 and 1
    for horizons in ([2.5, True], [3, 2.0], [True], ["2"], [0]):
        with pytest.raises(ValueError, match=r"horizons must be integers >= 1, got \["):
            evaluate({"m": [m]}, test, horizons=horizons)
    report = evaluate({"m": [m]}, test, horizons=np.array([2, 1]))
    assert [type(r["h"]) for r in report.rows] == [int, int]
    assert report.to_csv() == evaluate({"m": [m]}, test, horizons=[2, 1]).to_csv()


def test_evaluate_rejects_a_repeated_horizon():
    # it used to score the horizon once per mention, each a row of the report
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    test = random_dataset(m, n=2, T=10, seed=9)
    with pytest.raises(ValueError, match="horizon 1 is given more than once$"):
        evaluate({"m": [m]}, test, horizons=[1, 5, 1])


@pytest.mark.parametrize("other", [dict(K=3), dict(kind="stationary")])
def test_evaluate_rejects_a_tag_whose_models_differ_in_k_or_parameter_counts(other):
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    test = random_dataset(m, n=2, T=10, seed=9)
    odd = random_model(**{"K": 2, "d_x": 2, "d_u": 1, "seed": 4, **other})
    with pytest.raises(ValueError, match="tag 'mixed' mixes models of different K"):
        evaluate({"m": [m], "mixed": [m, odd, m]}, test, horizons=[1])


def test_report_csv_deterministic_and_ordered():
    m = random_model(K=2, d_x=2, d_u=1, seed=10)
    test = random_dataset(m, n=2, T=20, seed=10)
    r1 = evaluate({"m": [m]}, test, horizons=[1, 5])
    r2 = evaluate({"m": [m]}, test, horizons=[1, 5])
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_long_csv() == r2.to_long_csv()
    lines = r1.to_csv(header_lines=("seed=0",)).strip().split("\n")
    assert lines[0] == "# seed=0"
    assert lines[1] == "model_tag,K,h,nmse_mean,nmse_std,n_splits"
    assert lines[2].startswith("m,2,1,")
    assert r1.to_long_csv().strip().split("\n")[0] == "model_tag,K,split,h,nmse"


def test_count_params_ball_anchor_is_22():
    dyn = Dynamics(A=np.tile(np.eye(2), (2, 1, 1)), B=np.zeros((2, 2, 0)),
                   c=np.zeros((2, 2)), lam_cov=np.tile(np.eye(2), (2, 1, 1)))
    init = InitialModel(pi=np.array([0.5, 0.5]), mu=np.zeros((2, 2)),
                        omega_cov=np.stack([np.eye(2)] * 2))
    m = HybridModel(init=init, dynamics=dyn,
                    transition=make_transition("stationary", 2, 2, 0))
    assert count_params(m) == 22
    bd = count_params_breakdown(m)
    assert bd == {"initial_probs": 2, "transition_bias": 4,
                  "transition_features": 0, "dynamics": 16}


def test_count_params_structure():
    def make(K, kind="stationary", **kw):
        dyn = Dynamics(A=np.tile(np.eye(2), (K, 1, 1)), B=np.zeros((K, 2, 1)),
                       c=np.zeros((K, 2)), lam_cov=np.tile(np.eye(2), (K, 1, 1)))
        init = InitialModel(pi=np.full(K, 1.0 / K), mu=np.zeros((K, 2)),
                            omega_cov=np.stack([np.eye(2)] * K))
        return HybridModel(init=init, dynamics=dyn,
                           transition=make_transition(kind, K, 2, 1, **kw))

    c2, c4 = count_params(make(2)), count_params(make(4))
    # K -> 2K: bias jumps by 3K^2, initial probs by K, regime blocks by K blocks
    per_regime = 2 * 2 + 2 * 1 + 2 + 2
    assert c4 - c2 == 2 + (16 - 4) + 2 * per_regime
    # feature params are counted
    lin = count_params(make(2, kind="linear"))
    assert lin == c2 + 2 * 3
    mlp = count_params(make(2, kind="perceptron", hidden_units=4))
    assert mlp == c2 + (4 * 3 + 4 + 2 * 4 + 2)


def test_count_params_closed_loop_controllers():
    K = 2
    ctl = Controllers(gain=np.zeros((K, 1, 3)), offset=np.zeros((K, 1)),
                      sigma_cov=np.ones((K, 1, 1)), lag=1, poly_degree=1)
    dyn = Dynamics(A=np.tile(np.eye(2), (K, 1, 1)), B=np.zeros((K, 2, 1)),
                   c=np.zeros((K, 2)), lam_cov=np.tile(np.eye(2), (K, 1, 1)))
    init = InitialModel(pi=np.array([0.5, 0.5]), mu=np.zeros((K, 2)),
                        omega_cov=np.stack([np.eye(2)] * K))
    m = HybridModel(init=init, dynamics=dyn,
                    transition=make_transition("stationary", K, 2, 1), controllers=ctl)
    bd = count_params_breakdown(m)
    assert bd["controllers"] == K * (1 * 3 + 1 + 1)
    assert count_params(m) == sum(bd.values())


def test_normalizer_rejects_constant_dimension():
    xs = np.zeros((10, 2))
    xs[:, 0] = np.arange(10)
    ds = Dataset(
        [Trajectory(xs=xs, us=np.zeros((10, 1)), dt=0.1, id="c")])
    with pytest.raises(ValueError, match="zero-variance"):
        dataset_normalizer(ds)
