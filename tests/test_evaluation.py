import numpy as np
import pytest

from rarhmm.envs import default_config, simulate
from rarhmm import evaluation
from rarhmm.evaluation import (EvalReport, _forecast_batch, count_params,
                               count_params_breakdown, evaluate, filter_all,
                               filter_prefix, forecast, nmse,
                               dataset_normalizer)
from rarhmm._linalg import mvn_logpdf
from rarhmm.model import (CLOSED_LOOP, Dataset, HybridModel, InitialModel,
                          RegimeController, RegimeDynamics, Trajectory,
                          sample_trajectory)
from rarhmm.transition import make_transition

from util import (brute_force_posterior, random_dataset, random_model,
                  random_trajectory, reference_sample_forecast)


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
    dynamics = (RegimeDynamics(A=A_f, B=np.zeros((2, 0)), c=c_f,
                               lam_cov=lam * np.eye(2)),
                RegimeDynamics(A=A_i, B=np.zeros((2, 0)), c=c_i,
                               lam_cov=lam * np.eye(2)))
    w = np.array([1.0, dt])
    bias = np.array([[-0.5 * g * dt * dt * kappa] * 2,
                     [+0.5 * g * dt * dt * kappa] * 2])
    tm = make_transition("linear", 2, 2, 0, bias=bias)
    tm = type(tm)(kind="linear", K=2, d_x=2, d_u=0, bias=bias,
                  feature_params=np.concatenate([kappa * w, -kappa * w]),
                  feat_mean=tm.feat_mean, feat_std=tm.feat_std)
    init = InitialModel(pi=np.array([0.5, 0.5]),
                        mu=np.array([[1.0, 0.0], [1.0, 0.0]]),
                        omega_cov=np.stack([np.eye(2), np.eye(2)]))
    return HybridModel(K=2, d_x=2, d_u=0, mode="open_loop", init=init,
                       dynamics=dynamics, transition=tm)


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


def test_filter_k1_is_one():
    m = random_model(K=1, d_x=2, d_u=1, seed=0)
    traj, _ = random_trajectory(m, T=10, seed=0)
    np.testing.assert_array_equal(filter_prefix(m, traj, 4), [1.0])


def test_filter_t1_uninformative_recovers_prior():
    m = random_model(K=3, d_x=2, d_u=1, seed=1)
    # identical emission blocks across regimes make the first step uninformative
    init = InitialModel(pi=m.init.pi,
                        mu=np.tile(m.init.mu[:1], (3, 1)),
                        omega_cov=np.tile(m.init.omega_cov[:1], (3, 1, 1)))
    m = HybridModel(K=3, d_x=2, d_u=1, mode=m.mode, init=init,
                    dynamics=m.dynamics, transition=m.transition)
    traj, _ = random_trajectory(m, T=5, seed=1)
    np.testing.assert_allclose(filter_prefix(m, traj, 1), m.init.pi, atol=1e-12)


def test_filter_matches_brute_force_prefix():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=5)
    traj, _ = random_trajectory(m, T=8, seed=5)
    for t in (2, 3, 6, 8):
        prefix = Trajectory(xs=traj.xs[:t], us=traj.us[:t], dt=traj.dt, id="p")
        want = brute_force_posterior(m, prefix).gamma[-1]
        np.testing.assert_allclose(filter_prefix(m, traj, t), want, atol=1e-10)
    # t = 1 directly: posterior over z_1 from the initial Gaussian alone
    lp = np.array([mvn_logpdf(traj.xs[0], m.init.mu[k], m.init.omega_cov[k])
                   for k in range(2)]) + np.log(m.init.pi)
    want1 = np.exp(lp - lp.max())
    np.testing.assert_allclose(filter_prefix(m, traj, 1), want1 / want1.sum(),
                               atol=1e-12)
    with pytest.raises(ValueError):
        filter_prefix(m, traj, 0)
    with pytest.raises(ValueError):
        filter_prefix(m, traj, 9)


def test_filter_all_agrees_with_prefixes():
    m = random_model(K=3, d_x=2, d_u=1, kind="perceptron", seed=2)
    traj, _ = random_trajectory(m, T=12, seed=2)
    alpha = filter_all(m, traj)
    for t in (1, 5, 12):
        np.testing.assert_allclose(alpha[t - 1], filter_prefix(m, traj, t),
                                   atol=1e-12)


def test_forecast_k1_deterministic_rollout():
    m = random_model(K=1, d_x=2, d_u=1, seed=3, noise_scale=1e-6)
    traj, _ = random_trajectory(m, T=12, seed=3)
    h, t = 5, 4
    got = forecast(m, traj, t=t, h=h)
    x = traj.xs[t - 1]
    d = m.dynamics[0]
    want = []
    for i in range(h):
        x = d.A @ x + d.B @ traj.us[t - 1 + i] + d.c
        want.append(x)
    np.testing.assert_allclose(got, np.array(want), atol=1e-12)


def test_forecast_exact_model_zero_error():
    m = random_model(K=1, d_x=2, d_u=1, seed=4)
    rng = np.random.default_rng(4)
    us = 0.3 * rng.standard_normal((30, 1))
    traj, _ = sample_trajectory(m, 30, rng, exogenous_us=us, deterministic=True)
    for h in (1, 3, 10):
        got = forecast(m, traj, t=5, h=h)
        np.testing.assert_allclose(got[-1], traj.xs[4 + h], atol=1e-10)


def test_ball_forecast_matches_hand_piecewise_rollout():
    cfg = default_config("bouncing_ball")
    model = _ball_model(cfg)
    sim = simulate(cfg, x0=np.array([0.30, -2.0]), T=30, id="ball")
    # the window crosses an impact
    t, h = 2, 5
    got = forecast(model, sim, t=t, h=h)
    want = _hand_piecewise_rollout(cfg, sim.xs[t - 1], h)
    np.testing.assert_allclose(got, want, atol=1e-9)
    # and the simulator agrees with the hand rollout (same piecewise maps)
    np.testing.assert_allclose(sim.xs[t:t + h], want, atol=1e-12)


def test_marginal_equals_argmax_when_saturated():
    cfg = default_config("bouncing_ball")
    model = _ball_model(cfg)
    sim = simulate(cfg, x0=np.array([1.0, 0.0]), T=60, id="ball")
    a = forecast(model, sim, t=3, h=20, mode="marginal")
    b = forecast(model, sim, t=3, h=20, mode="argmax")
    np.testing.assert_array_equal(a, b)


def test_forecast_mode_and_bounds_errors():
    m = random_model(K=2, d_x=2, d_u=1, seed=6)
    traj, _ = random_trajectory(m, T=10, seed=6)
    with pytest.raises(ValueError):
        forecast(m, traj, t=8, h=5)
    with pytest.raises(ValueError):
        forecast(m, traj, t=3, h=0)
    with pytest.raises(ValueError):
        forecast(m, traj, t=3, h=2, mode="modal")
    with pytest.raises(ValueError):
        forecast(m, traj, t=3, h=2, mode="sample")  # rng missing
    a = forecast(m, traj, t=3, h=4, mode="sample", rng=np.random.default_rng(0))
    b = forecast(m, traj, t=3, h=4, mode="sample", rng=np.random.default_rng(0))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("K, d_x, d_u", [(1, 1, 1), (3, 2, 1), (4, 3, 2), (2, 2, 0)])
def test_sample_forecast_matches_per_start_draws(K, d_x, d_u):
    m = random_model(K=K, d_x=d_x, d_u=d_u, seed=K + d_x)
    rng = np.random.default_rng(d_x)
    M, h = 40, 6
    x0 = rng.standard_normal((M, d_x))
    b0 = rng.dirichlet(np.ones(K), size=M)
    us = rng.standard_normal((M, h, d_u))
    got = _forecast_batch(m, x0, b0, us, "sample", np.random.default_rng(5))
    want = reference_sample_forecast(m, x0, b0, us, np.random.default_rng(5))
    np.testing.assert_array_equal(got, want)


def test_forecast_with_explicit_actions():
    m = random_model(K=2, d_x=2, d_u=1, seed=7)
    traj, _ = random_trajectory(m, T=10, seed=7)
    default = forecast(m, traj, t=2, h=3)
    same = forecast(m, traj, t=2, h=3, actions=traj.us[1:4])
    np.testing.assert_array_equal(default, same)
    other = forecast(m, traj, t=2, h=3, actions=np.zeros((3, 1)))
    assert not np.array_equal(default, other)


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
    report = evaluate({"ball": [model]}, Dataset.from_trajectories(trajs),
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


@pytest.mark.parametrize("mode", ["marginal", "sample"])
def test_evaluate_filters_each_trajectory_once(monkeypatch, mode):
    m = random_model(K=2, d_x=2, d_u=1, seed=10)
    trajs = [random_trajectory(m, T=T, seed=s)[0] for s, T in enumerate((25, 12, 30))]
    test = Dataset.from_trajectories(trajs)
    horizons = [1, 5, 15]
    # reference: the per-horizon protocol, filtering every trajectory anew
    rng = np.random.default_rng(3)
    want = []
    for h in horizons:
        preds, truths = [], []
        for traj in trajs:
            if traj.T <= h:
                continue
            starts = np.arange(1, traj.T - h + 1)
            us = np.stack([traj.us[s - 1:s - 1 + h] for s in starts])
            out = _forecast_batch(m, traj.xs[starts - 1],
                                  filter_all(m, traj)[starts - 1], us, mode, rng)
            preds.append(out[:, -1])
            truths.append(traj.xs[starts - 1 + h])
        want.append(nmse(np.concatenate(preds), np.concatenate(truths),
                         dataset_normalizer(test)))
    calls = []

    def counted(model, traj):
        calls.append(traj.id)
        return filter_all(model, traj)

    monkeypatch.setattr(evaluation, "filter_all", counted)
    report = evaluate({"m": [m]}, test, horizons, mode=mode,
                      rng=np.random.default_rng(3))
    assert sorted(calls) == sorted(t.id for t in trajs)
    assert [r["nmse"] for r in report.per_split] == want


def test_evaluate_errors():
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    test = random_dataset(m, n=2, T=10, seed=9)
    with pytest.raises(ValueError):
        evaluate({}, Dataset.from_trajectories([]), horizons=[1])
    with pytest.raises(ValueError):
        evaluate({"m": []}, test, horizons=[1])
    with pytest.raises(ValueError):
        evaluate({"m": [m]}, test, horizons=[])
    with pytest.raises(ValueError, match="longer than horizon"):
        evaluate({"m": [m]}, test, horizons=[10])


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
    dyn = tuple(RegimeDynamics(A=np.eye(2), B=np.zeros((2, 0)), c=np.zeros(2),
                               lam_cov=np.eye(2)) for _ in range(2))
    init = InitialModel(pi=np.array([0.5, 0.5]), mu=np.zeros((2, 2)),
                        omega_cov=np.stack([np.eye(2)] * 2))
    m = HybridModel(K=2, d_x=2, d_u=0, mode="open_loop", init=init,
                    dynamics=dyn, transition=make_transition("stationary", 2, 2, 0))
    assert count_params(m) == 22
    bd = count_params_breakdown(m)
    assert bd == {"initial_probs": 2, "transition_bias": 4,
                  "transition_features": 0, "dynamics": 16}


def test_count_params_structure():
    def make(K, kind="stationary", **kw):
        dyn = tuple(RegimeDynamics(A=np.eye(2), B=np.zeros((2, 1)),
                                   c=np.zeros(2), lam_cov=np.eye(2))
                    for _ in range(K))
        init = InitialModel(pi=np.full(K, 1.0 / K), mu=np.zeros((K, 2)),
                            omega_cov=np.stack([np.eye(2)] * K))
        return HybridModel(K=K, d_x=2, d_u=1, mode="open_loop", init=init,
                           dynamics=dyn,
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
    ctl = tuple(RegimeController(gain=np.zeros((1, 3)), offset=np.zeros(1),
                                 sigma_cov=np.eye(1), lag=1, poly_degree=1)
                for _ in range(K))
    dyn = tuple(RegimeDynamics(A=np.eye(2), B=np.zeros((2, 1)), c=np.zeros(2),
                               lam_cov=np.eye(2)) for _ in range(K))
    init = InitialModel(pi=np.array([0.5, 0.5]), mu=np.zeros((K, 2)),
                        omega_cov=np.stack([np.eye(2)] * K))
    m = HybridModel(K=K, d_x=2, d_u=1, mode=CLOSED_LOOP, init=init,
                    dynamics=dyn, transition=make_transition("stationary", K, 2, 1),
                    controllers=ctl)
    bd = count_params_breakdown(m)
    assert bd["controllers"] == K * (1 * 3 + 1 + 1)
    assert count_params(m) == sum(bd.values())


def test_normalizer_rejects_constant_dimension():
    xs = np.zeros((10, 2))
    xs[:, 0] = np.arange(10)
    ds = Dataset.from_trajectories(
        [Trajectory(xs=xs, us=np.zeros((10, 1)), dt=0.1, id="c")])
    with pytest.raises(ValueError, match="zero-variance"):
        dataset_normalizer(ds)
