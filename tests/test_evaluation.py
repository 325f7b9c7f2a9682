import numpy as np
import pytest

from rarhmm.envs import default_config, simulate
from rarhmm import evaluation, inference
from rarhmm.evaluation import (_forecast_batch, count_params,
                               count_params_breakdown, evaluate, filter_all, nmse,
                               dataset_normalizer)
from rarhmm.model import (Controllers, Dataset, Dynamics, HybridModel,
                          InitialModel, Trajectory, log_local_evidence)
from rarhmm.transition import make_transition

from util import (brute_force_posterior, filter_one, forward_pass, local_quantities,
                  mvn_logpdf, random_dataset, random_model, random_trajectory,
                  reference_sample_forecast, reference_sample_trajectory)


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


def _forecast(model, traj, t, h, mode="marginal", rng=None):
    """States t+1 .. t+h (h, d_x) forecast from the filtered belief at step t
    (1-based) under the recorded controls u_t .. u_{t+h-1}: one row of
    _forecast_batch."""
    b = filter_all(model, Dataset([traj]))[0, t - 1]
    return _forecast_batch(model, traj.xs[t - 1][None], b[None],
                           traj.us[None, t - 1:t - 1 + h], mode, rng, np.array([h]))[0]


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


def test_forecast_mode_errors_and_seeded_samples():
    m = random_model(K=2, d_x=2, d_u=1, seed=6)
    traj, _ = random_trajectory(m, T=10, seed=6)
    with pytest.raises(ValueError, match="mode must be one of"):
        _forecast(m, traj, t=3, h=2, mode="modal")
    with pytest.raises(ValueError, match="sample mode needs an rng"):
        _forecast(m, traj, t=3, h=2, mode="sample")
    a = _forecast(m, traj, t=3, h=4, mode="sample", rng=np.random.default_rng(0))
    b = _forecast(m, traj, t=3, h=4, mode="sample", rng=np.random.default_rng(0))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("K, d_x, d_u, ragged", [
    pytest.param(*case, False, id="-".join(map(str, case)))
    for case in [(1, 1, 1), (3, 2, 1), (4, 3, 2), (2, 2, 0)]] + [
    pytest.param(*case, True, id="-".join(map(str, case)) + "-ragged")
    for case in [(3, 2, 1), (2, 2, 0)]])
def test_sample_forecast_matches_per_start_draws(K, d_x, d_u, ragged):
    m = random_model(K=K, d_x=d_x, d_u=d_u, seed=K + d_x)
    rng = np.random.default_rng(d_x)
    M, h = 40, 6
    x0 = rng.standard_normal((M, d_x))
    b0 = rng.dirichlet(np.ones(K), size=M)
    us = rng.standard_normal((M, h, d_u))
    # ragged: non-increasing lengths from h down to 1, with repeats
    lengths = np.sort(rng.integers(1, h + 1, size=M))[::-1] if ragged else np.full(M, h)
    got = _forecast_batch(m, x0, b0, us, "sample", np.random.default_rng(5), lengths)
    want = reference_sample_forecast(m, x0, b0, us, np.random.default_rng(5), lengths)
    np.testing.assert_array_equal(got, want)


def test_ragged_forecast_reads_only_each_rows_actions():
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=11)
    rng = np.random.default_rng(11)
    M, h = 9, 5
    x0 = rng.standard_normal((M, 2))
    b0 = rng.dirichlet(np.ones(3), size=M)
    us = rng.standard_normal((M, h, 1))
    lengths = np.array([5, 5, 4, 3, 3, 3, 2, 1, 1])
    full = _forecast_batch(m, x0, b0, us, "marginal", None, np.full(M, h))
    # actions past each row's window are NaN: never read, so nothing raises
    us[np.arange(h) >= lengths[:, None]] = np.nan
    got = _forecast_batch(m, x0, b0, us, "marginal", None, lengths)
    ran = np.arange(h) < lengths[:, None]
    assert np.array_equal(got[ran], full[ran])
    assert np.all(np.isnan(got[~ran]))
    # one step too many for the last two rows reaches their NaN actions
    with pytest.raises(ValueError, match="finite"):
        _forecast_batch(m, x0, b0, us, "marginal", None, np.r_[lengths[:-2], 2, 2])


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
                                  us, mode, None, np.full(len(starts), h))
            preds.append(out[:, -1])
            truths.append(traj.xs[starts - 1 + h])
        want.append(nmse(np.concatenate(preds), np.concatenate(truths), normalizer))
    return want


def _joint_sample_reference(m, trajs, horizons, normalizer, rng):
    """Sample-mode NMSE per horizon by the joint protocol, from per-start
    draws: each start t of each trajectory, in order, draws one path as long
    as the largest horizon with t + h <= T, scored at every horizon."""
    hs = sorted(set(horizons))
    preds = {h: [] for h in horizons}
    truths = {h: [] for h in horizons}
    for traj in trajs:
        starts = [s for s in range(1, traj.T) if s + hs[0] <= traj.T]
        if not starts:
            continue
        lengths = [max(h for h in hs if s + h <= traj.T) for s in starts]
        us = np.zeros((len(starts), hs[-1], traj.d_u))
        for r, (s, n) in enumerate(zip(starts, lengths)):
            us[r, :n] = traj.us[s - 1:s - 1 + n]
        idx = np.array(starts) - 1
        out = reference_sample_forecast(m, traj.xs[idx], filter_one(m, traj)[idx], us,
                                        rng, lengths)
        for h in horizons:
            rows = [r for r, s in enumerate(starts) if s + h <= traj.T]
            if rows:
                preds[h].append(out[rows, h - 1])
                truths[h].append(traj.xs[idx[rows] + h])
    return [nmse(np.concatenate(preds[h]), np.concatenate(truths[h]), normalizer)
            for h in horizons]


@pytest.mark.parametrize("mode", ["marginal", "sample"])
def test_evaluate_filters_each_trajectory_once(monkeypatch, mode):
    m = random_model(K=2, d_x=2, d_u=1, seed=10)
    trajs = [random_trajectory(m, T=T, seed=s)[0] for s, T in enumerate((25, 12, 30))]
    test = Dataset(trajs)
    horizons = [1, 5, 15]
    normalizer = dataset_normalizer(test)
    if mode == "sample":
        want = _joint_sample_reference(m, trajs, horizons, normalizer,
                                       np.random.default_rng(3))
    else:
        want = _per_horizon_reference(m, trajs, horizons, mode, normalizer)
    calls = []

    def counted(model, dataset):
        calls.append((id(model), dataset is test))
        return filter_all(model, dataset)

    monkeypatch.setattr(evaluation, "filter_all", counted)
    m2 = random_model(K=3, d_x=2, d_u=1, seed=11)
    report = evaluate({"m": [m], "m2": [m2]}, test, horizons, mode=mode,
                      rng=np.random.default_rng(3))
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
    assert [r["nmse"] for r in report.per_split] == want
    assert [r["mean"] for r in report.rows] == want


def test_evaluate_forecasts_each_trajectory_once_per_model(monkeypatch):
    m1, m2 = (random_model(K=2, d_x=2, d_u=1, seed=s) for s in (12, 13))
    m3 = random_model(K=3, d_x=2, d_u=1, seed=14)
    trajs = [random_trajectory(m1, T=T, seed=s)[0] for s, T in enumerate((20, 3, 11))]
    calls = []
    batch = evaluation._forecast_batch

    def counted(model, x0, *args, **kwargs):
        calls.append((id(model), len(x0)))
        return batch(model, x0, *args, **kwargs)

    monkeypatch.setattr(evaluation, "_forecast_batch", counted)
    evaluate({"a": [m1, m2], "b": [m3]}, Dataset(trajs), [8, 3, 5])
    # the T = 3 trajectory exceeds no horizon; the others forecast every
    # start t <= T - 3 in one call per model
    assert calls == [(id(m), n) for m in (m1, m2, m3) for n in (17, 8)]


def test_evaluate_errors():
    m = random_model(K=2, d_x=2, d_u=1, seed=9)
    test = random_dataset(m, n=2, T=10, seed=9)
    with pytest.raises(ValueError):
        evaluate({}, Dataset([]), horizons=[1])
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
