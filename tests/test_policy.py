import collections
import warnings

import numpy as np
import pytest

from rarhmm import envs, policy
from rarhmm.envs import default_config, env_dims, load_dataset
from rarhmm.evaluation import filter_all
from rarhmm.learning import FitConfig, fit_em
from rarhmm.model import (CLOSED_LOOP, Controllers, Dataset, Dynamics, HybridModel,
                          InitialModel, Trajectory, model_from_dict, model_to_dict)
from rarhmm.policy import (ACT_MODES, RolloutResult, _bayes_update, _belief_step,
                           _check_belief, _initial_belief, act, rollout, save_rollout,
                           success_criterion)
from rarhmm.transition import make_transition

from util import (EDGE_BELIEF, LastUniformRng, hanging_rollout, models_equal,
                  random_dataset, random_model, random_trajectory, reference_act,
                  reference_belief_step, reference_clip_control, reference_sample_trajectory,
                  reference_step_env)


def _closed_loop_model(gains, offsets=None, d_x=1, lag=0, init_mu=None,
                       dynamics_a=0.9, noise=1e-4):
    """Hand-built closed-loop model with one controller per row of `gains`."""
    K = len(gains)
    d_u = np.atleast_2d(gains[0]).shape[0]
    offsets = offsets if offsets is not None else [np.zeros(d_u)] * K
    controllers = Controllers(gain=[np.atleast_2d(g) for g in gains],
                              offset=[np.ravel(o) for o in offsets],
                              sigma_cov=np.tile(noise * np.eye(d_u), (K, 1, 1)),
                              lag=lag, poly_degree=1)
    dyn = Dynamics(A=np.tile(dynamics_a * np.eye(d_x), (K, 1, 1)),
                   B=np.full((K, d_x, d_u), 0.1), c=np.zeros((K, d_x)),
                   lam_cov=np.tile(0.01 * np.eye(d_x), (K, 1, 1)))
    mu = init_mu if init_mu is not None else np.zeros((K, d_x))
    init = InitialModel(pi=np.full(K, 1.0 / K), mu=np.asarray(mu, dtype=float),
                        omega_cov=np.stack([np.eye(d_x)] * K))
    return HybridModel(init=init, dynamics=dyn,
                       transition=make_transition("stationary", K, d_x, d_u),
                       controllers=controllers)


def test_distill_recovers_global_linear_law():
    # expert u = -K x with no noise; a 1-regime lag-0 fit is a least-squares
    # problem whose solution is the expert gain
    K_exp = np.array([[1.5, -0.7]])
    rng = np.random.default_rng(0)
    trajs = []
    for i in range(4):
        xs = rng.standard_normal((80, 2))
        us = xs @ -K_exp.T
        trajs.append(Trajectory(xs=xs, us=us, dt=0.05, id=f"d{i}"))
    model, _ = fit_em(Dataset(trajs),
                      FitConfig(K=1, mode=CLOSED_LOOP, lag=0, max_iters=5, restarts=1))
    np.testing.assert_allclose(model.controllers.gain[0], -K_exp, atol=1e-4)
    np.testing.assert_allclose(model.controllers.offset[0], 0.0, atol=1e-4)


def _models_close(a, b, atol=1e-6):
    pairs = [(a.init.pi, b.init.pi), (a.init.mu, b.init.mu),
             (a.transition.bias, b.transition.bias),
             (a.transition.feature_params, b.transition.feature_params)]
    pairs += [(getattr(a.dynamics, f), getattr(b.dynamics, f)) for f in ("A", "B", "c")]
    pairs += [(getattr(a.controllers, f), getattr(b.controllers, f))
              for f in ("gain", "offset")]
    return all(np.allclose(x, y, atol=atol) for x, y in pairs)


def test_distilled_model_rolls_out_as_its_reloaded_copy():
    # the fitted blocks are C-ordered like the reloaded ones, so the per-step
    # products round the same way in memory and after a save/load round trip
    gen = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear", seed=2, lag=1)
    model, _ = fit_em(random_dataset(gen, n=3, T=40, seed=2),
                      FitConfig(K=2, mode=CLOSED_LOOP, transition_kind="linear", lag=1,
                                max_iters=3, restarts=1))
    reloaded = model_from_dict(model_to_dict(model))
    for seed in range(3):
        a, b = (hanging_rollout(default_config("pendulum"), m, seed, T=100)
                for m in (model, reloaded))
        np.testing.assert_array_equal(a.trajectory.xs, b.trajectory.xs)
        np.testing.assert_array_equal(a.beliefs, b.beliefs)


def test_distill_duplicated_demos_identical():
    gen = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear",
                       seed=1, lag=1)
    demos = random_dataset(gen, n=3, T=30, seed=1)
    cfg = dict(K=2, mode=CLOSED_LOOP, transition_kind="linear", lag=1,
               max_iters=10, restarts=2, seed=0)
    a, history = fit_em(demos, FitConfig(**cfg))
    # same input, same seed: bit-exact
    again, again_history = fit_em(demos, FitConfig(**cfg))
    assert models_equal(a, again) and history.loglik == again_history.loglik
    # duplicated demos scale every sufficient statistic equally; only the
    # fixed least-squares ridge breaks exact invariance
    doubled = Dataset(list(demos.trajectories) * 2)
    b, _ = fit_em(doubled, FitConfig(**cfg))
    assert _models_close(a, b)


def test_act_rejects_open_loop_and_bad_inputs():
    m = random_model(K=2, d_x=2, d_u=1, seed=2)
    with pytest.raises(ValueError, match="closed-loop"):
        act(m, [0.5, 0.5], np.zeros(2), [])
    cm = _closed_loop_model([np.array([[1.0]]), np.array([[-1.0]])])
    with pytest.raises(ValueError, match="mode"):
        act(cm, [0.5, 0.5], np.zeros(1), [], mode="greedy")
    with pytest.raises(ValueError, match="simplex"):
        act(cm, [0.7, 0.7], np.zeros(1), [])
    with pytest.raises(ValueError, match="simplex"):
        act(cm, [1.0], np.zeros(1), [])
    with pytest.raises(ValueError, match="rng"):
        act(cm, [0.5, 0.5], np.zeros(1), [], mode="sample")


def test_act_checks_the_shape_of_the_past_controls():
    x, b = np.zeros(1), [0.5, 0.5]
    lag0 = _closed_loop_model([np.array([[1.0]]), np.array([[-1.0]])])
    for past in ([], np.zeros((0, 1))):
        np.testing.assert_array_equal(act(lag0, b, x, past)[0], [0.0])
    for past in ([np.zeros(1)], np.zeros((1, 1)), [0.0]):
        with pytest.raises(ValueError, match=r"past controls must be \(0, 1\)"):
            act(lag0, b, x, past)
    lag2 = _closed_loop_model([np.array([[1.0, 2.0, 3.0]])] * 2, lag=2)
    for past in ([np.array([1.0]), np.array([2.0])], np.array([[1.0], [2.0]])):
        np.testing.assert_array_equal(act(lag2, b, x, past)[0], [8.0])
    for past in ([], [np.zeros(1)], np.zeros((3, 1)), np.zeros((2, 2)), [0.0, 0.0]):
        with pytest.raises(ValueError, match=r"past controls must be \(2, 1\)"):
            act(lag2, b, x, past)


@pytest.mark.parametrize("lag", [0, 1])
def test_rollout_names_an_overflowing_step_without_runtime_warnings(lag):
    # the RK4 stages of the first step reach an infinite pole angle
    model = _closed_loop_model([np.zeros((1, 4 + lag))], d_x=4, lag=lag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite state at step 1$"):
            rollout(default_config("cartpole"), model, T=10, x0=[0.0, 0.0, 0.3, 1e100],
                    rng=np.random.default_rng(0))


def test_rollout_of_two_equal_regimes_names_an_overflowing_step():
    # both regimes give the huge first state the same log evidence, -5e199
    model = _closed_loop_model([np.zeros((1, 4))] * 2, d_x=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite state at step 1$"):
            rollout(default_config("cartpole"), model, x0=[0.0, 0.0, 0.3, 1e100])


@pytest.mark.parametrize("log_ev", [-5e199, -1e15, -1e11, 1e11, 1e15])
def test_bayes_update_normalizes_beyond_the_log_scale_precision(log_ev):
    # adding the shift rounds away log(2), or part of it, at these magnitudes
    b = _bayes_update(np.array([0.5, 0.5]), np.full(2, log_ev))
    assert np.array_equal(b, [0.5, 0.5])
    rng = np.random.default_rng(1)
    for _ in range(20):
        prior = rng.dirichlet(np.ones(4))
        b = _bayes_update(prior, log_ev + rng.uniform(-3.0, 3.0, 4))
        assert abs(b.sum() - 1.0) <= 1e-12


def test_bayes_update_is_the_log_scale_normalization_at_moderate_evidence():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e3, 1e6):
        for _ in range(50):
            prior = rng.dirichlet(np.ones(5))
            log_ev = scale * rng.standard_normal(5)
            lb = np.log(np.maximum(prior, 1e-300)) + log_ev
            want = np.exp(lb - (np.log(np.exp(lb - lb.max()).sum()) + lb.max()))
            assert np.array_equal(_bayes_update(prior, log_ev), want)


def test_act_samples_the_regime_a_forecast_samples():
    # zero gains: each regime's control is its offset, the regime index
    cm = _closed_loop_model([np.array([[0.0]])] * 3, offsets=[[0.0], [1.0], [2.0]])
    assert np.cumsum(_check_belief(cm, EDGE_BELIEF))[-1] <= np.nextafter(1.0, 0.0)
    u, k = act(cm, EDGE_BELIEF, np.zeros(1), [], mode="sample", rng=LastUniformRng())
    # the last regime with mass, as Generator.choice draws it
    assert k == 2 and u[0] == 2.0


def test_act_mean_blend_cancels():
    cm = _closed_loop_model([np.array([[1.0]]), np.array([[-1.0]])])
    u, k = act(cm, [0.5, 0.5], np.array([2.0]), [])
    np.testing.assert_allclose(u, [0.0], atol=1e-15)
    assert k == 0
    u, _ = act(cm, [1.0, 0.0], np.array([2.0]), [])
    np.testing.assert_allclose(u, [2.0])


def test_act_one_hot_mean_equals_argmax():
    cm = _closed_loop_model([np.array([[1.3]]), np.array([[-0.4]])])
    x = np.array([0.7])
    for b in ([1.0, 0.0], [0.0, 1.0]):
        um, km = act(cm, b, x, [], mode="mean")
        ua, ka = act(cm, b, x, [], mode="argmax")
        np.testing.assert_array_equal(um, ua)
        assert km == ka


def test_act_equal_gains_belief_independent():
    g = np.array([[0.8]])
    cm = _closed_loop_model([g, g, g])
    x = np.array([1.1])
    u1, _ = act(cm, [1.0, 0.0, 0.0], x, [])
    u2, _ = act(cm, [0.2, 0.3, 0.5], x, [])
    np.testing.assert_allclose(u1, u2, atol=1e-15)


def test_act_sample_mode_seeded():
    cm = _closed_loop_model([np.array([[1.0]]), np.array([[-1.0]])], noise=0.04)
    x = np.array([1.0])
    a = act(cm, [0.5, 0.5], x, [], mode="sample", rng=np.random.default_rng(3))
    b = act(cm, [0.5, 0.5], x, [], mode="sample", rng=np.random.default_rng(3))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]
    # the sampled regime follows the belief
    rng = np.random.default_rng(4)
    ks = [act(cm, [0.9, 0.1], x, [], mode="sample", rng=rng)[1]
          for _ in range(200)]
    assert 0.8 < np.mean(np.array(ks) == 0) < 1.0


def _pin_trajectory(cfg, joint_rows, T=50):
    xs = np.tile(np.asarray(joint_rows, dtype=float), (T, 1))
    return Trajectory(xs=xs, us=np.zeros((T, 1)), dt=cfg.dt, id="pin")


def test_success_criterion_examples():
    pend = default_config("pendulum")
    assert success_criterion(_pin_trajectory(pend, [0.0, 0.0]), pend)
    assert not success_criterion(_pin_trajectory(pend, [np.pi, 0.0]), pend)
    # closed thresholds
    assert success_criterion(_pin_trajectory(pend, [0.2, 1.0]), pend)
    assert not success_criterion(_pin_trajectory(pend, [0.2000001, 0.0]), pend)
    cart = default_config("cartpole")
    assert success_criterion(_pin_trajectory(cart, [0.0, 0.0, 0.1, 0.0]), cart)
    assert not success_criterion(_pin_trajectory(cart, [2.4, 0.0, 0.0, 0.0]), cart)
    ball = default_config("bouncing_ball")
    with pytest.raises(ValueError):
        success_criterion(_pin_trajectory(ball, [0.0, 0.0]), ball)


def test_success_criterion_trig_obs():
    pend = default_config("pendulum", obs="trig")
    up = _pin_trajectory(pend, [1.0, 0.0, 0.0])
    down = _pin_trajectory(pend, [-1.0, 0.0, 0.0])
    assert success_criterion(up, pend)
    assert not success_criterion(down, pend)
    # only the tail matters
    xs = np.vstack([np.tile([-1.0, 0.0, 0.0], (40, 1)),
                    np.tile([1.0, 0.0, 0.0], (10, 1))])
    mixed = Trajectory(xs=xs, us=np.zeros((50, 1)), dt=pend.dt, id="mix")
    assert success_criterion(mixed, pend)


def test_rollout_validates_dims_and_mode():
    pend = default_config("pendulum")
    wrong = _closed_loop_model([np.array([[1.0]])], d_x=1)
    with pytest.raises(ValueError, match="dims"):
        rollout(pend, wrong, x0=np.array([np.pi, 0.0]))
    ol = random_model(K=2, d_x=2, d_u=1, seed=5)
    with pytest.raises(ValueError, match="closed-loop"):
        rollout(pend, ol, T=10, x0=np.array([np.pi, 0.0]))


def test_rollout_steps_must_be_an_integer():
    # T = 3.0 used to fail inside numpy with a bare TypeError
    pend = default_config("pendulum")
    m = _closed_loop_model([np.array([[-30.0, -6.0]])], d_x=2)
    for T in (3.0, True, 1):
        with pytest.raises(ValueError, match=f"T must be an integer >= 2, got {T!r}$"):
            rollout(pend, m, T=T, x0=np.array([0.05, 0.0]))
    assert rollout(pend, m, T=np.int64(3), x0=np.array([0.05, 0.0])).trajectory.T == 3


def test_rollout_stabilizer_holds_upright():
    # every regime is the linear stabilizer; from near upright the closed
    # loop stays there
    pend = default_config("pendulum")
    m = _closed_loop_model([np.array([[-30.0, -6.0]])], d_x=2)
    res = rollout(pend, m, T=200, rng=np.random.default_rng(0),
                  x0=np.array([0.05, 0.0]))
    assert res.success
    assert np.max(np.abs(res.trajectory.xs[-20:, 0])) < 0.05


def test_rollout_zero_gain_fails_from_hanging():
    pend = default_config("pendulum")
    m = _closed_loop_model([np.array([[0.0, 0.0]])], d_x=2,
                           init_mu=[[np.pi, 0.0]])
    res = rollout(pend, m, T=200, rng=np.random.default_rng(0),
                  x0=np.array([np.pi, 0.0]))
    assert not res.success


def test_rollout_belief_rows_are_simplices():
    gen = random_model(K=3, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear",
                       seed=6, noise_scale=0.2)
    pend = default_config("pendulum")
    res = hanging_rollout(pend, gen, 1, T=80)
    np.testing.assert_allclose(res.beliefs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(res.beliefs >= 0)
    assert res.beliefs.shape == (80, 3)
    assert res.regimes.shape == (80,)


def test_rollout_deterministic_given_seed():
    gen = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear",
                       seed=7, noise_scale=0.2)
    pend = default_config("pendulum")
    a, b = (hanging_rollout(pend, gen, 2, T=60, mode="sample") for _ in range(2))
    np.testing.assert_array_equal(a.trajectory.xs, b.trajectory.xs)
    np.testing.assert_array_equal(a.trajectory.us, b.trajectory.us)
    np.testing.assert_array_equal(a.beliefs, b.beliefs)
    np.testing.assert_array_equal(a.regimes, b.regimes)
    assert a.success == b.success


def test_rollout_controls_are_clipped(monkeypatch):
    monkeypatch.setitem(envs._SYSTEMS, "pendulum",
                        dict(envs._SYSTEMS["pendulum"], limit=1.5))
    pend = default_config("pendulum")
    assert pend.limit == 1.5
    m = _closed_loop_model([np.array([[-300.0, -60.0]])], d_x=2)
    res = rollout(pend, m, T=50, rng=np.random.default_rng(0),
                  x0=np.array([1.0, 0.0]))
    assert np.max(np.abs(res.trajectory.us)) <= 1.5


def test_distillation_consistency_on_generated_demos():
    # demos come from a closed-loop switching model; the refit model's
    # mean-mode action sequence along held-out states matches the
    # generator's within 0.05 RMS (beliefs are each model's own filter)
    gen = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear",
                       seed=8, noise_scale=0.03)
    demos = random_dataset(gen, n=6, T=60, seed=80)
    fit, _ = fit_em(demos, FitConfig(K=2, mode=CLOSED_LOOP, transition_kind="linear",
                                     max_iters=60, restarts=3, seed=0))
    rng = np.random.default_rng(9)
    xs, us, _ = reference_sample_trajectory(gen, 60, rng)
    test = Trajectory(xs=xs, us=us, dt=1.0, id="held-out")
    diffs = []
    for model in (gen, fit):
        alpha = filter_all(model, Dataset([test]))[0]
        us = [act(model, alpha[t], test.xs[t], [], mode="mean")[0]
              for t in range(test.T)]
        diffs.append(np.array(us))
    rms = float(np.sqrt(np.mean((diffs[0] - diffs[1]) ** 2)))
    assert rms < 0.05


def test_save_rollout_round_trip(tmp_path):
    gen = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear",
                       seed=10, noise_scale=0.2)
    pend = default_config("pendulum")
    res = hanging_rollout(pend, gen, 3, T=30, traj_id="r0")
    tp, bp = tmp_path / "traj.ndjson", tmp_path / "belief.csv"
    save_rollout(res, tp, bp)
    back = load_dataset(tp)
    np.testing.assert_array_equal(back.trajectories[0].xs, res.trajectory.xs)
    np.testing.assert_array_equal(back.trajectories[0].us, res.trajectory.us)
    lines = bp.read_text().strip().split("\n")
    assert lines[0] == "t,b_1,b_2,regime"
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "1" and first[-1] in {"0", "1"}
    assert float(first[1]) == pytest.approx(res.beliefs[0, 0])


def test_act_modes_constant():
    assert ACT_MODES == ("mean", "argmax", "sample")
    assert isinstance(RolloutResult.__dataclass_fields__, dict)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("d_x", [2, 3])
@pytest.mark.parametrize("d_u", [1, 2])
def test_belief_step_matches_per_regime_reference(K, d_x, d_u):
    for seed in range(4):
        m = random_model(K=K, d_x=d_x, d_u=d_u, mode=CLOSED_LOOP, seed=seed,
                         noise_scale=0.3)
        rng = np.random.default_rng(100 + seed)
        b = rng.dirichlet(np.ones(K))
        x_prev, u_prev = rng.standard_normal(d_x), rng.standard_normal(d_u)
        x_next = x_prev + 0.5 * rng.standard_normal(d_x)
        np.testing.assert_array_equal(
            _belief_step(m, b, x_prev, u_prev, x_next),
            reference_belief_step(m, b, x_prev, u_prev, x_next))


@pytest.mark.parametrize("kind", ["stationary", "linear", "polynomial", "perceptron"])
def test_runtime_belief_agrees_with_the_forward_filter(kind):
    # open loop, the E-step evidence has no control term either, so the
    # runtime belief and the E-step's forward filter are one posterior,
    # computed in log space and on the linear scale
    beliefs, filtered = [], []
    for seed in range(20):
        m = random_model(K=4, d_x=2, d_u=1, kind=kind, seed=seed)
        traj = random_trajectory(m, T=80, seed=seed)[0]
        b = _initial_belief(m, traj.xs[0])
        beliefs.append(b)
        for t in range(1, traj.T):
            b = _belief_step(m, b, traj.xs[t - 1], traj.us[t - 1], traj.xs[t])
            beliefs.append(b)
        filtered.append(filter_all(m, Dataset([traj]))[0])
    beliefs, filtered = np.array(beliefs), np.concatenate(filtered)
    np.testing.assert_allclose(beliefs, filtered, rtol=0, atol=1e-12)
    # the beliefs blend regimes, so the comparison covers more than one-hot rows
    assert np.mean(beliefs.max(axis=1) < 0.99) > 0.1


def test_belief_step_raises_on_impossible_evidence():
    m = random_model(K=3, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=1)
    # every regime's density underflows to zero; only the normalizer check
    # may raise, not numpy
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="impossible evidence"):
        _belief_step(m, np.full(3, 1 / 3), np.zeros(2), np.zeros(1),
                     np.full(2, 1e200))


@pytest.mark.parametrize("K,lag,degree", [(1, 0, 1), (3, 2, 1), (3, 1, 2),
                                          (8, 1, 1)])
def test_act_matches_per_regime_loop(K, lag, degree):
    m = random_model(K=K, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=K + lag,
                     lag=lag, poly_degree=degree)
    rng = np.random.default_rng(7)
    for _ in range(20):
        b = rng.dirichlet(np.ones(K))
        x = 2.0 * rng.standard_normal(2)
        past = list(rng.standard_normal((lag, 1)))
        for mode in ("mean", "argmax"):
            u, k = act(m, b, x, past, mode=mode)
            u_ref, k_ref = reference_act(m, b, x, past, mode=mode)
            np.testing.assert_array_equal(u, u_ref)
            assert k == k_ref


@pytest.mark.parametrize("mode", ACT_MODES)
@pytest.mark.parametrize("env,obs", [("pendulum", "joint"), ("pendulum", "trig"),
                                     ("cartpole", "joint"), ("cartpole", "trig")])
def test_rollout_matches_per_regime_reference(monkeypatch, env, obs, mode):
    cfg = default_config(env, obs=obs)
    d_x, d_u = env_dims(cfg)
    gen = random_model(K=3, d_x=d_x, d_u=d_u, mode=CLOSED_LOOP, kind="linear",
                       seed=6, lag=1, noise_scale=0.5)
    T = 200
    fast = hanging_rollout(cfg, gen, 4, T=T, mode=mode)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(policy, "_belief_step", counted("belief", reference_belief_step))
    monkeypatch.setattr(policy, "act", counted("act", reference_act))
    monkeypatch.setattr(policy, "step_env", counted("step", reference_step_env))
    monkeypatch.setattr(policy, "clip_control", reference_clip_control)
    ref = hanging_rollout(cfg, gen, 4, T=T, mode=mode)
    assert calls == {"belief": T - 1, "act": T, "step": T - 1}
    np.testing.assert_array_equal(fast.trajectory.xs, ref.trajectory.xs)
    np.testing.assert_array_equal(fast.trajectory.us, ref.trajectory.us)
    np.testing.assert_array_equal(fast.beliefs, ref.beliefs)
    np.testing.assert_array_equal(fast.regimes, ref.regimes)
    # the beliefs blend regimes, so the comparison covers more than one law
    assert np.mean(fast.beliefs.max(axis=1) < 0.99) > 0.1


def test_initial_belief_raises_on_impossible_state():
    m = random_model(K=3, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=1)
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="impossible evidence"):
        _initial_belief(m, np.full(2, 1e200))


@pytest.mark.parametrize("belief,mode", [([np.nan] * 3, "mean"),
                                         ([np.nan, 0.5, 0.5], "argmax"),
                                         ([np.inf, 0.0, 0.0], "mean")])
def test_act_rejects_non_finite_beliefs(belief, mode):
    cm = _closed_loop_model([np.array([[1.0]]), np.array([[-1.0]]), np.array([[0.5]])])
    with pytest.raises(ValueError, match="simplex"):
        act(cm, belief, np.zeros(1), [], mode=mode)
