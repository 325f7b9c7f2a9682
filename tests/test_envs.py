import itertools
import json
import re
import warnings

import numpy as np
import pytest

from rarhmm import envs
from rarhmm.envs import (CAPTURE_ANGLE, CART_CAPTURE_VEL, ENV_BOUNCING_BALL, ENV_CARTPOLE,
                         EXPLORE_HOLD,
                         ENV_PENDULUM, ENVS, OBS_JOINT, OBS_MODES, OBS_TRIG,
                         PEND_CAPTURE_VEL, EnvConfig, _pole_energy,
                         clip_control,
                         collect_demonstrations, collect_trajectories,
                         default_config, env_dims, expert_policy,
                         expert_swingup, explore_policy, hanging_state,
                         initial_state, load_dataset,
                         load_manifest, make_splits, observe, pole_state,
                         save_dataset, save_manifest,
                         select_split, simulate, step_env, wrap_angle)
from rarhmm.model import Dataset, Trajectory

from util import (ball_rest_state, reference_expert_swingup, reference_observe,
                  reference_observe_joint, reference_simulate, reference_step_env)


def _upright_tail_ok(traj, angle_idx, vel_idx, check_cart=False):
    tail = slice(int(0.8 * len(traj.xs)), None)
    ok = (np.all(np.abs(traj.xs[tail, angle_idx]) <= 0.2)
          and np.all(np.abs(traj.xs[tail, vel_idx]) <= 1.0))
    if check_cart:
        ok = ok and np.all(np.abs(traj.xs[tail, 0]) < 2.4)
    return bool(ok)


def test_config_validation():
    with pytest.raises(ValueError, match="env must be one of"):
        default_config("hopper")
    with pytest.raises(ValueError, match="env must be one of"):
        EnvConfig(env="hopper")
    with pytest.raises(ValueError, match="obs must be one of"):
        EnvConfig(env=ENV_PENDULUM, obs="polar")
    with pytest.raises(ValueError, match="obs must be one of"):
        default_config(ENV_PENDULUM, obs="polar")


# each system's constants as the benchmark configurations set them; NaN
# where the system has no such constant
_CONSTANTS = {
    ENV_BOUNCING_BALL: dict(dt=0.05, horizon=600, gravity=9.81, restitution=0.8),
    ENV_PENDULUM: dict(dt=0.01, horizon=250, gravity=9.81, mass=1.0, length=1.0,
                       damping=0.1, limit=2.5),
    ENV_CARTPOLE: dict(dt=0.01, horizon=250, gravity=9.81, mass=0.1, length=0.5,
                       cart_mass=1.0, damping=0.0, limit=5.0),
}
_PHYSICS = ("dt", "horizon", "gravity", "mass", "length", "cart_mass", "damping",
            "restitution", "limit")


@pytest.mark.parametrize("env", ENVS)
def test_each_system_reads_its_constants_and_none_is_settable(env):
    for cfg in (EnvConfig(env), EnvConfig(env, OBS_TRIG, 3), default_config(env, seed=5)):
        got = {name: getattr(cfg, name) for name in _PHYSICS}
        want = dict.fromkeys(_PHYSICS, np.nan) | _CONSTANTS[env]
        assert got.keys() == want.keys()
        for name in _PHYSICS:
            assert got[name] == want[name] or np.isnan([got[name], want[name]]).all(), name
        assert type(cfg.horizon) is int
    for name in _PHYSICS:
        with pytest.raises(TypeError, match=name):
            EnvConfig(env, **{name: 1.0})
        with pytest.raises(TypeError, match=name):
            default_config(env, **{name: 1.0})


def test_default_rates_and_dims():
    ball = default_config(ENV_BOUNCING_BALL)
    assert ball.dt == 0.05 and ball.horizon == 600
    assert env_dims(ball) == (2, 0)
    pend = default_config(ENV_PENDULUM)
    assert pend.dt == 0.01 and pend.horizon == 250
    assert env_dims(pend) == (2, 1)
    assert env_dims(default_config(ENV_PENDULUM, obs="trig")) == (3, 1)
    cart = default_config(ENV_CARTPOLE)
    assert cart.dt == 0.01 and cart.horizon == 250 and cart.limit == 5.0
    assert env_dims(cart) == (4, 1)
    assert env_dims(default_config(ENV_CARTPOLE, obs="trig")) == (5, 1)


def test_ball_drop_impact_timing_and_restitution():
    cfg = default_config(ENV_BOUNCING_BALL)
    traj = simulate(cfg, x0=np.array([1.0, 0.0]), T=200)
    v = traj.xs[:, 1]
    impacts = np.where((v[1:] >= 0) & (v[:-1] < 0))[0] + 1
    t_first = impacts[0] * cfg.dt
    assert abs(t_first - np.sqrt(2.0 / 9.81)) <= 2 * cfg.dt
    tol = 2.0 * cfg.gravity * cfg.dt
    for i in impacts:
        pre, post = -v[i - 1], v[i]
        assert abs(post / pre - cfg.restitution) <= tol


def test_ball_height_nonnegative():
    cfg = default_config(ENV_BOUNCING_BALL)
    for s in range(5):
        traj = simulate(cfg, x0=initial_state(cfg, np.random.default_rng(s)), id=f"b{s}")
        assert traj.xs[:, 0].min() >= 0.0


def test_ball_settles_at_impact_fixed_point():
    # sub-step bounces cannot be resolved at the sampling rate; the per-step
    # gravity loss in the reflection kills them, parking the ball at the
    # impact map's fixed point instead of chattering forever
    cfg = default_config(ENV_BOUNCING_BALL)
    fp = ball_rest_state(cfg)
    assert fp[0] > 0.0 > fp[1]
    traj = simulate(cfg, x0=np.array([1.0, 0.0]), T=600)
    d = np.abs(traj.xs - fp).max(axis=1)
    assert d[-1] < 1e-12
    settle = int(np.where(d > 1e-9)[0][-1]) + 1
    assert settle < 200                  # rest occupies most of the 30 s
    assert np.all(d[settle:] < 1e-9)     # and is never left again


def test_ball_fixed_point_is_exact():
    cfg = default_config(ENV_BOUNCING_BALL)
    s = ball_rest_state(cfg)
    nxt = step_env(cfg, s, np.zeros(0))
    np.testing.assert_allclose(nxt, s, rtol=0.0, atol=1e-15)
    for _ in range(500):
        s = step_env(cfg, s, np.zeros(0))
    np.testing.assert_allclose(s, ball_rest_state(cfg), rtol=0.0, atol=1e-12)


def _frictionless_pendulum(monkeypatch):
    monkeypatch.setitem(envs._SYSTEMS, ENV_PENDULUM,
                        dict(envs._SYSTEMS[ENV_PENDULUM], damping=0.0))
    cfg = default_config(ENV_PENDULUM)
    assert cfg.damping == 0.0
    return cfg


def test_pendulum_hanging_equilibrium(monkeypatch):
    cfg = _frictionless_pendulum(monkeypatch)
    traj = simulate(cfg, x0=np.array([np.pi, 0.0]), T=100)
    assert np.all(traj.xs[:, 1] == 0.0) or np.abs(traj.xs[:, 1]).max() < 1e-12
    np.testing.assert_allclose(np.abs(traj.xs[:, 0]), np.pi, atol=1e-12)


def test_cartpole_upright_equilibrium():
    cfg = default_config(ENV_CARTPOLE)
    traj = simulate(cfg, x0=np.zeros(4), T=100)
    assert np.abs(traj.xs).max() == 0.0


def test_pendulum_energy_drift(monkeypatch):
    cfg = _frictionless_pendulum(monkeypatch)
    state = np.array([2.0, 0.0])
    e0 = _pole_energy(cfg, 1.0, *state)
    for _ in range(250):
        state = step_env(cfg, state, np.zeros(1))
    assert abs(_pole_energy(cfg, 1.0, *state) - e0) / abs(e0) < 1e-4


@pytest.mark.parametrize("env", [ENV_PENDULUM, ENV_CARTPOLE, ENV_BOUNCING_BALL])
def test_step_env_matches_array_rk4(env):
    cfg = default_config(env)
    rng = np.random.default_rng(3)
    d = 4 if env == ENV_CARTPOLE else 2
    for scale in (1.0, 10.0):
        states = scale * rng.standard_normal((2000, d))
        us = scale * rng.standard_normal((2000, 1))
        for state, u in zip(states, us):
            np.testing.assert_array_equal(step_env(cfg, state, u),
                                          reference_step_env(cfg, state, u))
    # a zero-width control counts as zero force
    np.testing.assert_array_equal(step_env(cfg, states[0], np.zeros(0)),
                                  reference_step_env(cfg, states[0], np.zeros(1)))


def test_clip_control_matches_np_clip():
    cfg = default_config(ENV_PENDULUM)
    lim = cfg.limit
    for v in (-np.inf, -lim - 1e-9, -lim, -1.0, -0.0, 0.0, 0.5, lim, lim + 3.0, np.inf):
        got = clip_control(cfg, np.array([v]))
        want = np.clip(np.array([v]), -lim, lim)
        assert got.shape == (1,) and got.dtype == float
        assert got[0] == want[0] and np.signbit(got[0]) == np.signbit(want[0])
    assert np.isnan(clip_control(cfg, np.array([np.nan]))[0])
    assert clip_control(cfg, 7.0)[0] == lim
    with pytest.raises(ValueError):
        clip_control(cfg, np.zeros(2))
    ball = clip_control(default_config(ENV_BOUNCING_BALL), np.zeros(0))
    assert ball.shape == (0,)


def test_wrap_and_observe():
    assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert wrap_angle(-3 * np.pi / 2) == pytest.approx(np.pi / 2)
    cfg = default_config(ENV_PENDULUM)
    np.testing.assert_allclose(observe(cfg, np.array([np.pi + 0.1, 2.0])),
                               [-np.pi + 0.1, 2.0])
    tcfg = default_config(ENV_PENDULUM, obs="trig")
    np.testing.assert_allclose(observe(tcfg, np.array([0.0, 2.0])), [1.0, 0.0, 2.0])
    np.testing.assert_allclose(observe(tcfg, np.array([-3 * np.pi / 2, 0.0])),
                               [0.0, 1.0, 0.0], atol=1e-15)
    ccfg = default_config(ENV_CARTPOLE, obs="trig")
    got = observe(ccfg, np.array([0.5, -0.2, np.pi / 2, 1.0]))
    np.testing.assert_allclose(got, [0.5, -0.2, 0.0, 1.0, 1.0], atol=1e-15)


def _observe_cases():
    """Single states and a batch per env: angles at and around +-pi and
    beyond 2 pi, with random angles, velocities and cart positions."""
    rng = np.random.default_rng(11)
    angles = [np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
              2 * np.pi + 0.3, -2 * np.pi - 0.3, 7 * np.pi, 1e6, 0.0, -0.0]
    for env in ENVS:
        d = 2 if env != ENV_CARTPOLE else 4
        i = 0 if env == ENV_PENDULUM else 2 if env == ENV_CARTPOLE else None
        batch = rng.uniform(-10.0, 10.0, (500, d))
        singles = []
        for th in angles:
            state = rng.uniform(-3.0, 3.0, d)
            if i is not None:
                state[i] = th
            singles.append(state)
        if i is not None:
            batch[:len(angles), i] = angles
        yield env, singles + [batch, batch.reshape(25, 20, d)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("env,states", list(_observe_cases()), ids=ENVS)
def test_observe_equals_the_joint_and_configured_references(env, states):
    for obs in OBS_MODES:
        cfg = default_config(env, obs=obs)
        other = OBS_TRIG if obs == OBS_JOINT else OBS_JOINT
        for state in states:
            want = reference_observe(cfg, state)
            assert _same_bits(observe(cfg, state), want)
            assert _same_bits(observe(cfg, state, obs), want)
            assert _same_bits(observe(cfg, state, OBS_JOINT), reference_observe_joint(cfg, state))
            assert _same_bits(observe(cfg, state, other),
                              reference_observe(default_config(env, obs=other), state))
    with pytest.raises(ValueError, match="obs must be one of"):
        observe(default_config(env), states[0], "polar")


@pytest.mark.parametrize("env", [ENV_PENDULUM, ENV_CARTPOLE])
def test_pole_state_inverts_observe(env):
    rng = np.random.default_rng(3)
    d = 2 if env == ENV_PENDULUM else 4
    i = 0 if env == ENV_PENDULUM else 2
    states = rng.uniform(-3.0, 3.0, (200, d))
    for obs in OBS_MODES:
        cfg = default_config(env, obs=obs)
        th, om = pole_state(cfg, observe(cfg, states))
        np.testing.assert_allclose(th, states[:, i], rtol=0, atol=1e-13)
        assert np.array_equal(om, states[:, i + 1])
        one = pole_state(cfg, observe(cfg, states[0]))
        assert np.array_equal(one, (th[0], om[0]))
    with pytest.raises(ValueError, match="no pole"):
        pole_state(default_config(ENV_BOUNCING_BALL), np.zeros((3, 2)))


def test_trig_consistency_on_rollouts():
    cfg = default_config(ENV_PENDULUM, obs="trig")
    rng = np.random.default_rng(0)
    traj = simulate(cfg, explore_policy(cfg, rng), x0=initial_state(cfg, rng))
    r = traj.xs[:, 0] ** 2 + traj.xs[:, 1] ** 2
    np.testing.assert_allclose(r, 1.0, atol=1e-12)


def test_explore_policy_bounds_hold_and_determinism():
    cfg = default_config(ENV_PENDULUM)
    n = 4 * EXPLORE_HOLD
    pol = explore_policy(cfg, np.random.default_rng(3))
    us = np.array([pol(None, t) for t in range(n)])
    assert np.all(np.abs(us) <= cfg.limit)
    for b in range(0, n, EXPLORE_HOLD):
        assert np.ptp(us[b:b + EXPLORE_HOLD]) == 0.0
    assert np.ptp(us[::EXPLORE_HOLD]) > 0.0
    pol2 = explore_policy(cfg, np.random.default_rng(3))
    us2 = np.array([pol2(None, t) for t in range(n)])
    np.testing.assert_array_equal(us, us2)


def test_expert_zero_at_upright_and_kick_at_hanging():
    for env in (ENV_PENDULUM, ENV_CARTPOLE):
        cfg = default_config(env)
        zero = np.zeros(2 if env == ENV_PENDULUM else 4)
        assert np.abs(expert_swingup(cfg, zero)).max() < 1e-6
    pcfg = default_config(ENV_PENDULUM)
    kick = expert_swingup(pcfg, np.array([np.pi, 0.0]))
    # documented tie-break: missing energy at zero velocity pushes positive
    assert kick[0] > 0.0
    with pytest.raises(ValueError):
        expert_swingup(default_config(ENV_BOUNCING_BALL), np.zeros(2))


def test_pendulum_expert_admission():
    cfg = default_config(ENV_PENDULUM)
    wins = 0
    for i in range(100):
        traj = simulate(cfg, expert_policy(cfg), T=1000,
                        x0=initial_state(cfg, np.random.default_rng((0, i))))
        wins += _upright_tail_ok(traj, 0, 1)
    assert wins >= 95


def test_cartpole_expert_smoke():
    cfg = default_config(ENV_CARTPOLE)
    wins = 0
    for i in range(20):
        traj = simulate(cfg, expert_policy(cfg), T=1000,
                        x0=initial_state(cfg, np.random.default_rng((0, i))))
        wins += _upright_tail_ok(traj, 2, 3, check_cart=True)
    assert wins >= 18


def test_simulate_determinism():
    cfg = default_config(ENV_CARTPOLE)
    a, b = (simulate(cfg, explore_policy(cfg, np.random.default_rng(7)),
                     x0=initial_state(cfg, np.random.default_rng(7))) for _ in range(2))
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.us, b.us)


def test_step_counts_must_be_integers():
    # a float count used to be cut silently, T = 5.9 to 5 steps
    cfg = default_config(ENV_PENDULUM)
    x0 = np.array([np.pi, 0.0])
    for T in (5.9, 5.0, True, "5", 0):
        with pytest.raises(ValueError, match=f"T must be an integer >= 1, got {re.escape(repr(T))}$"):
            simulate(cfg, None, T=T, x0=x0)
    for collect in (collect_trajectories, collect_demonstrations):
        with pytest.raises(ValueError, match="T must be an integer >= 1, got 5.9$"):
            collect(cfg, 1, 0, T=5.9)
    assert simulate(cfg, None, T=np.int64(5), x0=x0).T == 5


def test_nonfinite_state_aborts_with_step_index():
    cfg = default_config(ENV_PENDULUM)
    with pytest.raises(FloatingPointError, match="step 0"):
        simulate(cfg, x0=np.array([np.nan, 0.0]), T=10)


# the ball has no actuator: no expert, and no exploration, whose actions the
# limit bounds (the ball's is NaN); the library collects it under no input
_SIM_CASES = [(env, obs, kind) for env in ENVS for obs in OBS_MODES
              for kind in ("none", "recorded", "explore", "expert")
              if not (kind in ("explore", "expert") and env == ENV_BOUNCING_BALL)]


@pytest.mark.parametrize("env,obs,kind", _SIM_CASES)
def test_simulate_equals_the_reference_loop(env, obs, kind):
    cfg = default_config(env, obs=obs)
    T = 400

    def run(sim, expert):
        rng = np.random.default_rng(5)
        policy = expert if kind == "expert" else None
        if kind == "recorded":      # a third of the inputs lie beyond the limit
            recorded = 1.5 * cfg.limit * rng.uniform(-1.0, 1.0, (T + 3, env_dims(cfg)[1]))
            policy = lambda _x, t: recorded[t]
        elif kind == "explore":
            policy = explore_policy(cfg, rng)
        return sim(cfg, policy, T=T, x0=initial_state(cfg, rng))

    got = run(simulate, expert_policy(cfg) if kind == "expert" else None)
    want = run(reference_simulate, lambda x, _t: reference_expert_swingup(cfg, x))
    assert np.array_equal(got.xs, want.xs) and np.array_equal(got.us, want.us)


@pytest.mark.parametrize("env", ENVS)
@pytest.mark.parametrize("obs", OBS_MODES)
def test_collected_data_equal_the_reference_loop(monkeypatch, env, obs):
    cfg = default_config(env, obs=obs, seed=4)

    def collect():
        trajs = collect_trajectories(cfg, 3, seed=1, T=300)
        if env != ENV_BOUNCING_BALL:
            trajs += collect_demonstrations(cfg, 2, seed=2, T=600)
        return trajs

    got = collect()
    monkeypatch.setattr(envs, "simulate", reference_simulate)
    monkeypatch.setattr(envs, "expert_swingup", reference_expert_swingup)
    want = collect()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.id == b.id
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)


@pytest.mark.parametrize("env,x0,nan_at,step", [
    (ENV_PENDULUM, [np.pi, 0.0], 7, 8),            # a NaN control poisons the next state
    (ENV_CARTPOLE, [0.0, 0.0, 0.3, 1e155], None, 1),  # om * om overflows
    (ENV_BOUNCING_BALL, [1.7e308, 1e307], None, 20),  # the height overflows
    (ENV_BOUNCING_BALL, [np.inf, 0.0], None, 0),
])
def test_nonfinite_abort_names_the_reference_step(env, x0, nan_at, step):
    cfg = default_config(env)
    policy = None
    if nan_at is not None:
        def policy(_x, t):
            return np.array([np.nan if t == nan_at else 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # the library's step raises no RuntimeWarning
        with pytest.raises(FloatingPointError, match=f"step {step}$"):
            simulate(cfg, policy, T=50, x0=np.array(x0))
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match=f"step {step}$"):
            reference_simulate(cfg, policy, T=50, x0=np.array(x0))


def test_expert_equals_the_array_law_on_edge_states():
    def around(*values):
        return [v for b in values for v in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))]

    # the capture boundary before and after the wrap, the +-pi seam, the
    # omega = 0 tie-break of the pump direction
    angles = around(CAPTURE_ANGLE, -CAPTURE_ANGLE, 2 * np.pi - CAPTURE_ANGLE,
                    np.pi, -np.pi, 3 * np.pi, 0.0, 1.0)
    for env, cap_vel in ((ENV_PENDULUM, PEND_CAPTURE_VEL), (ENV_CARTPOLE, CART_CAPTURE_VEL)):
        cfg = default_config(env)
        vels = around(0.0, -0.0, cap_vel, -cap_vel, 3.0)
        carts = [[]] if env == ENV_PENDULUM else [[0.0, 0.0], [0.7, -1.3]]
        for cart, th, om in itertools.product(carts, angles, vels):
            state = np.array(cart + [th, om])
            got = expert_swingup(cfg, state)
            want = reference_expert_swingup(cfg, state)
            assert np.array_equal(got, want), (env, state)
            assert np.signbit(got) == np.signbit(want), (env, state)


def test_recorded_inputs_are_clipped_and_replayed():
    cfg = default_config(ENV_PENDULUM)
    recorded = np.linspace(-5, 5, 20)[:, None]
    traj = simulate(cfg, lambda _x, t: recorded[t], T=20, x0=np.array([np.pi, 0.0]))
    np.testing.assert_array_equal(traj.us, np.clip(recorded, -2.5, 2.5))


def test_dataset_roundtrip_exact(tmp_path):
    cfg = default_config(ENV_PENDULUM)
    trajs = collect_trajectories(cfg, 3, seed=1, T=25)
    path = tmp_path / "data.ndjson"
    save_dataset(path, trajs)
    back = load_dataset(path)
    assert len(back) == 3
    for a, b in zip(trajs, back.trajectories):
        assert a.id == b.id and a.dt == b.dt
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.us, b.us)


def test_ball_dataset_roundtrip_zero_width_controls(tmp_path):
    cfg = default_config(ENV_BOUNCING_BALL)
    trajs = collect_trajectories(cfg, 2, seed=0, T=40)
    assert trajs[0].us.shape == (40, 0)
    path = tmp_path / "ball.ndjson"
    save_dataset(path, trajs)
    back = load_dataset(path)
    assert back.d_u == 0 and back.trajectories[0].us.shape == (40, 0)
    np.testing.assert_array_equal(back.trajectories[0].xs, trajs[0].xs)


def test_load_dataset_errors(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    with pytest.raises(ValueError, match="no trajectories"):
        load_dataset(empty)
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"id": "x", "dt": 0.1, "xs": [[0], [1]], "us": [[0], [0]]}\n'
                   'not json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(bad)


def test_make_splits_protocol():
    splits = make_splits(25, 24, 10, seed=0)
    assert len(splits) == 24
    for s in splits:
        assert len(s) == 10 and len(set(s)) == 10
        assert all(0 <= i < 25 for i in s)
    assert splits == make_splits(25, 24, 10, seed=0)
    assert splits != make_splits(25, 24, 10, seed=1)
    with pytest.raises(ValueError):
        make_splits(5, 24, 10, seed=0)


def test_manifest_and_split_selection(tmp_path):
    cfg = default_config(ENV_PENDULUM)
    trajs = collect_trajectories(cfg, 5, seed=2, T=10)
    ds = Dataset(trajs)
    ids = [[trajs[0].id, trajs[3].id], [trajs[4].id, trajs[1].id]]
    path = tmp_path / "splits.json"
    save_manifest(path, ids)
    assert load_manifest(path) == ids
    sub = select_split(ds, ids[1])
    assert [t.id for t in sub.trajectories] == ids[1]
    with pytest.raises(ValueError, match="not in dataset"):
        select_split(ds, ["missing-id"])


def test_select_split_rejects_duplicate_ids():
    cfg = default_config(ENV_PENDULUM)
    a, b = collect_trajectories(cfg, 2, seed=2, T=10)
    twice = Dataset([a, Trajectory(xs=b.xs, us=b.us, dt=b.dt, id=a.id)])
    with pytest.raises(ValueError, match=re.escape(f"dataset holds ids more than once: ['{a.id}']")):
        select_split(twice, [a.id])
    ds = Dataset([a, b])
    with pytest.raises(ValueError, match=re.escape(f"split holds ids more than once: ['{a.id}']")):
        select_split(ds, [a.id, b.id, a.id])


def test_collect_trajectories_seeding():
    cfg = default_config(ENV_PENDULUM)
    a = collect_trajectories(cfg, 3, seed=5, T=15)
    b = collect_trajectories(cfg, 3, seed=5, T=15)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.xs, y.xs)
    ids = [t.id for t in a]
    assert len(set(ids)) == 3
    c = collect_trajectories(cfg, 3, seed=6, T=15)
    assert not np.array_equal(a[0].xs, c[0].xs)


def test_collect_demonstrations_end_upright():
    cfg = default_config(ENV_PENDULUM)
    demos = collect_demonstrations(cfg, 3, seed=0, T=1000)
    for d in demos:
        assert _upright_tail_ok(d, 0, 1)


@pytest.mark.parametrize("env", ENVS)
def test_collected_episodes_start_from_the_first_draw_of_their_generator(env):
    cfg = default_config(env, seed=2)
    cases = [(False, initial_state)]
    if env != ENV_BOUNCING_BALL:
        cases.append((True, hanging_state))
    for expert, start in cases:
        trajs = collect_trajectories(cfg, 3, seed=4, T=5, expert=expert)
        for i, traj in enumerate(trajs):
            x0 = start(cfg, np.random.default_rng((2, 4, i)))
            assert np.array_equal(traj.xs[0], observe(cfg, x0))


def test_the_ball_has_no_hanging_start_and_no_demonstrations():
    ball = default_config(ENV_BOUNCING_BALL)
    with pytest.raises(ValueError, match="no pole"):
        hanging_state(ball, np.random.default_rng(0))
    with pytest.raises(ValueError, match="no scripted expert for env 'bouncing_ball'"):
        collect_demonstrations(ball, 2, seed=0)


def test_the_ball_has_no_exploration_policy():
    # the ball's limit is NaN, so the policy used to fail at its first call
    # with numpy's "high - low range exceeds valid bounds"
    ball = default_config(ENV_BOUNCING_BALL)
    with pytest.raises(ValueError, match="the bouncing ball has no actuator"):
        explore_policy(ball, np.random.default_rng(0))
    # collection runs the ball under no input, as before
    assert collect_trajectories(ball, 1, seed=0, T=5)[0].d_u == 0


_GOOD_RECORD = {"id": "a", "dt": 0.1, "xs": [[0.0], [1.0]], "us": [[0.0], [0.0]]}


@pytest.mark.parametrize("record,match", [
    ({k: v for k, v in _GOOD_RECORD.items() if k != "us"}, "lacks field 'us'"),
    ({k: v for k, v in _GOOD_RECORD.items() if k != "dt"}, "lacks field 'dt'"),
    ([1, 2], "JSON object, got list"),
    ("text", "JSON object, got str"),
    ({**_GOOD_RECORD, "dt": None}, "line 2"),
    ({**_GOOD_RECORD, "xs": [[0.0], [1.0, 2.0]]}, "line 2"),
    ({**_GOOD_RECORD, "xs": 3.0}, "line 2"),
    ({**_GOOD_RECORD, "us": [[0.0], [0.0], [0.0]]}, "line 2"),
    # a flat list holds one control per step, not T * d_u entries
    ({**_GOOD_RECORD, "us": [0.0, 0.0, 0.0, 0.0]}, "2 scalars, got shape"),
    ({**_GOOD_RECORD, "us": [[[0.0]], [[0.0]]]}, "2 rows of controls"),
    # states must be rows: neither one scalar per step nor a deeper array
    ({**_GOOD_RECORD, "xs": [0.0, 1.0]}, r"xs must hold \(T, d_x\) states, got shape \(2,\)"),
    ({**_GOOD_RECORD, "xs": [[[0.0], [1.0]], [[0.0], [1.0]]]},
     r"xs must hold \(T, d_x\) states, got shape \(2, 2, 1\)"),
])
def test_load_dataset_rejects_malformed_records(tmp_path, record, match):
    path = tmp_path / "data.ndjson"
    path.write_text(json.dumps(_GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=match) as ei:
        load_dataset(path)
    assert re.search(re.escape(str(path)) + ": line 2", str(ei.value))


def test_load_dataset_reads_flat_scalar_controls(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text(json.dumps({**_GOOD_RECORD, "us": [0.5, -1.0]}) + "\n")
    traj = load_dataset(path).trajectories[0]
    np.testing.assert_array_equal(traj.us, [[0.5], [-1.0]])


@pytest.mark.parametrize("doc", [{}, [], {"splits": 3}, {"splits": [1, 2]},
                                 {"other": [["a"]]}])
def test_load_manifest_rejects_malformed_documents(tmp_path, doc):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="'splits'"):
        load_manifest(path)


@pytest.mark.parametrize("splits, message", [
    ([], "manifest 'splits' holds no split"),
    ([[]], "manifest split 0 must be a non-empty list of string ids"),
    ([["a"], [["a"]]], "manifest split 1 must be a non-empty list of string ids"),
    ([["a", {"x": 1}]], "manifest split 0 must be a non-empty list of string ids"),
    ([["a"], ["b"], [3]], "manifest split 2 must be a non-empty list of string ids")])
def test_load_manifest_names_the_bad_split(tmp_path, splits, message):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps({"splits": splits}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_manifest(path)
