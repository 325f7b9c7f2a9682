"""Deterministic, seeded simulators for three benchmark systems.

Bouncing ball (20 Hz): piecewise-affine single-step map. Flight advances with
the exact ballistic solution, which is affine in (height, velocity); when the
predicted height goes negative the step instead reflects the penetration and
the contact velocity by the restitution, with gravity still acting over the
step. Bounces shorter than a step cannot be resolved at the sampling rate;
the per-step gravity loss makes them die out, so a decayed ball parks at the
impact map's fixed point just above the ground instead of chattering forever.

Pendulum and cart-pole (100 Hz): 4th-order Runge-Kutta with zero-order-hold
controls clipped to the actuation limit. Angle convention: 0 is upright for
both systems, so the stable hanging equilibrium sits at the +-pi wrap
boundary of the joint observation space.

Each system is named, not configured: its physical and timing constants are
stated once, in _SYSTEMS, and an EnvConfig holds only the system, the
observation mode and the seed. Every episode starts where its caller puts
it: simulate takes the initial state x0, and collect_trajectories draws it
(initial_state for identification, hanging_state for demonstrations).

Every system steps through one float-level step (_step) on Python floats,
with numpy taking only the sines and cosines; simulate forms a trajectory's
observations once, from all of its internal states.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._linalg import is_integer
from .model import Dataset, Trajectory

ENV_BOUNCING_BALL = "bouncing_ball"
ENV_PENDULUM = "pendulum"
ENV_CARTPOLE = "cartpole"
ENVS = (ENV_BOUNCING_BALL, ENV_PENDULUM, ENV_CARTPOLE)

OBS_JOINT = "joint"
OBS_TRIG = "trig"
OBS_MODES = (OBS_JOINT, OBS_TRIG)

EXPLORE_HOLD = 25   # steps each random exploration action is held

# expert gains, hand-tuned against the admission test in the test suite
CAPTURE_ANGLE = 0.35
PEND_CAPTURE_VEL = 2.4
PEND_PUMP_GAIN = 1.0
PEND_PUMP_MARGIN = 1.2                    # extra target energy offsetting damping
PEND_STAB_GAINS = (30.0, 6.0)             # angle, velocity
CART_CAPTURE_VEL = 2.0
CART_PUMP_GAIN = 12.0
CART_CENTER_GAINS = (0.9, 1.4)            # position, velocity (pumping phase)
# u = -(k . state): linear-quadratic regulator for the upright linearization
# with state cost diag(2, 1, 20, 2) and control cost 0.1
CART_STAB_GAINS = (-4.472, -7.152, -55.924, -14.607)


# every constant of each system, stated once; a constant the system does not
# have is NaN: the ball has no mass, friction or actuator
_SYSTEMS = {
    ENV_BOUNCING_BALL: dict(dt=0.05, horizon=600, gravity=9.81, mass=math.nan,
                            length=math.nan, cart_mass=math.nan, damping=math.nan,
                            restitution=0.8, limit=math.nan),
    ENV_PENDULUM: dict(dt=0.01, horizon=250, gravity=9.81, mass=1.0, length=1.0,
                       cart_mass=math.nan, damping=0.1, restitution=math.nan, limit=2.5),
    ENV_CARTPOLE: dict(dt=0.01, horizon=250, gravity=9.81, mass=0.1, length=0.5,
                       cart_mass=1.0, damping=0.0, restitution=math.nan, limit=5.0),
}


@dataclass(frozen=True)
class EnvConfig:
    """One of the three systems, its observation mode and its seed; the
    physical and timing constants are the system's own, read from _SYSTEMS."""
    env: str
    obs: str = OBS_JOINT
    seed: int = 0
    dt: float = field(init=False)
    horizon: int = field(init=False)
    gravity: float = field(init=False)
    mass: float = field(init=False)         # pendulum bob / pole mass
    length: float = field(init=False)       # pendulum length / pole half-length
    cart_mass: float = field(init=False)
    damping: float = field(init=False)      # viscous joint friction (torque per rad/s)
    restitution: float = field(init=False)
    limit: float = field(init=False)        # torque / force bound

    def __post_init__(self):
        if self.env not in ENVS:
            raise ValueError(f"env must be one of {ENVS}, got {self.env!r}")
        if self.obs not in OBS_MODES:
            raise ValueError(f"obs must be one of {OBS_MODES}, got {self.obs!r}")
        for name, value in _SYSTEMS[self.env].items():
            object.__setattr__(self, name, value)


def default_config(env: str, obs: str = OBS_JOINT, seed: int = 0) -> EnvConfig:
    """Benchmark configuration: ball at 20 Hz for 30 s, pendulum and cart-pole
    at 100 Hz for 2.5 s, textbook physical constants."""
    return EnvConfig(env=env, obs=obs, seed=seed)


def env_dims(config: EnvConfig) -> tuple[int, int]:
    """(observed state dim, control dim)."""
    if config.env == ENV_BOUNCING_BALL:
        return 2, 0
    if config.env == ENV_PENDULUM:
        return (2, 1) if config.obs == OBS_JOINT else (3, 1)
    return (4, 1) if config.obs == OBS_JOINT else (5, 1)


def wrap_angle(a):
    """Wrap to [-pi, pi)."""
    return np.mod(np.asarray(a, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def observe(config: EnvConfig, state: np.ndarray, obs: str | None = None) -> np.ndarray:
    """Map internal state to an observation, in config.obs unless obs is
    given; vectorized over leading axes. Joint wraps the angles and passes
    the rest through; trig replaces each angle with its (cos, sin) pair."""
    state = np.asarray(state, dtype=float)
    if obs is None:
        obs = config.obs
    elif obs not in OBS_MODES:
        raise ValueError(f"obs must be one of {OBS_MODES}, got {obs!r}")
    if obs == OBS_TRIG and config.env != ENV_BOUNCING_BALL:
        if config.env == ENV_PENDULUM:
            th, om = state[..., 0], state[..., 1]
            return np.stack([np.cos(th), np.sin(th), om], axis=-1)
        p, pd, th, om = (state[..., i] for i in range(4))
        return np.stack([p, pd, np.cos(th), np.sin(th), om], axis=-1)
    out = state.copy()
    if config.env == ENV_PENDULUM:
        out[..., 0] = wrap_angle(state[..., 0])
    elif config.env == ENV_CARTPOLE:
        out[..., 2] = wrap_angle(state[..., 2])
    return out


def pole_state(config: EnvConfig, xs) -> tuple[np.ndarray, np.ndarray]:
    """(angle, angular speed) of the pole in observations xs of config.obs,
    vectorized over leading axes: the inverse of observe for the pole. A trig
    angle comes back from its (cos, sin) pair by arctan2."""
    xs = np.asarray(xs, dtype=float)
    if config.env == ENV_BOUNCING_BALL:
        raise ValueError("the bouncing ball has no pole")
    i = 0 if config.env == ENV_PENDULUM else 2
    if config.obs == OBS_JOINT:
        return xs[..., i], xs[..., i + 1]
    return np.arctan2(xs[..., i + 1], xs[..., i]), xs[..., i + 2]


def initial_state(config: EnvConfig, rng: np.random.Generator) -> np.ndarray:
    """Randomized release states covering each system's operating range: the
    ball starts at a varied height and vertical speed, the swing systems start
    anywhere on the circle with moderate spin so identification data visits
    librations, full rotations, and the wrap seam at speed."""
    if config.env == ENV_BOUNCING_BALL:
        return np.array([rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)])
    if config.env == ENV_PENDULUM:
        return np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-2.0, 2.0)])
    return np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(-np.pi, np.pi), rng.uniform(-2.0, 2.0)])


def hanging_state(config: EnvConfig, rng: np.random.Generator) -> np.ndarray:
    """Near-hanging start for the control tasks; swing-up experiments begin
    from the downward rest position, not from the identification draw. The
    bouncing ball, which has no pole, is refused."""
    if config.env == ENV_BOUNCING_BALL:
        raise ValueError("the bouncing ball has no pole: no swing-up starts on it")
    pole = [np.pi + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
    return np.array(pole if config.env == ENV_PENDULUM else [0.0, 0.0, *pole])


# -- dynamics ------------------------------------------------------------------

def _ball_step(config: EnvConfig, state: list) -> list:
    g, e, dt = config.gravity, config.restitution, config.dt
    h, v = state
    h_pred = h + v * dt - 0.5 * g * dt * dt
    if h_pred < 0.0:
        # reflect the penetration and the contact velocity, then gravity keeps
        # acting over the step; the g*dt loss makes shrinking bounces die out
        # instead of feeding an everlasting sub-step hop cycle
        return [-e * h_pred, -e * v - g * dt]
    return [h_pred, v - g * dt]


def _pendulum_derivs(config: EnvConfig, state: list, u: float) -> tuple:
    g, m, l, b = config.gravity, config.mass, config.length, config.damping
    th, om = state
    return om, (g / l) * float(np.sin(th)) + (u - b * om) / (m * l * l)


def _cartpole_derivs(config: EnvConfig, state: list, u: float) -> tuple:
    g, mp, l = config.gravity, config.mass, config.length
    total = config.cart_mass + mp
    _, pd, th, om = state
    sin, cos = float(np.sin(th)), float(np.cos(th))
    tmp = (u + mp * l * om * om * sin) / total
    th_acc = (g * sin - cos * tmp) / (l * (4.0 / 3.0 - mp * cos * cos / total))
    th_acc -= config.damping * om
    p_acc = tmp - mp * l * th_acc * cos / total
    return pd, p_acc, om, th_acc


def _step(config: EnvConfig, s: list, u: float) -> list:
    """One simulator step on Python floats: the ball's map, or one RK4 step of
    a swing system, component by component with the IEEE operations of the
    same step on state arrays. numpy still takes every sin and cos, so each
    value matches the array step's bit for bit."""
    if config.env == ENV_BOUNCING_BALL:
        return _ball_step(config, s)
    derivs = _pendulum_derivs if config.env == ENV_PENDULUM else _cartpole_derivs
    dt = config.dt
    half = 0.5 * dt
    k1 = derivs(config, s, u)
    k2 = derivs(config, [x + half * k for x, k in zip(s, k1)], u)
    k3 = derivs(config, [x + half * k for x, k in zip(s, k2)], u)
    k4 = derivs(config, [x + dt * k for x, k in zip(s, k3)], u)
    w = dt / 6.0
    return [x + w * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(s, k1, k2, k3, k4)]


def step_env(config: EnvConfig, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One simulator step from internal state under (already clipped) control:
    _step on the state's floats. On 2- and 4-entry states per-call overhead,
    not arithmetic, sets the cost, so the step runs on Python scalars."""
    u = np.asarray(u, dtype=float).ravel()
    return np.array(_step(config, np.asarray(state, dtype=float).tolist(),
                          float(u[0]) if u.size else 0.0))


def _clipped(limit: float, u: list) -> list:
    """Entries clipped to [-limit, limit] by np.clip's comparisons (NaN passes)."""
    return [-limit if v < -limit else limit if v > limit else v for v in u]


def clip_control(config: EnvConfig, u) -> np.ndarray:
    """u as a (d_u,) array clipped to [-limit, limit] entry by entry."""
    d_u = env_dims(config)[1]
    return np.array(_clipped(config.limit, np.asarray(u, dtype=float).reshape(d_u).tolist()))


@np.errstate(invalid="raise")
def simulate(config: EnvConfig, policy=None, T: int | None = None, *,
             x0: np.ndarray, id: str = "") -> Trajectory:
    """Roll the simulator for T steps (the env horizon when None) from the
    internal state x0, and record observed states and clipped controls.

    policy is a callable (joint_state, step) -> control, or None for zero
    input. The callable always receives the joint observation, whatever
    config.obs is. A non-finite state aborts with the step index.

    The state is held as Python floats and stepped by _step; observations are
    formed once per trajectory, by observe on all T internal states.
    """
    T = config.horizon if T is None else T
    if not is_integer(T) or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")
    d_u = env_dims(config)[1]
    s = np.asarray(x0, dtype=float).tolist()
    states, us = np.empty((T, len(s))), np.empty((T, d_u))
    u = [0.0] * d_u
    for t in range(T):
        if not all(map(math.isfinite, s)):
            raise FloatingPointError(f"non-finite state at step {t}")
        states[t] = s
        if policy is not None:
            u = policy(observe(config, states[t], OBS_JOINT), t)
            u = _clipped(config.limit, np.asarray(u, dtype=float).reshape(d_u).tolist())
        us[t] = u
        if t < T - 1:
            try:
                s = _step(config, s, u[0] if u else 0.0)
            except FloatingPointError:   # sin or cos of an infinite angle
                s = [math.nan]
    return Trajectory(xs=observe(config, states), us=us, dt=config.dt, id=id)


# -- policies ------------------------------------------------------------------

def explore_policy(config: EnvConfig, rng: np.random.Generator):
    """Uniform random actions in [-limit, limit], redrawn every EXPLORE_HOLD
    steps; the bouncing ball, which has no actuator, is refused here, before
    any episode runs, as expert_policy refuses it."""
    if config.env == ENV_BOUNCING_BALL:
        raise ValueError("the bouncing ball has no actuator: no exploration runs on it")
    d_u = env_dims(config)[1]
    cache = {"u": np.zeros(d_u)}

    def policy(_state, t):
        if t % EXPLORE_HOLD == 0:
            cache["u"] = rng.uniform(-config.limit, config.limit, size=d_u)
        return cache["u"]

    return policy


def _pole_energy(config: EnvConfig, inertia: float, th: float, om: float) -> float:
    """Energy of a swinging pole whose inertia about the pivot is inertia * m l^2."""
    m, l, g = config.mass, config.length, config.gravity
    return 0.5 * inertia * m * l * l * om * om + m * g * l * float(np.cos(th))


def expert_swingup(config: EnvConfig, state) -> np.ndarray:
    """Scripted swing-up: energy pumping toward the upright energy level, with
    a linear stabilizer taking over inside the capture region (|wrapped angle|
    < CAPTURE_ANGLE and slow enough).

    Sign convention for pumping at exactly zero velocity (e.g. hanging at
    rest): the tie-break pushes in the positive direction, so a nonzero kick
    is always applied when energy is missing.

    Computed on Python floats with wrap_angle's np.mod and numpy's cos, in
    the operations of the same law on state arrays.
    """
    if config.env == ENV_BOUNCING_BALL:
        raise ValueError(f"no scripted expert for env {config.env!r}")
    s = np.asarray(state, dtype=float).tolist()
    p, pd, th, om = s if config.env == ENV_CARTPOLE else [0.0, 0.0, *s]
    th_w = float(np.mod(th + np.pi, 2.0 * np.pi)) - np.pi
    m, l, g = config.mass, config.length, config.gravity
    if config.env == ENV_PENDULUM:
        if abs(th_w) < CAPTURE_ANGLE and abs(om) < PEND_CAPTURE_VEL:
            k1, k2 = PEND_STAB_GAINS
            u = -k1 * th_w - k2 * om
        else:
            gap = m * g * l + PEND_PUMP_MARGIN - _pole_energy(config, 1.0, th, om)
            direction = 1.0 if om >= 0.0 else -1.0
            u = PEND_PUMP_GAIN * gap * direction
        return clip_control(config, u)
    if abs(th_w) < CAPTURE_ANGLE and abs(om) < CART_CAPTURE_VEL:
        kp, kpd, kth, kom = CART_STAB_GAINS
        u = -(kp * p + kpd * pd + kth * th_w + kom * om)
    else:
        # 4/3 m l^2 is the pole inertia about the pivot implied by the dynamics
        gap = _pole_energy(config, 4.0 / 3.0, th, om) - m * g * l
        kx, kxd = CART_CENTER_GAINS
        u = CART_PUMP_GAIN * gap * om * float(np.cos(th)) - kx * p - kxd * pd
    return clip_control(config, u)


def expert_policy(config: EnvConfig):
    """expert_swingup wrapped in the simulate() policy signature; an env with
    no scripted expert is refused here, before any episode runs."""
    if config.env == ENV_BOUNCING_BALL:
        raise ValueError(f"no scripted expert for env {config.env!r}")
    return lambda state, _t: expert_swingup(config, state)


# -- data protocol ---------------------------------------------------------------

def collect_trajectories(config: EnvConfig, n: int, seed: int, T: int | None = None,
                         expert: bool = False) -> list[Trajectory]:
    """n seeded trajectories; trajectory i uses an independent generator keyed
    by (config.seed, seed, i), so collection order and parallelism do not
    matter. It draws the start first, then whatever the policy draws.

    By default each trajectory starts from an initial_state draw under random
    exploration (explore_policy), or under no input on the ball. expert=True
    runs expert_policy from a hanging_state draw; the ball is refused.
    """
    trajs = []
    for i in range(n):
        rng = np.random.default_rng((config.seed, seed, i))
        if expert:
            policy, x0 = expert_policy(config), hanging_state(config, rng)
        else:
            x0 = initial_state(config, rng)
            policy = None if config.env == ENV_BOUNCING_BALL else explore_policy(config, rng)
        trajs.append(simulate(config, policy, T=T, x0=x0, id=f"{config.env}-{seed}-{i:03d}"))
    return trajs


def collect_demonstrations(config: EnvConfig, n: int, seed: int,
                           T: int | None = None) -> list[Trajectory]:
    """Expert demonstrations from randomized near-hanging starts."""
    return collect_trajectories(config, n, seed, T=T, expert=True)


def make_splits(n_train: int, n_splits: int, size: int, seed: int) -> list[list[int]]:
    """n_splits subsets of `size` trajectory indices, each sampled uniformly
    without replacement from range(n_train)."""
    if size > n_train:
        raise ValueError("split size exceeds number of training trajectories")
    rng = np.random.default_rng(seed)
    return [sorted(int(j) for j in rng.choice(n_train, size=size, replace=False))
            for _ in range(n_splits)]


def save_dataset(path, trajectories) -> None:
    """One structured-text record per line: {"id", "dt", "xs", "us"}. Floats
    use shortest round-trip decimals, so loading restores exact values."""
    if isinstance(trajectories, Dataset):
        trajectories = trajectories.trajectories
    with open(path, "w") as f:
        for traj in trajectories:
            rec = {"id": traj.id, "dt": traj.dt,
                   "xs": traj.xs.tolist(), "us": traj.us.tolist()}
            f.write(json.dumps(rec) + "\n")


def load_dataset(path) -> Dataset:
    """Records written by save_dataset, whose "us" holds T rows; a flat "us" of
    exactly T entries is read as one control per step, as Trajectory reads
    it. A malformed record raises ValueError naming its line."""
    trajs = []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: bad record on line {line_no}: {e}") from e
            where = f"{path}: line {line_no}"
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: record must be a JSON object, "
                                 f"got {type(rec).__name__}")
            try:
                trajs.append(Trajectory(xs=rec["xs"], us=rec["us"], dt=float(rec["dt"]),
                                        id=str(rec["id"])))
            except KeyError as e:
                raise ValueError(f"{where}: record lacks field {e.args[0]!r}") from None
            except (TypeError, ValueError) as e:
                raise ValueError(f"{where}: {e}") from e
    if not trajs:
        raise ValueError(f"{path}: no trajectories")
    return Dataset(trajs)


def save_manifest(path, split_ids: list[list[str]]) -> None:
    """Split membership by trajectory id, one JSON document."""
    with open(path, "w") as f:
        json.dump({"splits": [list(ids) for ids in split_ids]}, f, indent=1)
        f.write("\n")


def load_manifest(path) -> list[list[str]]:
    """The split id lists of a manifest: at least one split, each a non-empty
    list of string ids."""
    with open(path) as f:
        doc = json.load(f)
    if not (isinstance(doc, dict) and isinstance(doc.get("splits"), list)
            and all(isinstance(ids, list) for ids in doc["splits"])):
        raise ValueError(f"{path}: manifest needs field 'splits', a list of id lists")
    if not doc["splits"]:
        raise ValueError(f"{path}: manifest 'splits' holds no split")
    for i, ids in enumerate(doc["splits"]):
        if not (ids and all(isinstance(id_, str) for id_ in ids)):
            raise ValueError(f"{path}: manifest split {i} must be a non-empty list of "
                             "string ids")
    return [list(ids) for ids in doc["splits"]]


def select_split(dataset: Dataset, ids: list[str]) -> Dataset:
    """The trajectories named by ids, in their order. Ids must be unique, both
    in the dataset and in the split."""
    for where, seq in (("dataset", [t.id for t in dataset.trajectories]),
                       ("manifest split", ids)):
        repeated = sorted(i for i, n in Counter(seq).items() if n > 1)
        if repeated:
            raise ValueError(f"{where} holds ids more than once: {repeated}")
    by_id = {t.id: t for t in dataset.trajectories}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValueError(f"manifest ids not in dataset: {missing}")
    return Dataset([by_id[i] for i in ids])
