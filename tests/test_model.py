import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from rarhmm.model import (CLOSED_LOOP, OPEN_LOOP, Controllers, Dataset, Dynamics,
                          HybridModel, InitialModel, Trajectory, control_history,
                          controller_features, load_model,
                          log_local_evidence, model_from_dict, model_to_dict)
from rarhmm import policy
from rarhmm._linalg import gauss_factors, gauss_logpdf
from rarhmm.evaluation import _forecast_batch, filter_all
from rarhmm.transition import make_transition

from rarhmm.envs import default_config
from rarhmm.inference import smooth_dataset
from rarhmm.learning import COVARIANCE_FLOOR, FitConfig, fit_em
from rarhmm.policy import rollout

from util import (models_equal, mvn_logpdf, random_dataset, random_model,
                  random_trajectory, reference_controller_feature_series,
                  reference_log_local_evidence, reference_sample_trajectory, save_model,
                  solve_mvn_logpdf)


def test_controller_features_linear_is_state():
    np.testing.assert_array_equal(controller_features((2.0, 3.0), [], 1), [2.0, 3.0])


def test_controller_features_concatenates_past_controls():
    np.testing.assert_array_equal(
        controller_features((2.0,), [(5.0,)], 1), [2.0, 5.0])


def test_controller_features_quadratic_order():
    np.testing.assert_array_equal(
        controller_features((2.0, 3.0), [], 2), [2.0, 3.0, 4.0, 6.0, 9.0])


def test_control_history_zero_pads():
    xs = np.arange(8.0).reshape(4, 2)
    us = np.arange(4.0).reshape(4, 1) + 10.0
    copy, past = control_history(us, 2)
    feats = controller_features(xs, past, 1)
    # columns: x (2), u_{t-2}, u_{t-1}
    np.testing.assert_array_equal(feats[0], [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(feats[1], [2.0, 3.0, 0.0, 10.0])
    np.testing.assert_array_equal(feats[3], [6.0, 7.0, 11.0, 12.0])
    np.testing.assert_array_equal(copy, us)
    copy[1] = -1.0     # the windows after step 1 read the written control
    np.testing.assert_array_equal(past[2], [[10.0], [-1.0]])
    np.testing.assert_array_equal(us[1], [11.0])


@pytest.mark.parametrize("lag", [0, 1, 2, 3])
@pytest.mark.parametrize("poly_degree", [1, 2])
@pytest.mark.parametrize("T", [1, 2, 3, 7])
def test_feature_map_with_history_equals_the_series_reference(lag, poly_degree, T):
    rng = np.random.default_rng(100 * lag + 10 * poly_degree + T)
    xs, us = rng.standard_normal((T, 3)), rng.standard_normal((T, 2))
    want = reference_controller_feature_series(xs, us, lag, poly_degree)
    feats = controller_features(xs, control_history(us, lag)[1], poly_degree)
    np.testing.assert_array_equal(feats, want)
    for t in range(T):      # one step at a time, from the list of past controls
        past = [us[s] if s >= 0 else np.zeros(2) for s in range(t - lag, t)]
        np.testing.assert_array_equal(controller_features(xs[t], past, poly_degree),
                                      want[t])


def _step_mean(m, x, u):
    """The one-step mean A x + B u + c of a K = 1 model, as its forecast one
    step ahead."""
    us = np.asarray(u, dtype=float).reshape(1, 1, -1)
    return _forecast_batch(m, np.asarray(x, dtype=float)[None], np.ones((1, 1)), us,
                           "argmax", None, np.array([1]))[0, 0]


def test_step_dynamics_identity():
    m = random_model(K=1, d_x=2, d_u=1, seed=1)
    dyn = Dynamics(A=[np.eye(2)], B=np.zeros((1, 2, 1)), c=np.zeros((1, 2)),
                   lam_cov=[np.eye(2)])
    m = HybridModel(init=m.init, dynamics=dyn, transition=m.transition)
    x = np.array([0.3, -1.2])
    np.testing.assert_array_equal(_step_mean(m, x, [0.0]), x)


def test_step_dynamics_pure_offset():
    m = random_model(K=1, d_x=2, d_u=1, seed=1)
    dyn = Dynamics(A=np.zeros((1, 2, 2)), B=np.zeros((1, 2, 1)),
                   c=[[3.0, -1.0]], lam_cov=[np.eye(2)])
    m = HybridModel(init=m.init, dynamics=dyn, transition=m.transition)
    np.testing.assert_array_equal(_step_mean(m, [7.0, 7.0], [9.0]), [3.0, -1.0])


def test_step_dynamics_hand_computed():
    dt = 0.1
    m = random_model(K=1, d_x=2, d_u=1, seed=1)
    dyn = Dynamics(A=[[[1.0, dt], [0.0, 1.0]]], B=[[[0.0], [dt]]], c=np.zeros((1, 2)),
                   lam_cov=[np.eye(2)])
    m = HybridModel(init=m.init, dynamics=dyn, transition=m.transition)
    got = _step_mean(m, [0.0, 1.0], [2.0])
    np.testing.assert_allclose(got, [0.1, 1.2], rtol=0, atol=1e-15)


def test_sample_initial_degenerate_categorical():
    """The test-data sampler's first regime is the one regime pi allows."""
    m = random_model(K=1, seed=3)
    for s in range(5):
        _, _, zs = reference_sample_trajectory(m, 2, np.random.default_rng(s),
                                               exogenous_us=np.zeros((2, 1)))
        assert zs[0] == 0


def test_sample_initial_fair_categorical_frequency():
    """The test-data sampler's first regime is drawn from a fair pi."""
    floor = 1e-6
    init = InitialModel(pi=[0.5, 0.5], mu=[[1.0, 0.0], [-1.0, 0.0]],
                        omega_cov=[floor * np.eye(2), floor * np.eye(2)])
    base = random_model(K=2, d_x=2, d_u=1, seed=0)
    m = HybridModel(init=init, dynamics=base.dynamics, transition=base.transition)
    rng, us, n = np.random.default_rng(123), np.zeros((2, 1)), 10 ** 4
    hits = sum(reference_sample_trajectory(m, 2, rng, exogenous_us=us)[2][0] == 0
               for _ in range(n))
    assert 0.48 <= hits / n <= 0.52       # 4 standard deviations


def test_sample_initial_closed_loop_readout():
    """The test-data sampler's first control is the first regime's law at the
    first state."""
    floor = 1e-12
    base = random_model(K=1, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=2)
    ctl = Controllers(gain=[[[1.0, 0.0]]], offset=np.zeros((1, 1)),
                      sigma_cov=[floor * np.eye(1)])
    m = HybridModel(init=base.init, dynamics=base.dynamics, transition=base.transition,
                    controllers=ctl)
    xs, us, _ = reference_sample_trajectory(m, 2, np.random.default_rng(0))
    np.testing.assert_allclose(us[0], xs[0, :1], atol=1e-4)


def test_sample_trajectory_single_regime_constant_path():
    m = random_model(K=1, seed=5)
    _, zs = random_trajectory(m, T=20, seed=5)
    assert np.all(zs == 0)


def test_sample_trajectory_constant_policy():
    base = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=7)
    u_star = np.array([1.5])
    ctls = Controllers(gain=np.zeros((2, 1, 2)), offset=np.tile(u_star, (2, 1)),
                       sigma_cov=np.tile(1e-12 * np.eye(1), (2, 1, 1)))
    m = HybridModel(init=base.init, dynamics=base.dynamics, transition=base.transition,
                    controllers=ctls)
    _, us, _ = reference_sample_trajectory(m, 15, np.random.default_rng(1),
                                           deterministic=True)
    np.testing.assert_allclose(us, np.tile(u_star, (15, 1)), atol=1e-12)


def test_sample_trajectory_threshold_switching():
    # saturating linear link on sign(x1): sampled regime tracks sign(x1)
    base = random_model(K=2, d_x=2, d_u=1, seed=11, noise_scale=0.3)
    tm = make_transition("linear", 2, 2, 1)
    w = np.zeros((2, 3))
    w[0, 0] = 50.0   # regime 0 logit grows with x1
    w[1, 0] = -50.0  # regime 1 logit grows with -x1
    tm = type(tm)(kind="linear", d_x=2, d_u=1, bias=np.zeros((2, 2)),
                  feature_params=w.ravel(), feat_mean=tm.feat_mean,
                  feat_std=tm.feat_std)
    m = HybridModel(init=base.init, dynamics=base.dynamics, transition=tm)
    rng = np.random.default_rng(3)
    xs, _, zs = reference_sample_trajectory(m, 200, rng,
                                            exogenous_us=rng.standard_normal((200, 1)))
    prev_x1 = xs[:-1, 0]
    decided = np.abs(prev_x1) > 0.1  # ignore the fuzzy band near the threshold
    want = (prev_x1 < 0).astype(int)
    assert np.all(zs[1:][decided] == want[decided])


def test_log_local_evidence_unit_gaussian_zero_residual():
    # identity initial/dynamics models with unit covariances and a trajectory
    # sitting exactly on its predictions: every entry is -(d/2) ln(2 pi)
    d_x = 2
    init = InitialModel(pi=[1.0], mu=[[0.0, 0.0]], omega_cov=[np.eye(2)])
    dyn = Dynamics(A=[np.eye(2)], B=np.zeros((1, 2, 1)), c=np.zeros((1, 2)),
                   lam_cov=[np.eye(2)])
    tm = make_transition("stationary", 1, 2, 1)
    m = HybridModel(init=init, dynamics=dyn, transition=tm)
    T = 6
    traj = Trajectory(xs=np.zeros((T, 2)), us=np.zeros((T, 1)), dt=0.1)
    ev = log_local_evidence(m, traj)
    np.testing.assert_allclose(ev, -(d_x / 2) * np.log(2 * np.pi), rtol=1e-12)


def test_log_local_evidence_mode_difference_is_control_term():
    mc = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=9, lag=1,
                      poly_degree=2)
    mo = HybridModel(init=mc.init, dynamics=mc.dynamics, transition=mc.transition)
    traj, _ = random_trajectory(mc, T=10, seed=4)
    ev_closed = log_local_evidence(mc, traj)
    ev_open = log_local_evidence(mo, traj)
    feats = reference_controller_feature_series(traj.xs, traj.us, mc.lag, mc.poly_degree)
    ctl = mc.controllers
    for k in range(mc.K):
        term = mvn_logpdf(traj.us, feats @ ctl.gain[k].T + ctl.offset[k], ctl.sigma_cov[k])
        np.testing.assert_allclose(ev_closed[:, k] - ev_open[:, k], term, rtol=1e-10)


def test_log_local_evidence_regime_permutation_permutes_columns():
    m = random_model(K=3, d_x=2, d_u=1, seed=13)
    perm = [2, 0, 1]
    pi = m.init.pi[perm]
    pi = pi / pi.sum()  # reorder keeps the sum, guard rounding
    m2 = HybridModel(init=InitialModel(pi=pi, mu=m.init.mu[perm],
                                       omega_cov=m.init.omega_cov[perm]),
                     dynamics=Dynamics(*(getattr(m.dynamics, f)[perm]
                                         for f in ("A", "B", "c", "lam_cov"))),
                     transition=m.transition)
    traj, _ = random_trajectory(m, T=7, seed=8)
    ev = log_local_evidence(m, traj)
    ev2 = log_local_evidence(m2, traj)
    np.testing.assert_array_equal(ev[:, perm], ev2)


def test_log_local_evidence_ignores_trajectory_id():
    m = random_model(seed=21)
    traj, _ = random_trajectory(m, T=9, seed=2)
    renamed = Trajectory(xs=traj.xs, us=traj.us, dt=traj.dt, id="another-name")
    np.testing.assert_array_equal(log_local_evidence(m, traj),
                                  log_local_evidence(m, renamed))


def test_deterministic_sampling_matches_hand_recursion():
    m = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=17, lag=1)
    rng = np.random.default_rng(5)
    xs, us, zs = reference_sample_trajectory(m, 12, rng, deterministic=True)
    # replay the recursion by hand from the sampled regime path
    x = m.init.mu[zs[0]]
    past = [np.zeros(1)]
    for t in range(12):
        if t > 0:
            z, dyn = zs[t], m.dynamics
            x = dyn.A[z] @ xs[t - 1] + dyn.B[z] @ us[t - 1] + dyn.c[z]
        np.testing.assert_allclose(xs[t], x, atol=1e-14)
        phi = controller_features(x, past, 1)
        u = m.controllers.gain[zs[t]] @ phi + m.controllers.offset[zs[t]]
        np.testing.assert_allclose(us[t], u, atol=1e-14)
        past = [us[t]]


@pytest.mark.parametrize("mode,kind", [(OPEN_LOOP, "stationary"),
                                       (OPEN_LOOP, "perceptron"),
                                       (CLOSED_LOOP, "polynomial"),
                                       (CLOSED_LOOP, "linear")])
def test_model_roundtrip_bit_exact(tmp_path, mode, kind):
    m = random_model(K=3, d_x=2, d_u=2, mode=mode, kind=kind, seed=29,
                     lag=1, poly_degree=2)
    path = tmp_path / "model.json"
    save_model(path, m)
    m2 = load_model(path)
    assert models_equal(m, m2)
    # and a second hop stays identical
    save_model(path, m2)
    assert models_equal(m, load_model(path))


def test_model_document_schema_fields(tmp_path):
    m = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="perceptron",
                     seed=31, lag=2, poly_degree=2)
    doc = model_to_dict(m)
    assert doc["version"] == 1
    assert set(doc) == {"version", "mode", "K", "d_x", "d_u", "lag", "poly_degree",
                        "pi", "init", "dynamics", "controllers", "transition"}
    assert doc["lag"] == 2 and doc["poly_degree"] == 2
    assert set(doc["transition"]) == {"kind", "hidden_units", "bias",
                                      "feature_params", "standardizer"}
    text = json.dumps(doc)
    assert models_equal(m, model_from_dict(json.loads(text)))


def test_model_document_without_per_source_link():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=32)
    doc = json.loads(json.dumps(model_to_dict(m)))
    assert "per_prev" not in doc["transition"]
    # files written before per-source link weights were removed say false
    doc["transition"]["per_prev"] = False
    assert models_equal(m, model_from_dict(doc))


def test_model_document_with_per_source_link_is_rejected():
    doc = model_to_dict(random_model(K=2, d_x=2, d_u=1, kind="linear", seed=32))
    doc["transition"]["per_prev"] = True
    with pytest.raises(ValueError, match="per_prev"):
        model_from_dict(doc)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(xs=np.zeros((1, 2)), us=np.zeros((1, 1)), dt=0.1)
    with pytest.raises(ValueError):
        Trajectory(xs=np.zeros((3, 2)), us=np.zeros((2, 1)), dt=0.1)
    with pytest.raises(ValueError):
        Trajectory(xs=np.full((3, 2), np.nan), us=np.zeros((3, 1)), dt=0.1)
    with pytest.raises(ValueError):
        Trajectory(xs=np.zeros((3, 2)), us=np.zeros((3, 1)), dt=0.0)


def test_trajectory_rejects_arrays_of_the_wrong_rank():
    with pytest.raises(ValueError, match=re.escape("xs must hold (T, d_x) states, got shape (3, 2, 1)")):
        Trajectory(xs=np.zeros((3, 2, 1)), us=np.zeros((3, 1)), dt=0.1)
    with pytest.raises(ValueError, match=re.escape("xs must hold (T, d_x) states, got shape (3,)")):
        Trajectory(xs=np.zeros(3), us=np.zeros((3, 1)), dt=0.1)
    with pytest.raises(ValueError, match=re.escape("us must hold 3 rows of controls, or 3 "
                                                   "scalars, got shape (3, 2, 1)")):
        Trajectory(xs=np.zeros((3, 2)), us=np.zeros((3, 2, 1)), dt=0.1)
    with pytest.raises(ValueError, match=re.escape("got shape (6,)")):
        Trajectory(xs=np.zeros((3, 2)), us=np.zeros(6), dt=0.1)
    flat = Trajectory(xs=np.zeros((3, 2)), us=[0.5, 0.0, -1.0], dt=0.1)
    np.testing.assert_array_equal(flat.us, [[0.5], [0.0], [-1.0]])


def test_dataset_validation():
    t = Trajectory(xs=np.zeros((3, 2)), us=np.zeros((3, 1)), dt=0.1)
    with pytest.raises(ValueError):
        Dataset(trajectories=())
    wide = Trajectory(xs=np.zeros((3, 3)), us=np.zeros((3, 1)), dt=0.1, id="wide")
    with pytest.raises(ValueError, match=re.escape("'wide' has dims (3, 1), the first "
                                                   "has (2, 1)")):
        Dataset((t, wide))
    ds = Dataset([t])
    assert (ds.d_x, ds.d_u) == (2, 1)


def test_model_reads_its_sizes_and_mode_from_its_blocks():
    m = random_model(K=3, d_x=2, d_u=2, mode=CLOSED_LOOP, seed=1, lag=1)
    assert (m.K, m.d_x, m.d_u, m.mode) == (3, 2, 2, CLOSED_LOOP)
    open_loop = HybridModel(init=m.init, dynamics=m.dynamics, transition=m.transition)
    assert (open_loop.K, open_loop.d_x, open_loop.d_u, open_loop.mode) == (3, 2, 2, OPEN_LOOP)


def test_model_blocks_must_agree():
    m = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=1)
    other = random_model(K=3, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=1, lag=1)
    with pytest.raises(ValueError, match="transition K or dims"):
        HybridModel(init=m.init, dynamics=m.dynamics, transition=other.transition)
    with pytest.raises(ValueError, match="dynamics must be"):
        HybridModel(init=m.init, dynamics=other.dynamics, transition=m.transition)
    # gains over the features of one lagged control, in a lag-0 bank
    with pytest.raises(ValueError, match="controller gain"):
        HybridModel(init=m.init, dynamics=m.dynamics, transition=m.transition,
                    controllers=Controllers(other.controllers.gain[:2],
                                            other.controllers.offset[:2],
                                            other.controllers.sigma_cov[:2]))


def _block_arrays(model):
    """Every array of every regime block of the model, with its name."""
    blocks = (model.init, model.dynamics, model.controllers)
    return [(name, a) for block in blocks if block is not None
            for name, a in vars(block).items() if isinstance(a, np.ndarray)]


def test_regime_blocks_are_read_only_and_per_regime():
    m = random_model(K=3, d_x=2, d_u=2, mode=CLOSED_LOOP, seed=3, lag=1)
    dyn = m.dynamics
    for k in range(m.K):
        np.testing.assert_array_equal(dyn.lam_chol[k], np.linalg.cholesky(dyn.lam_cov[k]))
        # at the mean, the log density is exactly -lam_const / 2
        assert -0.5 * dyn.lam_const[k] == mvn_logpdf(dyn.c[k], dyn.c[k], dyn.lam_cov[k])
    arrays = _block_arrays(m)
    assert len(arrays) == 6 + 7 + 6
    for name, a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    # a block built from reordered regimes factors them in that order
    flipped = Dynamics(*(getattr(dyn, f)[::-1] for f in ("A", "B", "c", "lam_cov")))
    np.testing.assert_array_equal(flipped.lam_chol, dyn.lam_chol[::-1])


def test_regime_stack_without_controls():
    m = random_model(K=2, d_x=4, d_u=0, seed=5)
    dyn = m.dynamics
    assert dyn.B.shape == (2, 4, 0)
    assert m.controllers is None
    x = np.arange(4.0)
    for k in range(m.K):
        np.testing.assert_array_equal((dyn.A @ x + dyn.B @ np.zeros(0) + dyn.c)[k],
                                      dyn.A[k] @ x + dyn.B[k] @ np.zeros(0) + dyn.c[k])


@pytest.mark.parametrize("mode,lag", [(OPEN_LOOP, 0), (CLOSED_LOOP, 1)])
def test_fitted_blocks_are_c_contiguous_and_read_only(mode, lag):
    data = random_dataset(random_model(K=2, d_x=2, d_u=1, mode=mode, seed=6, lag=lag),
                          n=3, T=40, seed=6)
    m, _ = fit_em(data, FitConfig(K=2, mode=mode, transition_kind="linear", lag=lag,
                                  max_iters=3, restarts=1))
    assert len(_block_arrays(m)) == (19 if mode == CLOSED_LOOP else 13)
    for name, a in _block_arrays(m):
        assert a.flags.c_contiguous, name
        assert not a.flags.writeable, name


def test_building_a_block_leaves_the_callers_arrays_writeable():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 3, 3)).transpose(0, 2, 1)   # F-ordered slices
    B, c = rng.standard_normal((2, 3, 1)), rng.standard_normal((2, 3))
    cov, sig = np.stack([np.eye(3)] * 2), np.stack([np.eye(1)] * 2)
    gain, offset = rng.standard_normal((2, 1, 3)), rng.standard_normal((2, 1))
    pi, mu = np.full(2, 0.5), rng.standard_normal((2, 3))
    dyn = Dynamics(A=A, B=B, c=c, lam_cov=cov)
    ctl = Controllers(gain=gain, offset=offset, sigma_cov=sig)
    init = InitialModel(pi=pi, mu=mu, omega_cov=cov)
    for a in (A, B, c, cov, gain, offset, sig, pi, mu):
        assert a.flags.writeable
    assert dyn.A.flags.c_contiguous and np.array_equal(dyn.A, A)
    A[...] = 0.0
    assert not np.array_equal(dyn.A, A)
    for block in (dyn, ctl, init):
        assert all(not a.flags.writeable for a in vars(block).values()
                   if isinstance(a, np.ndarray))


def test_symmetry_check_is_relative_to_the_largest_entry():
    cov = np.array([[1e6, 2e5], [2e5, 1e6]])
    nearly = cov.copy()
    nearly[0, 1] += 1e-7   # asymmetric by 1e-13 of the largest entry
    np.testing.assert_array_equal(
        InitialModel(pi=[1.0], mu=[[0.0, 0.0]], omega_cov=[nearly]).omega_cov[0], nearly)
    lopsided = cov.copy()
    lopsided[0, 1] += 1e-5  # 1e-11 of the largest entry
    with pytest.raises(ValueError, match=r"omega_cov\[0\] must be symmetric"):
        InitialModel(pi=[1.0], mu=[[0.0, 0.0]], omega_cov=[lopsided])
    lam = np.stack([np.eye(2)] * 2)
    lam[1, 0, 1] = 1e-6
    with pytest.raises(ValueError, match=r"lam_cov\[1\] must be symmetric"):
        Dynamics(A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 0)), c=np.zeros((2, 2)),
                 lam_cov=lam)


_EVIDENCE_CASES = ([(OPEN_LOOP, K, d_u, 0, 1) for K, d_u in itertools.product((1, 3, 9), (0, 1, 2))]
                   + [(CLOSED_LOOP, *c) for c in itertools.product((1, 3, 9), (0, 1, 2),
                                                                   (0, 1), (1, 2))])


@pytest.mark.parametrize("mode,K,d_u,lag,degree", _EVIDENCE_CASES)
def test_log_local_evidence_matches_per_regime_reference(mode, K, d_u, lag, degree):
    m = random_model(K=K, d_x=3, d_u=d_u, mode=mode, seed=K + 10 * d_u, lag=lag,
                     poly_degree=degree, noise_scale=0.3)
    rng = np.random.default_rng(K + d_u)
    traj = Trajectory(xs=rng.standard_normal((15, 3)), us=rng.standard_normal((15, d_u)),
                      dt=0.1)
    np.testing.assert_array_equal(log_local_evidence(m, traj),
                                  reference_log_local_evidence(m, traj))


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_whitened_density_matches_triangular_solve(d):
    # covariance eigenvalues from the fitting floor to 1e2, rotated at random
    rng = np.random.default_rng(d)
    K, n = 6, 50
    covs = []
    for k in range(K):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eig = (np.geomspace(COVARIANCE_FLOOR, 1e2, d) if k % 2 == 0
               else 10.0 ** rng.uniform(np.log10(COVARIANCE_FLOOR), 2.0, d))
        covs.append((q * eig) @ q.T)
    covs = 0.5 * (np.stack(covs) + np.stack(covs).transpose(0, 2, 1))
    chol, whiten, const = gauss_factors(covs)
    assert whiten.flags.c_contiguous
    np.testing.assert_array_equal(np.triu(whiten, 1), 0.0)
    for k in range(K):
        np.testing.assert_allclose(whiten[k] @ chol[k], np.eye(d), rtol=0.0, atol=1e-12)
    # residuals drawn from each covariance, every fifth 10 standard deviations out
    resid = (chol @ rng.standard_normal((K, d, n))).transpose(0, 2, 1)
    resid[:, ::5] *= 10.0
    got = gauss_logpdf(resid, whiten, const)
    assert got.shape == (K, n)
    for k in range(K):
        want = solve_mvn_logpdf(resid[k], 0.0, covs[k])
        # relative to the magnitudes of the two terms the density sums, so
        # that a value near 0 after cancellation is not held to a bound its
        # terms cannot meet
        scale = 0.5 * (np.abs(const[k]) + (-2.0 * want - const[k]))
        assert np.all(np.abs(got[k] - want) <= 1e-12 * scale)
        # so is one point per regime
        point = gauss_logpdf(resid[:, 3], whiten, const)[k]
        assert abs(point - want[3]) <= 1e-12 * scale[3]


def test_densities_factor_nothing_once_the_model_is_built(monkeypatch):
    m = random_model(K=3, d_x=3, d_u=2, mode=CLOSED_LOOP, seed=4, lag=1, poly_degree=2,
                     noise_scale=0.3)
    rng = np.random.default_rng(4)
    traj = Trajectory(xs=rng.standard_normal((30, 3)), us=rng.standard_normal((30, 2)),
                      dt=0.1)

    def factoring(*args, **kwargs):
        raise AssertionError("a density factored a matrix")

    for name in ("solve", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, factoring)
    ev = log_local_evidence(m, traj)
    assert ev.shape == (30, 3) and np.all(np.isfinite(ev))
    assert filter_all(m, Dataset([traj])).shape == (1, 30, 3)
    b = policy._initial_belief(m, traj.xs[0])
    b = policy._belief_step(m, b, traj.xs[0], traj.us[0], traj.xs[1])
    assert b.shape == (3,) and abs(b.sum() - 1.0) < 1e-12


def test_evidence_peak_memory_is_bounded():
    # the evidence holds at most two (K, T, d_x) stacks at a time (the
    # residuals and their whitened columns) plus (K, T) rows; a factor
    # broadcast to every row would hold K * T * d_x^2 floats
    K, T, d_x = 9, 2000, 6
    m = random_model(K=K, d_x=d_x, d_u=1, mode=CLOSED_LOOP, seed=2, lag=1)
    rng = np.random.default_rng(2)
    traj = Trajectory(xs=rng.standard_normal((T, d_x)), us=rng.standard_normal((T, 1)),
                      dt=0.1)
    tracemalloc.start()
    try:
        log_local_evidence(m, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (K * T * d_x * 8)


def test_regime_stack_factors_every_covariance():
    m = random_model(K=3, d_x=2, d_u=2, mode=CLOSED_LOOP, seed=3, lag=1)
    init, ctl = m.init, m.controllers
    for k in range(m.K):
        for chol, const, cov in ((init.omega_chol, init.omega_const, init.omega_cov[k]),
                                 (ctl.sigma_chol, ctl.sigma_const, ctl.sigma_cov[k])):
            np.testing.assert_array_equal(chol[k], np.linalg.cholesky(cov))
            assert -0.5 * const[k] == mvn_logpdf(np.zeros(len(cov)), 0.0, cov)
    for a in (init.omega_chol, init.omega_const, ctl.sigma_chol, ctl.sigma_const):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_covariance_that_is_not_positive_definite_is_rejected():
    # symmetric, so only the Cholesky factorization can reject it
    with pytest.raises(np.linalg.LinAlgError, match="sigma_cov"):
        Controllers(gain=np.zeros((2, 1, 2)), offset=np.zeros((2, 1)),
                    sigma_cov=[[[1.0]], [[-1e-9]]])
    with pytest.raises(ValueError):
        InitialModel(pi=[1.0], mu=[[0.0, 0.0]], omega_cov=[[[1.0, 2.0], [2.0, 1.0]]])


@pytest.mark.parametrize("mode", [OPEN_LOOP, CLOSED_LOOP])
@pytest.mark.parametrize("B", [1, 4])
def test_each_covariance_is_factorized_once_per_model(monkeypatch, mode, B):
    K = 3
    data = random_dataset(random_model(K=K, d_x=2, d_u=1, mode=mode, seed=8), n=B,
                          T=30, seed=8)
    factorized, real = [0], np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        factorized[0] += int(np.prod(np.shape(a)[:-2]))   # matrices, batched or not
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    m = random_model(K=K, d_x=2, d_u=1, mode=mode, seed=8)
    assert factorized[0] == (3 * K if mode == CLOSED_LOOP else 2 * K)
    factorized[0] = 0
    smooth_dataset(m, data)
    smooth_dataset(m, data)
    if mode == CLOSED_LOOP:
        rollout(default_config("pendulum"), m, T=50, rng=np.random.default_rng(0))
    assert factorized[0] == 0


@pytest.mark.parametrize("mode", [OPEN_LOOP, CLOSED_LOOP])
@pytest.mark.parametrize("kind", ["stationary", "linear", "polynomial", "perceptron"])
def test_model_document_roundtrips_byte_equal_without_controls(mode, kind):
    m = random_model(K=3, d_x=2, d_u=0, mode=mode, kind=kind, seed=33, lag=1,
                     poly_degree=2)
    text = json.dumps(model_to_dict(m))
    m2 = model_from_dict(json.loads(text))
    assert json.dumps(model_to_dict(m2)) == text
    assert models_equal(m, m2)


def _valid_model_doc():
    return json.loads(json.dumps(model_to_dict(random_model(K=2, d_x=2, d_u=1,
                                                            mode=CLOSED_LOOP, seed=4))))


def _drop(doc, *path):
    block = doc
    for key in path[:-1]:
        block = block[key]
    del block[path[-1]]
    return doc


@pytest.mark.parametrize("doc,match", [
    ({"version": 1, "K": 2}, "lacks field 'd_x'"),
    (_drop(_valid_model_doc(), "init"), "lacks field 'init'"),
    (_drop(_valid_model_doc(), "dynamics", 1, "lam_cov"), "lacks field 'lam_cov'"),
    (_drop(_valid_model_doc(), "transition", "standardizer", "std"), "lacks field 'std'"),
    (_drop(_valid_model_doc(), "controllers", 0, "gain"), "lacks field 'gain'"),
    ({**_valid_model_doc(), "transition": []}, "malformed model document"),
    ({**_valid_model_doc(), "init": 3}, "malformed model document"),
    ({**_valid_model_doc(), "dynamics": [1, 2]}, "malformed model document"),
    ([1, 2], "JSON object"),
])
def test_malformed_model_document_is_a_value_error(tmp_path, doc, match):
    with pytest.raises(ValueError, match=match):
        model_from_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path)


@pytest.mark.parametrize("name,value", [("K", 3), ("d_x", 3), ("d_u", 2),
                                        ("mode", OPEN_LOOP), ("mode", "hybrid")])
def test_model_document_sizes_and_mode_must_agree_with_its_arrays(name, value):
    # the arrays of _valid_model_doc give K 2, d_x 2, d_u 1 and closed loop
    doc = _valid_model_doc()
    doc[name] = value
    with pytest.raises(ValueError, match=re.escape(f"model field {name!r} is {value!r}, "
                                                   f"but the model's arrays give")):
        model_from_dict(doc)


def test_model_document_without_controllers_is_not_closed_loop():
    doc = _valid_model_doc()
    del doc["controllers"]
    with pytest.raises(ValueError, match="model field 'mode' is 'closed_loop', but the "
                                         "model's arrays give 'open_loop'"):
        model_from_dict(doc)


@pytest.mark.parametrize("value", [1.9, 2.0, "2", True])
@pytest.mark.parametrize("path", [("version",), ("K",), ("d_x",), ("d_u",), ("lag",),
                                  ("poly_degree",), ("transition", "degree"),
                                  ("transition", "hidden_units")])
def test_model_document_size_fields_must_be_integers(path, value):
    # a float, a string or a bool used to load truncated or converted
    # ("d_u": 1.9 as 1, "K": "3" as 3)
    doc = _valid_model_doc()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ValueError, match=f"model field '{path[-1]}' must be an integer"):
        model_from_dict(doc)
