import warnings
from dataclasses import replace

import numpy as np
import pytest

from rarhmm import inference, learning
from rarhmm.envs import collect_trajectories, default_config
from rarhmm.inference import estep
from rarhmm.learning import (FitConfig, FitHistory, _kmeans, check_init_model, fit_em,
                             initialize, mstep_controller, mstep_dynamics,
                             mstep_initial, mstep_transitions)
from rarhmm.model import (CLOSED_LOOP, Dataset, Dynamics, HybridModel, InitialModel,
                          Trajectory)
from rarhmm.transition import (_nll_grad, make_transition, params_to_vector,
                               parse_transition_spec, transition_matrices,
                               weighted_nll_and_grad)

from util import (local_quantities, models_equal, random_dataset, random_model,
                  random_trajectory, reference_gd_mstep, reference_kmeans,
                  reference_sample_trajectory, reference_stack_transition_stats, smooth,
                  tensor_nll_grad)


def test_fit_config_spec_strings():
    # the spec is kept as given, so replace() round-trips it, and it alone
    # sizes the link initialize builds
    c = FitConfig(K=2, transition_kind="polynomial:3")
    assert c.transition_kind == "polynomial:3"
    assert replace(c, seed=4) == FitConfig(K=2, transition_kind="polynomial:3", seed=4)
    ds = random_dataset(random_model(K=2, seed=3), n=2, T=20, seed=3)
    for spec, degree, hidden in (("polynomial:3", 3, 0), ("polynomial", 1, 0),
                                 ("perceptron", 1, 16), ("Perceptron:8", 1, 8),
                                 ("linear", 1, 0)):
        cfg = FitConfig(K=2, transition_kind=spec)
        tm = initialize(ds, cfg, np.random.default_rng(0)).transition
        assert (tm.degree, tm.hidden_units) == (degree, hidden), spec
    for spec in ("polynomial:0", "perceptron:0", "perceptron:-3", "linear:2", "foo",
                 "foo:3", ""):
        with pytest.raises(ValueError):
            FitConfig(K=2, transition_kind=spec)
    with pytest.raises(ValueError):
        FitConfig(K=0)
    with pytest.raises(ValueError):
        FitConfig(K=2, mode="nonsense")


@pytest.mark.parametrize("bad", [dict(K=2.5), dict(K=True), dict(max_iters=2.5),
                                 dict(lag=1.0), dict(poly_degree=np.float64(2)),
                                 dict(restarts=False), dict(seed=True), dict(seed=-1),
                                 dict(rel_tol=np.nan), dict(rel_tol=np.inf), dict(rel_tol=0.0),
                                 dict(rel_tol=True), dict(rel_tol="1e-6"), dict(rel_tol=None)],
                         ids=repr)
def test_fit_config_rejects_non_integral_counts_and_a_non_finite_tolerance(bad):
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        FitConfig(**{"K": 2, **bad})


def test_fit_config_accepts_numpy_integers():
    cfg = FitConfig(K=np.int64(3), max_iters=np.int32(5), restarts=np.uint8(1), seed=np.int64(2))
    assert (cfg.K, cfg.max_iters, cfg.restarts, cfg.seed) == (3, 5, 1, 2)


@pytest.mark.parametrize("sizes", [dict(lag=3), dict(poly_degree=2),
                                   dict(lag=3, poly_degree=2)], ids=repr)
def test_open_loop_fit_config_rejects_controller_sizes(sizes):
    # only closed-loop controllers read lag and poly_degree
    with pytest.raises(ValueError, match="an open-loop fit needs lag 0 and poly_degree 1"):
        FitConfig(K=2, **sizes)
    assert FitConfig(K=2, mode=CLOSED_LOOP, **sizes).mode == CLOSED_LOOP


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 2)) * 0.1
    b = rng.normal(size=(40, 2)) * 0.1 + 10.0
    pts = np.concatenate([a, b], axis=0)
    labels = _kmeans(pts, 2, np.random.default_rng(1))
    assert len(set(labels[:40])) == 1
    assert len(set(labels[40:])) == 1
    assert labels[0] != labels[40]


def _kmeans_points(trajs):
    # the k-means input initialize builds: [x_t; x_{t+1} - x_t]
    return np.concatenate([np.concatenate([t.xs[:-1], np.diff(t.xs, axis=0)], axis=1)
                           for t in trajs], axis=0)


def test_kmeans_fixed_point_stop_keeps_reference_labels():
    cases = []
    for seed in range(6):
        m = random_model(K=3, d_x=2, d_u=1, seed=seed)
        ds = random_dataset(m, n=3, T=40, seed=seed)
        cases += [(_kmeans_points(ds.trajectories), K, seed, False) for K in (1, 2, 5)]
    # pipeline shapes, D = 2 d_x: pendulum exploration (D = 4), trig expert
    # demos (D = 6), cart-pole in joint and trig obs (D = 8 and 10, where the
    # reference's trailing-axis sum adds pairwise)
    for env, obs, expert, n, T, K in [("pendulum", "joint", False, 6, 200, 5),
                                      ("pendulum", "trig", True, 2, 1000, 9),
                                      ("cartpole", "joint", False, 3, 200, 5),
                                      ("cartpole", "trig", False, 3, 200, 9)]:
        trajs = collect_trajectories(default_config(env, obs=obs), n, 0, T=T, expert=expert)
        cases.append((_kmeans_points(trajs), K, 3, False))
    # duplicate rows, and rows tied on the first coordinate
    r = np.random.default_rng(7)
    tied = np.round(r.standard_normal((60, 3)), 1)
    tied[::4, 0] = 0.5
    cases.append((np.concatenate([tied, tied[:20]]), 6, 7, False))
    # sets on a 0.1 grid whose labels hang on the order of the sums: at D = 8 a
    # distance summed in sequence, at D = 2 a center summed out of row order,
    # would change them
    for seed, D in ((5, 8), (820, 2)):
        r = np.random.default_rng(seed)
        n, K = int(r.integers(20, 60)), int(r.integers(3, 7))
        cases.append((np.round(r.standard_normal((n, D)), 1), K, seed, False))
    # heavy-tailed 1-D sets on which Lloyd's rounds leave a cluster empty
    for seed in (1650, 1882, 2987):
        r = np.random.default_rng(seed)
        n, K = int(r.integers(8, 30)), int(r.integers(3, 9))
        cases.append((r.standard_normal((n, 1)) ** 3, K, seed, True))
    for pts, K, seed, empties in cases:
        want, reseeded = reference_kmeans(pts, K, np.random.default_rng(seed))
        assert reseeded > 0 or not empties
        np.testing.assert_array_equal(_kmeans(pts, K, np.random.default_rng(seed)), want)


def test_em_loglik_monotone():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=0)
    ds = random_dataset(m, n=3, T=40, seed=0)
    cfg = FitConfig(K=2, transition_kind="linear", max_iters=30, restarts=1, seed=0)
    _, hist = fit_em(ds, cfg)
    ll = np.asarray(hist.loglik)
    gaps = np.diff(ll)
    assert np.all(gaps >= -1e-8 * (1.0 + np.abs(ll[:-1])))


def test_q_lower_bounds_loglik():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=1)
    ds = random_dataset(m, n=2, T=30, seed=1)
    cfg = FitConfig(K=2, transition_kind="linear", max_iters=10, restarts=1, seed=1)
    _, hist = fit_em(ds, cfg)
    for q, ll in zip(hist.q_value, hist.loglik):
        assert q <= ll + 1e-9 * (1.0 + abs(ll))


# ids keep the form they had while a second, boolean parameter existed
@pytest.mark.parametrize("spec", [pytest.param("polynomial:2", id="polynomial:2-False"),
                                  pytest.param("perceptron:4", id="perceptron:4-False")])
def test_em_monotone_for_every_link_kind(spec):
    kind, degree, hidden = parse_transition_spec(spec)
    m = random_model(K=2, d_x=2, d_u=1, kind=kind, degree=degree,
                     hidden_units=hidden, seed=2)
    ds = random_dataset(m, n=3, T=40, seed=2)
    cfg = FitConfig(K=2, transition_kind=spec, max_iters=30, restarts=1, seed=2)
    _, hist = fit_em(ds, cfg)
    ll = np.asarray(hist.loglik)
    assert len(ll) > 2
    assert np.all(np.diff(ll) >= -1e-8 * (1.0 + np.abs(ll[:-1])))
    for q, l in zip(hist.q_value, hist.loglik):
        assert q <= l + 1e-9 * (1.0 + abs(l))


def _mixed_length_dataset(m):
    trajs = [random_trajectory(m, T=T, seed=s)[0]
             for s, T in enumerate((17, 5, 30, 2, 30))]
    return Dataset(trajs)


def test_estep_stats_matches_per_trajectory_reference():
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=5)
    ds = _mixed_length_dataset(m)
    posts, ll, q = learning._estep_stats(m, ds)
    ref_ll = ref_q = 0.0
    log_pi = np.log(m.init.pi)
    for traj, got in zip(ds.trajectories, posts):
        want = smooth(m, traj)
        ev, trans = local_quantities(m, traj)
        ref_ll += want.loglik
        ref_q += (want.gamma[0] @ log_pi + np.sum(want.gamma * ev)
                  + np.einsum("tji,tij->", want.xi, np.log(trans)))
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)
        np.testing.assert_allclose(got.gamma, want.gamma, atol=1e-12)
        np.testing.assert_allclose(got.xi, want.xi, atol=1e-12)
    assert ll == pytest.approx(ref_ll, rel=1e-12)
    assert q == pytest.approx(ref_q, rel=1e-12)
    assert q <= ll


def test_mixed_length_estep_is_one_batch(monkeypatch):
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=6)
    ds = _mixed_length_dataset(m)
    shapes = []
    smooth_batch = inference._smooth_batch

    def counted(ev, *args, **kwargs):
        shapes.append(ev.shape)
        return smooth_batch(ev, *args, **kwargs)

    monkeypatch.setattr(inference, "_smooth_batch", counted)
    learning._estep_stats(m, ds)
    assert shapes == [(5, 30, 2)]


@pytest.mark.parametrize("rel_tol,passes", [(1e-300, 4), (1e9, 2)])
def test_em_history_ends_at_returned_model(monkeypatch, rel_tol, passes):
    # exhausted (max_iters = 3 M-steps) or converged at the second pass, the
    # last E-step is of the model returned and no M-step follows it
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=14)
    ds = random_dataset(m, n=2, T=30, seed=14)
    seen = []
    estep_stats = learning._estep_stats

    def counted(model, dataset):
        seen.append(model)
        return estep_stats(model, dataset)

    monkeypatch.setattr(learning, "_estep_stats", counted)
    cfg = FitConfig(K=2, transition_kind="linear", max_iters=3, restarts=1,
                    rel_tol=rel_tol, seed=1)
    fit, hist = fit_em(ds, cfg)
    assert len(hist) == len(seen) == passes
    assert seen[-1] is fit and seen[-2] is not fit
    assert hist.loglik[-1] == estep(fit, ds)[1]


def test_k1_matches_analytic_mle():
    m = random_model(K=1, d_x=2, d_u=1, seed=2)
    ds = random_dataset(m, n=3, T=50, seed=2)
    cfg = FitConfig(K=1, max_iters=20, restarts=1, seed=2)
    fit, hist = fit_em(ds, cfg)

    X = np.concatenate([np.concatenate(
        [t.xs[:-1], t.us[:-1], np.ones((t.T - 1, 1))], axis=1)
        for t in ds.trajectories])
    Y = np.concatenate([t.xs[1:] for t in ds.trajectories])
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    np.testing.assert_allclose(fit.dynamics.A[0], coef[:2].T, atol=1e-6)
    np.testing.assert_allclose(fit.dynamics.B[0], coef[2:3].T, atol=1e-6)
    np.testing.assert_allclose(fit.dynamics.c[0], coef[3], atol=1e-6)

    x1 = np.stack([t.xs[0] for t in ds.trajectories])
    np.testing.assert_allclose(fit.init.mu[0], x1.mean(axis=0), atol=1e-8)
    assert fit.init.pi[0] == 1.0

    resid = Y - X @ coef
    lam = resid.T @ resid / len(resid)
    np.testing.assert_allclose(fit.dynamics.lam_cov[0], lam, atol=1e-5)


def test_refit_from_converged_model_stops_immediately():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=3)
    ds = random_dataset(m, n=2, T=30, seed=3)
    cfg = FitConfig(K=2, transition_kind="linear", max_iters=60, restarts=1, seed=3)
    fit, hist = fit_em(ds, cfg)
    assert len(hist) < 60  # converged, not exhausted
    refit, rehist = fit_em(ds, cfg, init_model=fit)
    # one M-step, then the convergence check fires on the next E-step
    assert len(rehist) == 2
    assert rehist.loglik[-1] >= hist.loglik[-1] - 1e-8 * (1 + abs(hist.loglik[-1]))


def test_init_model_must_match_the_config_and_the_dataset():
    # EM from a model keeps the model's structure, so a disagreeing config
    # would be recorded but not fitted
    m = random_model(K=2, d_x=2, d_u=1, kind="perceptron", hidden_units=4, seed=3)
    ds = random_dataset(m, n=2, T=10, seed=3)
    cfg = FitConfig(K=2, transition_kind="perceptron:4", max_iters=2, restarts=1)
    check_init_model(m, cfg, ds)
    for name, bad in (("K", replace(cfg, K=3)), ("mode", replace(cfg, mode=CLOSED_LOOP)),
                      ("transition", replace(cfg, transition_kind="perceptron:8")),
                      ("transition", replace(cfg, transition_kind="linear"))):
        with pytest.raises(ValueError, match=f"init model has {name} "):
            fit_em(ds, bad, init_model=m)
    wide = random_dataset(random_model(K=2, d_x=3, d_u=1, seed=3), n=2, T=10, seed=3)
    with pytest.raises(ValueError, match="init model has d_x 2, the fit needs 3"):
        fit_em(wide, cfg, init_model=m)
    closed = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, lag=1, poly_degree=2, seed=3)
    ccfg = FitConfig(K=2, mode=CLOSED_LOOP, transition_kind="linear", lag=1, poly_degree=2)
    check_init_model(closed, ccfg, ds)
    for name, bad in (("lag", replace(ccfg, lag=0)), ("poly_degree", replace(ccfg, poly_degree=1))):
        with pytest.raises(ValueError, match=f"init model has {name} "):
            check_init_model(closed, bad, ds)


def test_mstep_dynamics_matches_explicit_sums(monkeypatch):
    m = random_model(K=2, d_x=2, d_u=1, seed=4)
    ds = random_dataset(m, n=2, T=12, seed=4)
    posts, _ = estep(m, ds)
    monkeypatch.setattr(learning, "COVARIANCE_FLOOR", 1e-8)
    dyn = mstep_dynamics([p.gamma for p in posts], ds)

    for k in range(2):
        G = 1e-8 * np.eye(4)
        b = np.zeros((4, 2))
        for traj, post in zip(ds.trajectories, posts):
            for t in range(traj.T - 1):
                f = np.concatenate([traj.xs[t], traj.us[t], [1.0]])
                w = post.gamma[t + 1, k]
                G += w * np.outer(f, f)
                b += w * np.outer(f, traj.xs[t + 1])
        coef = np.linalg.solve(G, b)
        np.testing.assert_allclose(dyn.A[k], coef[:2].T, atol=1e-10)
        np.testing.assert_allclose(dyn.B[k], coef[2:3].T, atol=1e-10)
        np.testing.assert_allclose(dyn.c[k], coef[3], atol=1e-10)

        wsum = 0.0
        S = np.zeros((2, 2))
        for traj, post in zip(ds.trajectories, posts):
            for t in range(traj.T - 1):
                f = np.concatenate([traj.xs[t], traj.us[t], [1.0]])
                r = traj.xs[t + 1] - coef.T @ f
                w = post.gamma[t + 1, k]
                S += w * np.outer(r, r)
                wsum += w
        np.testing.assert_allclose(dyn.lam_cov[k], S / wsum, atol=1e-10)


def test_mstep_initial_matches_explicit_sums(monkeypatch):
    m = random_model(K=3, d_x=2, d_u=1, seed=5)
    ds = random_dataset(m, n=6, T=10, seed=5)
    posts, _ = estep(m, ds)
    monkeypatch.setattr(learning, "COVARIANCE_FLOOR", 1e-10)
    init = mstep_initial([p.gamma for p in posts], ds)
    g1 = np.stack([p.gamma[0] for p in posts])
    x1 = np.stack([t.xs[0] for t in ds.trajectories])
    np.testing.assert_allclose(init.pi, g1.sum(axis=0) / g1.sum(), atol=1e-12)
    for k in range(3):
        w = g1[:, k]
        mu = w @ x1 / w.sum()
        np.testing.assert_allclose(init.mu[k], mu, atol=1e-12)
        r = x1 - mu
        cov = (w[:, None] * r).T @ r / w.sum()
        np.testing.assert_allclose(init.omega_cov[k], cov, atol=1e-10)


def test_mstep_dynamics_is_weighted_lsq_optimum(monkeypatch):
    m = random_model(K=2, d_x=2, d_u=1, seed=6)
    ds = random_dataset(m, n=2, T=15, seed=6)
    posts, _ = estep(m, ds)
    monkeypatch.setattr(learning, "COVARIANCE_FLOOR", 1e-10)
    dyn = mstep_dynamics([p.gamma for p in posts], ds)
    X = np.concatenate([np.concatenate(
        [t.xs[:-1], t.us[:-1], np.ones((t.T - 1, 1))], axis=1)
        for t in ds.trajectories])
    Y = np.concatenate([t.xs[1:] for t in ds.trajectories])
    W = np.concatenate([p.gamma[1:] for p in posts])
    rng = np.random.default_rng(0)
    for k in range(2):
        coef = np.concatenate([dyn.A[k].T, dyn.B[k].T, dyn.c[k][None, :]])
        base = float(np.sum(W[:, k, None] * (Y - X @ coef) ** 2))
        for _ in range(5):
            pert = coef + 1e-3 * rng.standard_normal(coef.shape)
            assert float(np.sum(W[:, k, None] * (Y - X @ pert) ** 2)) > base


def test_mstep_controller_matches_explicit_sums(monkeypatch):
    m = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=7, lag=1)
    ds = random_dataset(m, n=2, T=20, seed=7)
    posts, _ = estep(m, ds)
    monkeypatch.setattr(learning, "COVARIANCE_FLOOR", 1e-8)
    ctl = mstep_controller([p.gamma for p in posts], ds, lag=1, poly_degree=1)

    def rows():
        # features [x_t; u_{t-1}; 1], the past control zero at t = 0
        for traj, post in zip(ds.trajectories, posts):
            for t in range(traj.T):
                u_prev = traj.us[t - 1] if t > 0 else np.zeros(1)
                f = np.concatenate([traj.xs[t], u_prev, [1.0]])
                yield f, traj.us[t], post.gamma[t]

    for k in range(2):
        G = 1e-8 * np.eye(4)
        b = np.zeros((4, 1))
        for f, u, g in rows():
            G += g[k] * np.outer(f, f)
            b += g[k] * np.outer(f, u)
        coef = np.linalg.solve(G, b)
        np.testing.assert_allclose(ctl.gain[k], coef[:3].T, atol=1e-10)
        np.testing.assert_allclose(ctl.offset[k], coef[3], atol=1e-10)

        wsum = 0.0
        S = np.zeros((1, 1))
        for f, u, g in rows():
            r = u - coef.T @ f
            S += g[k] * np.outer(r, r)
            wsum += g[k]
        np.testing.assert_allclose(ctl.sigma_cov[k], S / wsum, atol=1e-10)


def test_mstep_transitions_stationary_closed_form():
    rng = np.random.default_rng(8)
    K = 3
    target = rng.dirichlet(np.full(K, 2.0), size=K)     # rows: p(dest | src)
    src = rng.dirichlet(np.full(K, 2.0), size=49)
    xi = src[:, :, None] * target[None, :, :]           # xi[t, j, i]

    tm = make_transition("stationary", K, 2, 1)
    ds = random_dataset(random_model(K=K, seed=8), n=1, T=50, seed=8)
    new = mstep_transitions([xi], ds, tm)
    psi = transition_matrices(new, np.zeros((1, 2)), np.zeros((1, 1)))[0]
    np.testing.assert_allclose(psi, target.T, atol=1e-12)


def test_mstep_transitions_glm_improves_nll():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=9)
    ds = random_dataset(m, n=2, T=25, seed=9)
    posts, _ = estep(m, ds)
    xis = [p.xi for p in posts]
    before, _ = weighted_nll_and_grad(m.transition, ds, xis)
    new = mstep_transitions(xis, ds, m.transition)
    after, _ = weighted_nll_and_grad(new, ds, xis)
    assert after < before


def test_mstep_transitions_matches_tensor_path(monkeypatch):
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=10)
    ds = random_dataset(m, n=2, T=30, seed=10)
    posts, _ = estep(m, ds)
    xis = [p.xi for p in posts]
    new = mstep_transitions(xis, ds, m.transition)
    _, xi_di = reference_stack_transition_stats(m.transition, ds, xis)
    monkeypatch.setattr(learning, "_nll_grad",
                        lambda tm, vec, feats, *marginals:
                        tensor_nll_grad(tm, vec, feats, xi_di))
    ref = mstep_transitions(xis, ds, m.transition)
    assert new is not m.transition and ref is not m.transition
    np.testing.assert_allclose(params_to_vector(new), params_to_vector(ref),
                               rtol=1e-9, atol=1e-9)


SOLVER_CASES = {"linear": dict(kind="linear"),
                "polynomial:2": dict(kind="polynomial", degree=2),
                "perceptron:4": dict(kind="perceptron", hidden_units=4)}


def _solver_instance(case, seed=20):
    """Pairwise marginals of one model and a link of the same kind to improve."""
    m = random_model(K=3, d_x=2, d_u=1, seed=seed, **SOLVER_CASES[case])
    ds = random_dataset(m, n=2, T=40, seed=seed)
    posts, _ = estep(m, ds)
    tm_hat = random_model(K=3, d_x=2, d_u=1, seed=seed + 1,
                          **SOLVER_CASES[case]).transition
    return [p.xi for p in posts], ds, tm_hat


@pytest.mark.parametrize("case", SOLVER_CASES)
def test_mstep_transitions_beats_gradient_descent_within_cap(monkeypatch, case):
    xis, ds, tm_hat = _solver_instance(case)
    calls = []
    objective = learning._nll_grad

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(learning, "_nll_grad", counted)
    new = mstep_transitions(xis, ds, tm_hat)
    assert 1 < len(calls) <= learning.MAX_EVALS
    monkeypatch.undo()
    ref = reference_gd_mstep(xis, ds, tm_hat)
    got, _ = weighted_nll_and_grad(new, ds, xis)
    want, _ = weighted_nll_and_grad(ref, ds, xis)
    before, _ = weighted_nll_and_grad(tm_hat, ds, xis)
    # the linear instance has a finite optimum that both solvers reach; the
    # solver stops once a step gains less than NLL_RTOL, so it may end that
    # close above the reference's 200 evaluations
    assert ref is not tm_hat and want < before
    assert got <= want + learning.NLL_RTOL * abs(want)


@pytest.mark.parametrize("bound", [learning.STEP_BOUND, 0.05])
@pytest.mark.parametrize("case", ["linear", "perceptron:4"])
def test_mstep_transitions_steps_stay_within_bound(monkeypatch, case, bound):
    # the evaluation cap only truncates the solver's run, so the result under
    # cap c is the last iterate accepted within its first c evaluations
    xis, ds, tm_hat = _solver_instance(case)
    monkeypatch.setattr(learning, "STEP_BOUND", bound)
    iterates = [params_to_vector(tm_hat)]
    nlls = [weighted_nll_and_grad(tm_hat, ds, xis)[0]]
    for cap in range(2, learning.MAX_EVALS + 1):
        monkeypatch.setattr(learning, "MAX_EVALS", cap)
        new = mstep_transitions(xis, ds, tm_hat)
        vec = params_to_vector(new)
        if not np.array_equal(vec, iterates[-1]):
            iterates.append(vec)
            nlls.append(weighted_nll_and_grad(new, ds, xis)[0])
    assert len(iterates) > 5
    steps = np.abs(np.diff(iterates, axis=0)).max(axis=1)
    assert np.all(steps <= bound * (1.0 + 1e-12))
    assert np.all(np.diff(nlls) < 0.0)


def _lying_gradient(tm, vec, *stats):
    nll, grad = _nll_grad(tm, vec, *stats)
    return nll, -grad                                  # every step goes uphill


def _nan_away_from_start(start):
    def objective(tm, vec, *stats):
        nll, grad = _nll_grad(tm, vec, *stats)
        if np.array_equal(vec, start):
            return nll, grad
        return nll - 1.0, np.full_like(grad, np.nan)   # lower, but unusable
    return objective


def _flat(tm, vec, *stats):
    return 1.0, np.zeros_like(vec)


@pytest.mark.parametrize("objective", ["uphill", "nan_gradient", "flat"])
def test_mstep_transitions_keeps_input_without_descent(monkeypatch, objective):
    xis, ds, tm_hat = _solver_instance("linear")
    fn = {"uphill": _lying_gradient,
          "nan_gradient": _nan_away_from_start(params_to_vector(tm_hat)),
          "flat": _flat}[objective]
    monkeypatch.setattr(learning, "_nll_grad", fn)
    assert mstep_transitions(xis, ds, tm_hat) is tm_hat


def test_mstep_transitions_rejects_nonfinite_entry_gradient(monkeypatch):
    xis, ds, tm_hat = _solver_instance("linear")
    monkeypatch.setattr(learning, "_nll_grad",
                        lambda tm, vec, *rest: (1.0, np.full_like(vec, np.inf)))
    with pytest.raises(FloatingPointError, match="non-finite transition gradient"):
        mstep_transitions(xis, ds, tm_hat)


def test_empty_regime_keeps_previous_parameters(monkeypatch):
    m = random_model(K=2, d_x=2, d_u=1, seed=11)
    ds = random_dataset(m, n=2, T=10, seed=11)
    # hard labels that never visit regime 1
    gammas = [np.tile([1.0, 0.0], (t.T, 1)) for t in ds.trajectories]
    monkeypatch.setattr(learning, "COVARIANCE_FLOOR", 1e-8)
    with pytest.warns(UserWarning, match="regime 1"):
        dyn = mstep_dynamics(gammas, ds, prev=m.dynamics)
    for f in ("A", "B", "c", "lam_cov"):
        np.testing.assert_array_equal(getattr(dyn, f)[1], getattr(m.dynamics, f)[1])
    with pytest.warns(UserWarning, match="regime 1"):
        init = mstep_initial(gammas, ds, prev=m.init)
    np.testing.assert_array_equal(init.mu[1], m.init.mu[1])
    with pytest.raises(ValueError):
        mstep_dynamics(gammas, ds, prev=None)


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_fit_at_large_state_scale(scale):
    # floor_spd's covariances are symmetric only to rounding, so the symmetry
    # check must be relative to their size
    ds = collect_trajectories(default_config("pendulum"), 4, 0, T=100)
    big = Dataset([Trajectory(xs=scale * t.xs, us=t.us, dt=t.dt, id=t.id)
                   for t in ds])
    fit, hist = fit_em(big, FitConfig(K=2, transition_kind="linear", restarts=2))
    assert np.isfinite(hist.loglik[-1])


def test_fit_is_deterministic():
    m = random_model(K=2, d_x=2, d_u=1, kind="linear", seed=12)
    ds = random_dataset(m, n=2, T=20, seed=12)
    cfg = FitConfig(K=2, transition_kind="linear", max_iters=8, restarts=2, seed=5)
    fit1, h1 = fit_em(ds, cfg)
    fit2, h2 = fit_em(ds, cfg)
    assert models_equal(fit1, fit2)
    assert h1.loglik == h2.loglik and h1.q_value == h2.q_value


def test_initialize_produces_valid_model():
    m = random_model(K=3, d_x=2, d_u=1, mode=CLOSED_LOOP, seed=13, lag=1)
    ds = random_dataset(m, n=3, T=25, seed=13)
    cfg = FitConfig(K=3, mode=CLOSED_LOOP, transition_kind="perceptron:8", lag=1)
    start = initialize(ds, cfg, np.random.default_rng(0))
    assert start.K == 3 and start.transition.kind == "perceptron"
    assert start.transition.hidden_units == 8
    assert start.controllers.gain.shape == (3, 1, 3)
    # sticky bias on the diagonal
    np.testing.assert_allclose(np.diag(start.transition.bias), 2.0)
    posts, ll = estep(start, ds)
    assert np.isfinite(ll)


def test_kmeans_reseeds_a_cluster_its_reseed_empties():
    # heavy-tailed 2-D points on which the reference's re-seed moves the only
    # member of an earlier cluster, so its next round averages an empty one
    r = np.random.default_rng(1063)
    n, K = int(r.integers(5, 30)), int(r.integers(2, 9))
    pts = r.standard_normal((n, 2)) * np.exp(r.standard_normal((n, 1)) * 1.5)
    with pytest.warns(RuntimeWarning, match="Mean of empty slice"), np.errstate(invalid="ignore"):
        reference_kmeans(pts, K, np.random.default_rng(1063))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = _kmeans(pts, K, np.random.default_rng(1063))
    assert np.bincount(labels, minlength=K).min() >= 1


@pytest.mark.filterwarnings("ignore:regime .* no (initial-state|dynamics) weight")
@pytest.mark.parametrize("K", [2, 5, 8])
@pytest.mark.parametrize("lag", [0, 2])
def test_closed_loop_initialize_gives_every_regime_controller_weight(monkeypatch, K, lag):
    weights = []

    def spy(gammas, *args, **kwargs):
        weights.append(sum(g.sum(axis=0) for g in gammas))
        return mstep_controller(gammas, *args, **kwargs)

    monkeypatch.setattr(learning, "mstep_controller", spy)
    cfg = FitConfig(K=K, mode=CLOSED_LOOP, transition_kind="linear", lag=lag)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        trajs = [Trajectory(xs=rng.standard_normal((T, 2)) ** 3, us=rng.standard_normal((T, 1)),
                            dt=0.1) for T in rng.integers(3, 30, size=3)]
        initialize(Dataset(trajs), cfg, rng)
        assert len(weights) == seed + 1 and weights[-1].min() >= 1.0


def test_two_regime_recovery_small():
    # drift +1 / drift -1 around a shared contraction, sticky switching
    K, d_x = 2, 1
    init = InitialModel(pi=np.array([0.5, 0.5]), mu=np.array([[2.0], [-2.0]]),
                        omega_cov=np.full((2, 1, 1), 0.01))
    dyn = Dynamics(A=np.full((2, 1, 1), 0.5), B=np.zeros((2, 1, 0)), c=[[1.0], [-1.0]],
                   lam_cov=np.full((2, 1, 1), 0.0025))
    tm = make_transition("stationary", K, d_x, 0,
                         bias=np.log(np.array([[0.95, 0.05], [0.05, 0.95]])))
    true = HybridModel(init=init, dynamics=dyn, transition=tm)
    rng = np.random.default_rng(0)
    trajs = [Trajectory(*reference_sample_trajectory(true, 200, rng,
                                                     exogenous_us=np.zeros((200, 0)))[:2],
                        dt=1.0, id=f"r{i}") for i in range(4)]
    ds = Dataset(trajs)
    cfg = FitConfig(K=2, max_iters=50, restarts=2, seed=0)
    fit, _ = fit_em(ds, cfg)
    got = sorted(zip(fit.dynamics.A[:, 0, 0], fit.dynamics.c[:, 0]))
    want = sorted(zip(dyn.A[:, 0, 0], dyn.c[:, 0]))
    for (a_g, c_g), (a_w, c_w) in zip(got, want):
        assert abs(a_g - a_w) < 0.05
        assert abs(c_g - c_w) < 0.1


def test_closed_loop_fit_smoke():
    m = random_model(K=2, d_x=2, d_u=1, mode=CLOSED_LOOP, kind="linear",
                     seed=14, lag=1)
    ds = random_dataset(m, n=3, T=30, seed=14)
    cfg = FitConfig(K=2, mode=CLOSED_LOOP, transition_kind="linear", lag=1,
                    max_iters=10, restarts=1, seed=0)
    fit, hist = fit_em(ds, cfg)
    assert fit.mode == CLOSED_LOOP and fit.controllers is not None
    ll = np.asarray(hist.loglik)
    assert np.all(np.diff(ll) >= -1e-8 * (1.0 + np.abs(ll[:-1])))


def _fail_mstep_dynamics(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(learning, "mstep_dynamics", fail)


def test_all_restarts_failing_raises(monkeypatch):
    # a numerical failure in every restart is absorbed, then reported at once
    _fail_mstep_dynamics(monkeypatch, FloatingPointError("non-finite regression"))
    ds = random_dataset(random_model(K=2, seed=4), n=2, T=20, seed=4)
    with pytest.warns(UserWarning, match="restart 1 .* non-finite regression"):
        with pytest.raises(RuntimeError, match="all EM restarts failed: seed 0: "
                                               "non-finite regression; seed 1"):
            fit_em(ds, FitConfig(K=2, restarts=2, seed=0))


def test_value_error_inside_em_propagates(monkeypatch):
    # a ValueError is a data or programming error, not a failed restart
    error = ValueError("programming error inside the M-step")
    _fail_mstep_dynamics(monkeypatch, error)
    ds = random_dataset(random_model(K=2, seed=4), n=2, T=20, seed=4)
    with pytest.raises(ValueError) as info:
        fit_em(ds, FitConfig(K=2, restarts=2, seed=0))
    assert info.value is error


def test_kmeans_data_error_reaches_caller():
    # a single two-step trajectory cannot seed two k-means clusters at any seed
    traj = Trajectory(xs=np.zeros((2, 2)), us=np.zeros((2, 1)), dt=0.1, id="z")
    ds = Dataset([traj])
    with pytest.raises(ValueError, match="k-means needs at least 2 distinct points"):
        fit_em(ds, FitConfig(K=2, restarts=2, seed=0))
    # rows that differ only in the sign of a zero count once: K - 1 distinct
    # rows plus their -0.0 twins are still too few
    rows = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    twins = np.where(rows == 0.0, -0.0, rows)
    assert np.signbit(twins).sum() == 4
    with pytest.raises(ValueError, match="k-means needs at least 4 distinct points, got 3"):
        _kmeans(np.concatenate([rows, twins, rows]), 4, np.random.default_rng(0))


def test_history_csv_format():
    h = FitHistory()
    h.append(-12.5, -13.0, 0.37)
    h.append(-11.0, -11.25, 0.41)
    text = h.to_csv(include_timings=False, header_lines=("seed=0",))
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=0"
    assert lines[1] == "iter,loglik,q_value,seconds"
    assert lines[2] == "0,-12.5,-13.0,0.0"
    assert lines[3] == "1,-11.0,-11.25,0.0"
    timed = h.to_csv(include_timings=True)
    assert "0.37" in timed


def test_loglik_invariant_under_regime_permutation():
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=15)
    ds = random_dataset(m, n=2, T=15, seed=15)
    perm = np.array([2, 0, 1])
    W = m.transition.feature_params.reshape(3, 3)  # (K, d_x + d_u)
    pm = HybridModel(
        init=InitialModel(pi=m.init.pi[perm], mu=m.init.mu[perm],
                          omega_cov=m.init.omega_cov[perm]),
        dynamics=Dynamics(*(getattr(m.dynamics, f)[perm]
                            for f in ("A", "B", "c", "lam_cov"))),
        transition=replace(m.transition, bias=m.transition.bias[np.ix_(perm, perm)],
                           feature_params=W[perm].ravel()),
        controllers=None)
    _, ll = estep(m, ds)
    _, pll = estep(pm, ds)
    assert pll == pytest.approx(ll, rel=1e-12)
