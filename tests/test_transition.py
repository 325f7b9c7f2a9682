import re
from dataclasses import replace

import numpy as np
import pytest

from rarhmm.inference import estep
from rarhmm.learning import FitConfig, fit_em
from rarhmm.model import Dataset, Trajectory, model_from_dict, model_to_dict
from rarhmm.transition import (PERCEPTRON_HIDDEN_UNITS, TransitionModel, _nll_grad,
                               make_transition, n_feature_params, params_to_vector,
                               parse_transition_spec, transition_features,
                               transition_matrices, transition_stats,
                               vector_to_params, weighted_nll_and_grad)

from util import (random_dataset, random_model, random_trajectory, random_xis,
                  reference_stack_transition_stats, reference_transition_matrices,
                  reference_transition_stats, tensor_nll_grad)

# explicit ids, so removing a case does not renumber the others
KIND_CASES = [pytest.param("linear", {}, id="linear-kw0"),
              pytest.param("polynomial", {"degree": 3}, id="polynomial-kw2"),
              pytest.param("perceptron", {"hidden_units": 4}, id="perceptron-kw3"),
              pytest.param("stationary", {}, id="stationary-kw4")]


def test_parse_transition_spec():
    # resolved defaults: degree 1 and width 0 unless the kind takes them
    assert parse_transition_spec("stationary") == ("stationary", 1, 0)
    assert parse_transition_spec("linear") == ("linear", 1, 0)
    assert parse_transition_spec("polynomial") == ("polynomial", 1, 0)
    assert parse_transition_spec("polynomial:3") == ("polynomial", 3, 0)
    assert parse_transition_spec("perceptron:24") == ("perceptron", 1, 24)
    assert parse_transition_spec("Perceptron") == ("perceptron", 1, PERCEPTRON_HIDDEN_UNITS)
    assert PERCEPTRON_HIDDEN_UNITS == 16
    # a malformed spec is named, with the grammar it breaks
    grammar = "is not one of stationary, linear, polynomial[:DEGREE] or perceptron[:UNITS]"
    for spec in ("linear:3", "stationary:1", "polynomial:x", "perceptron:4.5",
                 "foo", ""):
        with pytest.raises(ValueError, match=f"^transition spec {spec!r} "
                                             f"{re.escape(grammar)}$"):
            parse_transition_spec(spec)
    with pytest.raises(ValueError, match="^polynomial transition needs degree >= 1, got 0$"):
        parse_transition_spec("polynomial:0")
    with pytest.raises(ValueError, match="^perceptron transition needs hidden units >= 1, "
                                         "got -2$"):
        parse_transition_spec("perceptron:-2")


@pytest.mark.parametrize("kind, size, message", [
    ("polynomial", dict(degree=0), "polynomial transition needs degree >= 1, got 0"),
    ("perceptron", dict(hidden_units=0), "perceptron transition needs hidden units >= 1, "
                                         "got 0")])
def test_link_size_rule_holds_for_direct_construction_and_files(kind, size, message):
    # the spec parser, direct construction and model files share one rule
    tm = make_transition(kind, 2, 2, 1, **({"degree": 2} if kind == "polynomial"
                                           else {"hidden_units": 3}))
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(tm, **size)
    doc = model_to_dict(random_model(K=2, d_x=2, d_u=1, kind=kind, seed=3))
    doc["transition"].update(size)
    with pytest.raises(ValueError, match=f"^{message}$"):
        model_from_dict(doc)


def _random_tm(kind, K, d_x, d_u, seed, scale=0.8, **kw):
    rng = np.random.default_rng(seed)
    tm = make_transition(kind, K, d_x, d_u, bias=scale * rng.standard_normal((K, K)), **kw)
    return replace(tm, feature_params=scale * rng.standard_normal(tm.feature_params.size))


def _random_instance(kind, seed, K=2, d_x=2, d_u=1, T=6, n=2, **kw):
    rng = np.random.default_rng(seed)
    tm = _random_tm(kind, K, d_x, d_u, seed + 1000, **kw)
    trajs = [Trajectory(xs=rng.standard_normal((T, d_x)),
                        us=rng.standard_normal((T, d_u)), dt=0.1, id=str(i))
             for i in range(n)]
    ds = Dataset(trajs)
    xis = [random_xis(rng, T, K) for _ in range(n)]
    return tm, ds, xis


def _matrix(tm, x, u):
    """The link matrix (K, K) at one input x (d_x,), u (d_u,)."""
    return transition_matrices(tm, np.asarray(x)[None], np.asarray(u)[None])[0]


def test_uniform_for_zero_bias():
    tm = make_transition("stationary", 4, 2, 1)
    np.testing.assert_allclose(_matrix(tm, np.zeros(2), np.zeros(1))[:, 1],
                               np.full(4, 0.25), atol=1e-15)


def test_stationary_hand_softmax():
    tm = make_transition("stationary", 2, 2, 0)
    tm = type(tm)(kind="stationary", d_x=2, d_u=0,
                  bias=np.array([[np.log(3.0), 0.0], [0.0, 0.0]]),
                  feature_params=np.zeros(0), feat_mean=np.zeros(2),
                  feat_std=np.ones(2))
    np.testing.assert_allclose(_matrix(tm, np.zeros(2), np.zeros(0))[:, 0],
                               [0.75, 0.25], atol=1e-15)


def test_linear_with_zero_weights_matches_stationary():
    rng = np.random.default_rng(0)
    bias = rng.standard_normal((3, 3))
    lin = make_transition("linear", 3, 2, 1, bias=bias)
    sta = make_transition("stationary", 3, 2, 1, bias=bias)
    for s in range(5):
        x, u = rng.standard_normal(2), rng.standard_normal(1)
        np.testing.assert_array_equal(_matrix(lin, x, u), _matrix(sta, x, u))


def test_single_regime_matrix():
    tm = _random_tm("perceptron", 1, 2, 1, seed=4, hidden_units=3)
    np.testing.assert_allclose(_matrix(tm, np.ones(2), np.ones(1)),
                               [[1.0]], atol=1e-15)


def test_stationary_matrix_independent_of_inputs():
    tm = _random_tm("stationary", 3, 2, 1, seed=7)
    rng = np.random.default_rng(1)
    ref = _matrix(tm, rng.standard_normal(2), rng.standard_normal(1))
    for _ in range(10):
        m = _matrix(tm, 10 * rng.standard_normal(2), rng.standard_normal(1))
        np.testing.assert_array_equal(m, ref)


def test_saturating_weights_give_one_hot_columns():
    tm = make_transition("perceptron", 2, 2, 1, hidden_units=4)
    # drive hidden unit 0 with x1 and read it out with a big weight split
    w1 = np.zeros((4, 3)); w1[0, 0] = 5.0
    b1 = np.zeros(4)
    w2 = np.zeros((2, 4)); w2[0, 0] = 20.0; w2[1, 0] = -20.0
    b2 = np.zeros(2)
    params = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    tm = vector_to_params(tm, np.concatenate([np.zeros(4), params]))
    for x1 in (10.0, -10.0):
        cols = _matrix(tm, np.array([x1, 0.0]), np.zeros(1))
        assert cols.max(axis=0).min() >= 0.999


def test_shift_invariance():
    tm = _random_tm("linear", 3, 2, 1, seed=11)
    rng = np.random.default_rng(2)
    x, u = rng.standard_normal(2), rng.standard_normal(1)
    ref = _matrix(tm, x, u)[:, 1]
    shifted = type(tm)(kind=tm.kind, d_x=tm.d_x, d_u=tm.d_u,
                       bias=tm.bias + 123.456, feature_params=tm.feature_params,
                       feat_mean=tm.feat_mean, feat_std=tm.feat_std)
    np.testing.assert_allclose(_matrix(shifted, x, u)[:, 1], ref, atol=1e-12)


def test_column_stochastic_many_draws():
    rng = np.random.default_rng(99)
    kinds = ["stationary", "linear", "polynomial", "perceptron"]
    for i in range(10 ** 4):
        kind = kinds[i % 4]
        K = int(rng.integers(1, 5))
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(0, 3))
        tm = make_transition(kind, K, d_x, d_u, degree=2, hidden_units=3,
                             bias=3 * rng.standard_normal((K, K)))
        tm = replace(tm, feature_params=2.0 * rng.standard_normal(tm.feature_params.size))
        p = transition_matrices(tm, rng.standard_normal((2, d_x)),
                                rng.standard_normal((2, d_u)))
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_rejects_nonfinite_inputs():
    tm = _random_tm("linear", 2, 2, 1, seed=13)
    with pytest.raises(ValueError):
        _matrix(tm, np.array([np.nan, 0.0]), np.zeros(1))
    with pytest.raises(ValueError):
        _matrix(tm, np.array([np.inf, 0.0]), np.zeros(1))


def test_stationary_matrices_equal_generic_formula():
    rng = np.random.default_rng(14)
    tm = _random_tm("stationary", 4, 2, 1, seed=14)
    xs, us = rng.standard_normal((7, 2)), rng.standard_normal((7, 1))
    logits = np.broadcast_to(tm.bias, (7, 4, 4))
    z = logits - logits.max(axis=1, keepdims=True)
    generic = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
    assert np.array_equal(transition_matrices(tm, xs, us), generic)
    assert transition_matrices(tm, xs[:0], us[:0]).shape == (0, 4, 4)
    with pytest.raises(ValueError):
        transition_matrices(tm, np.where(xs > 1.0, np.nan, xs), us)
    with pytest.raises(ValueError):
        transition_matrices(tm, xs, np.full((7, 1), np.inf))
    with pytest.raises(ValueError):
        transition_matrices(tm, xs, np.zeros((6, 1)))


@pytest.mark.parametrize("kind,kw", KIND_CASES)
@pytest.mark.parametrize("M", [1, 1194])
def test_matrices_equal_source_major_formula(kind, kw, M):
    rng = np.random.default_rng(M)
    tm = _random_tm(kind, 5, 3, 1, seed=15, scale=2.0, **kw)
    xs, us = 3 * rng.standard_normal((M, 3)), rng.standard_normal((M, 1))
    got = transition_matrices(tm, xs, us)
    assert got.shape == (M, 5, 5)
    assert np.array_equal(got, reference_transition_matrices(tm, xs, us))


@pytest.mark.parametrize("kind,kw", KIND_CASES)
def test_link_inputs_must_be_finite_rows_of_the_link_dims(kind, kw):
    # transition_features is the one entry point for link inputs, so every
    # kind checks them; a stationary link reads no feature, and given (4, 5)
    # states it used to return a (4, K, K) stack
    tm = _random_tm(kind, 5, 3, 1, seed=16, **kw)
    xs, us = np.zeros((4, 3)), np.zeros((4, 1))
    assert transition_matrices(tm, xs, us).shape == (4, 5, 5)
    for bad in (np.nan, np.inf, -np.inf):
        bad_x, bad_u = xs.copy(), us.copy()
        bad_x[2, 1], bad_u[3, 0] = bad, bad
        for x, u in ((bad_x, us), (xs, bad_u)):
            for link in (transition_features, transition_matrices):
                with pytest.raises(ValueError, match="^transition inputs must be finite$"):
                    link(tm, x, u)
    shapes = re.escape("transition inputs must be xs (M, 3) and us (M, 1), got ")
    for x, u in ((np.zeros((4, 5)), us), (np.zeros((4, 2)), np.zeros((4, 2))),  # x width
                 (xs, np.zeros((4, 2))), (xs, np.zeros((4, 0))),              # u width
                 (xs, np.zeros((3, 1))),                                      # rows
                 (np.zeros(3), np.zeros(1)), (xs, np.zeros(4)),               # 1-D
                 (xs[None], us[None]), (xs, us[None])):                       # 3-D
        for link in (transition_features, transition_matrices):
            with pytest.raises(ValueError, match=f"^{shapes}"):
                link(tm, x, u)


def test_link_compares_and_hashes_by_identity_as_the_regime_blocks_do():
    # array fields make a field-wise == ambiguous, so == is identity
    links = make_transition("linear", 2, 2, 1), make_transition("linear", 2, 2, 1)
    dyn = random_model(K=2, d_x=2, d_u=1, seed=0).dynamics
    for a, b in (links, (dyn, replace(dyn))):
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_nll_degenerate_target_drives_prob_to_one():
    # all mass on 0 -> 0: the closed-form optimum puts psi_00 -> 1, NLL -> 0
    tm = make_transition("stationary", 2, 1, 0)
    traj = Trajectory(xs=np.zeros((3, 1)), us=np.zeros((3, 0)), dt=0.1)
    ds = Dataset([traj])
    xi = np.zeros((2, 2, 2)); xi[:, 0, 0] = 1.0
    big = type(tm)(kind="stationary", d_x=1, d_u=0,
                   bias=np.array([[30.0, 0.0], [0.0, 0.0]]),
                   feature_params=np.zeros(0), feat_mean=np.zeros(1),
                   feat_std=np.ones(1))
    nll, _ = weighted_nll_and_grad(big, ds, [xi])
    assert nll < 1e-8


def test_nll_uniform_over_four_cells():
    tm = make_transition("stationary", 2, 1, 0)
    traj = Trajectory(xs=np.zeros((2, 1)), us=np.zeros((2, 0)), dt=0.1)
    ds = Dataset([traj])
    xi = np.full((1, 2, 2), 0.25)
    nll, _ = weighted_nll_and_grad(tm, ds, [xi])
    np.testing.assert_allclose(nll, np.log(2.0), rtol=1e-12)


def _fd_grad(tm, stats, vec, eps=1e-6):
    g = np.zeros_like(vec)
    for i in range(len(vec)):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += eps
        vm[i] -= eps
        fp, _ = _nll_grad(tm, vp, *stats)
        fm, _ = _nll_grad(tm, vm, *stats)
        g[i] = (fp - fm) / (2 * eps)
    return g


@pytest.mark.parametrize("kind,kw", KIND_CASES)
def test_gradient_matches_finite_differences(kind, kw):
    for seed in range(5):
        tm, ds, xis = _random_instance(kind, seed, **kw)
        nll, grad = weighted_nll_and_grad(tm, ds, xis)
        fd = _fd_grad(tm, transition_stats(tm, ds, xis), params_to_vector(tm))
        err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-5, f"{kind} seed {seed}: rel err {err:.2e}"


def _assert_matches_tensor_reference(tm, ds, xis):
    nll, grad = weighted_nll_and_grad(tm, ds, xis)
    feats, xi = reference_stack_transition_stats(tm, ds, xis)
    ref_nll, ref_grad = tensor_nll_grad(tm, params_to_vector(tm), feats, xi)
    np.testing.assert_allclose(nll, ref_nll, rtol=1e-10)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10,
                               atol=1e-10 * np.abs(ref_grad).max())
    return nll


@pytest.mark.parametrize("kind,kw", KIND_CASES)
def test_objective_matches_tensor_reference(kind, kw):
    for seed in range(5):
        _assert_matches_tensor_reference(
            *_random_instance(kind, seed, K=2 + seed % 3, **kw))


def test_objective_recomputes_underflowing_normalizer():
    # link logits [400, -400] against bias columns spread by 800 nats: the
    # shifted normalizer of source 1 is exp(-800) + exp(-800), which underflows
    tm = make_transition("linear", 2, 1, 0,
                         bias=np.array([[0.0, -800.0], [-800.0, 0.0]]))
    tm = vector_to_params(tm, np.concatenate([tm.bias.ravel(), [-4.0, 4.0]]))
    traj = Trajectory(xs=np.array([[-100.0], [0.0]]), us=np.zeros((2, 0)), dt=0.1)
    ds = Dataset([traj])
    xi = np.array([[[0.5, 0.0], [0.0, 0.5]]])
    nll = _assert_matches_tensor_reference(tm, ds, [xi])
    np.testing.assert_allclose(nll, 0.5 * np.log(2.0), rtol=1e-12)


def test_fd_check_perceptron_seed0_example():
    tm, ds, xis = _random_instance("perceptron", 0, K=2, T=6, n=1,
                                   hidden_units=4)
    nll, grad = weighted_nll_and_grad(tm, ds, xis)
    fd = _fd_grad(tm, transition_stats(tm, ds, xis), params_to_vector(tm))
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5


@pytest.mark.parametrize("kind,kw", KIND_CASES)
def test_transition_stats_equal_stacked_reference(kind, kw):
    # mixed lengths, T = 2 included, so the per-trajectory blocks are uneven
    m = random_model(K=3, d_x=2, d_u=1, kind=kind, seed=21, **kw)
    train = Dataset(
        [random_trajectory(m, T=T, seed=s)[0] for s, T in enumerate((17, 2, 30, 5))])
    xis = [p.xi for p in estep(m, train)[0]]
    got = transition_stats(m.transition, train, xis)
    want = reference_transition_stats(m.transition, train, xis)
    for g, w in zip(got, want):
        assert g.flags.c_contiguous and g.shape == w.shape
        assert np.array_equal(g, w)
    # the benchmark's replay call: one objective evaluation at the fit's own
    # posteriors equals the reference path's bit for bit
    nll, grad = weighted_nll_and_grad(m.transition, train, xis)
    ref_nll, ref_grad = _nll_grad(m.transition, params_to_vector(m.transition), *want)
    assert nll == ref_nll and np.array_equal(grad, ref_grad)


def test_param_vector_roundtrip():
    tm = _random_tm("perceptron", 3, 2, 2, seed=17, hidden_units=5)
    vec = params_to_vector(tm)
    tm2 = vector_to_params(tm, vec)
    np.testing.assert_array_equal(params_to_vector(tm2), vec)
    assert vec.size == 9 + n_feature_params("perceptron", 3, 2, 2, hidden_units=5)


def test_link_copies_its_arrays_and_leaves_them_read_only():
    rng = np.random.default_rng(3)
    bias, mean, std = rng.standard_normal((2, 2)), rng.standard_normal(3), np.ones(3)
    params = rng.standard_normal(6)
    tm = TransitionModel(kind="linear", d_x=2, d_u=1, bias=bias, feature_params=params,
                         feat_mean=mean, feat_std=std)
    assert tm.K == 2
    x, u = rng.standard_normal(2), rng.standard_normal(1)
    before = _matrix(tm, x, u)
    for a in (bias, params, mean, std):
        a[...] = 5.0                       # the caller's arrays stay writeable
    np.testing.assert_array_equal(_matrix(tm, x, u), before)
    ds = random_dataset(random_model(K=2, d_x=2, d_u=1, kind="linear", seed=4), n=2,
                        T=20, seed=4)
    fitted, _ = fit_em(ds, FitConfig(K=2, transition_kind="linear", max_iters=2,
                                     restarts=1))
    for link in (tm, fitted.transition):
        for name in ("bias", "feature_params", "feat_mean", "feat_std"):
            a = getattr(link, name)
            assert a.flags.c_contiguous and a.dtype == float, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def test_link_reads_k_from_a_square_bias():
    for bias in (np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(4)):
        with pytest.raises(ValueError, match="bias must"):
            TransitionModel(kind="stationary", d_x=1, d_u=0, bias=bias,
                            feature_params=np.zeros(0), feat_mean=np.zeros(1),
                            feat_std=np.ones(1))


def test_feature_param_count_validation():
    with pytest.raises(ValueError):
        TransitionModel(kind="linear", d_x=2, d_u=1, bias=np.zeros((2, 2)),
                        feature_params=np.zeros(3), feat_mean=np.zeros(3),
                        feat_std=np.ones(3))


def test_degree_one_polynomial_is_the_linear_link():
    # linear, polynomial:1 and a bare polynomial are one affine link on the
    # standardized inputs, bit for bit
    m = random_model(K=3, d_x=2, d_u=1, kind="linear", seed=23)
    ds = Dataset([random_trajectory(m, T=T, seed=s)[0]
                  for s, T in enumerate((25, 12))])
    xis = [p.xi for p in estep(m, ds)[0]]
    runs = []
    for spec in ("linear", "polynomial:1", "polynomial"):
        kind, degree, _ = parse_transition_spec(spec)
        tm = _random_tm(kind, 3, 2, 1, seed=24, degree=degree)
        stats = transition_stats(tm, ds, xis)
        fit, hist = fit_em(ds, FitConfig(K=3, transition_kind=spec, max_iters=3,
                                         restarts=1, seed=0))
        doc = model_to_dict(fit)
        doc["transition"].pop("kind")
        doc["transition"].pop("degree", None)
        runs.append((transition_matrices(tm, ds.trajectories[0].xs, ds.trajectories[0].us),
                     *_nll_grad(tm, params_to_vector(tm), *stats), doc,
                     hist.loglik, hist.q_value))
    (mats, nll, grad, doc, ll, q), *others = runs
    for o_mats, o_nll, o_grad, o_doc, o_ll, o_q in others:
        assert np.array_equal(mats, o_mats)
        assert nll == o_nll and np.array_equal(grad, o_grad)
        assert doc == o_doc and ll == o_ll and q == o_q
