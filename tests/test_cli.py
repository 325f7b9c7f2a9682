import argparse
import hashlib
import json

import numpy as np
import pytest

from rarhmm import __version__, cli
from rarhmm.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from rarhmm.envs import (default_config, hanging_state, load_dataset, load_manifest,
                         observe, save_manifest)
from rarhmm.evaluation import count_params
from rarhmm.learning import FitConfig
from rarhmm.model import CLOSED_LOOP, OPEN_LOOP, load_model
from rarhmm.transition import KINDS, PERCEPTRON_HIDDEN_UNITS

import cli_protocol
from test_policy import _closed_loop_model
from util import random_model, save_model


def _run(*argv):
    return main(list(argv))


def _tree_digest(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _simulate_small(out, env="pendulum", **extra):
    argv = ["simulate", "--env", env, "--n-train", "4", "--n-test", "2",
            "--steps", "40", "--n-splits", "3", "--split-size", "2",
            "--out-dir", str(out)]
    for k, v in extra.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    assert _run(*argv) == EXIT_OK


def test_simulate_twice_is_byte_identical(tmp_path):
    out = tmp_path / "data"
    _simulate_small(out)
    first = _tree_digest(out)
    _simulate_small(out)
    assert _tree_digest(out) == first
    assert set(first) == {"train.ndjson", "test.ndjson", "splits.json",
                          "run.json"}


def test_cli_protocol_listing_is_reproducible(tmp_path):
    # the listing that compares two builds file by file: equal across runs,
    # independent of the output directory, and covering every command
    first = cli_protocol.run_protocol(tmp_path / "a", tiny=True)
    assert cli_protocol.run_protocol(tmp_path / "b" / "c", tiny=True) == first
    paths = {line.split("  ", 1)[1] for line in first}
    assert {"stdout.txt", "fit/model_split01.json", "eval_argmax/report.csv",
            "fit_ragged/model.json", "eval_ragged/report.csv", "distill/distilled.json",
            "rollout_mean/episode001_belief.csv",
            "rollout_sample/episode001.ndjson"} <= paths
    with pytest.raises(ValueError, match="is not empty"):
        cli_protocol.run_protocol(tmp_path / "a", tiny=True)


def test_simulate_ball_defaults(tmp_path):
    out = tmp_path / "ball"
    assert _run("simulate", "--env", "bouncing_ball",
                "--out-dir", str(out)) == EXIT_OK
    train = load_dataset(out / "train.ndjson")
    assert len(train) == 25
    assert all(t.T == 600 for t in train.trajectories)
    assert len(load_dataset(out / "test.ndjson")) == 5
    splits = load_manifest(out / "splits.json")
    assert len(splits) == 24 and all(len(s) == 10 for s in splits)


def test_simulate_pendulum_default_steps(tmp_path):
    out = tmp_path / "pend"
    assert _run("simulate", "--env", "pendulum", "--n-train", "2",
                "--n-test", "1", "--n-splits", "2", "--split-size", "1",
                "--out-dir", str(out)) == EXIT_OK
    train = load_dataset(out / "train.ndjson")
    assert all(t.T == 250 for t in train.trajectories)


def test_fit_k1_history_monotone(tmp_path):
    data = tmp_path / "d"
    _simulate_small(data)
    out = tmp_path / "fit"
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "1",
                "--max-iters", "10", "--restarts", "1",
                "--out-dir", str(out)) == EXIT_OK
    rows = [l for l in (out / "history.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("iter")]
    lls = [float(r.split(",")[1]) for r in rows]
    assert all(b >= a - 1e-8 * (1 + abs(a)) for a, b in zip(lls, lls[1:]))
    model = load_model(out / "model.json")
    assert model.K == 1


def test_fit_refit_converges_immediately(tmp_path):
    # stationary transitions reach the EM fixed point in a handful of steps,
    # so the warm restart has a genuinely converged model to resume from
    data = tmp_path / "d"
    _simulate_small(data)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "2",
                "--transition", "stationary", "--max-iters", "80",
                "--restarts", "1", "--out-dir", str(out1)) == EXIT_OK
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "2",
                "--transition", "stationary", "--max-iters", "40",
                "--restarts", "1", "--init-model", str(out1 / "model.json"),
                "--out-dir", str(out2)) == EXIT_OK
    rows = [l for l in (out2 / "history.csv").read_text().splitlines()
            if l and l[0].isdigit()]
    assert len(rows) <= 2  # at most one EM step from a converged point


def test_fit_manifest_writes_per_split(tmp_path):
    data = tmp_path / "d"
    _simulate_small(data)
    out = tmp_path / "fits"
    assert _run("fit", "--data", str(data / "train.ndjson"),
                "--manifest", str(data / "splits.json"), "--K", "1",
                "--max-iters", "3", "--restarts", "1",
                "--out-dir", str(out)) == EXIT_OK
    for i in range(3):
        assert (out / f"model_split{i:02d}.json").exists()
        assert (out / f"history_split{i:02d}.csv").exists()


def test_fit_and_eval_deterministic(tmp_path):
    data = tmp_path / "d"
    _simulate_small(data)
    fit = tmp_path / "fit"
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "2",
                "--transition", "linear", "--max-iters", "4",
                "--restarts", "2", "--out-dir", str(fit)) == EXIT_OK
    first = _tree_digest(fit)
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "2",
                "--transition", "linear", "--max-iters", "4",
                "--restarts", "2", "--out-dir", str(fit)) == EXIT_OK
    assert _tree_digest(fit) == first

    ev = tmp_path / "ev"
    args = ("eval", "--test", str(data / "test.ndjson"), "--model",
            f"m={fit / 'model.json'}", "--horizons", "1,3",
            "--out-dir", str(ev))
    assert _run(*args) == EXIT_OK
    first = _tree_digest(ev)
    assert _run(*args) == EXIT_OK
    assert _tree_digest(ev) == first
    header = [l for l in (ev / "report.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "model_tag,K,h,nmse_mean,nmse_std,n_splits"
    assert (ev / "report_long.csv").exists()


def test_eval_missing_models_is_runtime_error(tmp_path, capsys):
    data = tmp_path / "d"
    _simulate_small(data)
    assert _run("eval", "--test", str(data / "test.ndjson"), "--model",
                f"m={tmp_path}/nope*.json",
                "--out-dir", str(tmp_path / "ev")) == EXIT_RUNTIME
    assert "no model files match" in capsys.readouterr().err


def test_eval_rejects_a_repeated_model_tag(tmp_path, capsys):
    data = tmp_path / "d"
    _simulate_small(data)
    for name in ("a", "b"):
        save_model(tmp_path / f"{name}.json", random_model(K=2, d_x=2, d_u=1, seed=1))
    ev = tmp_path / "ev"
    assert _run("eval", "--test", str(data / "test.ndjson"),
                "--model", f"m={tmp_path}/a*.json", "--model", f"m={tmp_path}/b.json",
                "--out-dir", str(ev)) == EXIT_RUNTIME
    assert "model tag 'm' is given more than once" in capsys.readouterr().err
    assert not ev.exists()


def test_eval_rejects_a_repeated_horizon(tmp_path, capsys):
    # it used to write the repeated horizon's row to report.csv twice
    data = tmp_path / "d"
    _simulate_small(data)
    save_model(tmp_path / "a.json", random_model(K=2, d_x=2, d_u=1, seed=1))
    ev = tmp_path / "ev"
    with pytest.raises(SystemExit) as ei:
        _run("eval", "--test", str(data / "test.ndjson"), "--model",
             f"m={tmp_path}/a.json", "--horizons", "1,1,5", "--out-dir", str(ev))
    assert ei.value.code == EXIT_USAGE
    assert "--horizons gives horizon 1 more than once" in capsys.readouterr().err
    assert not ev.exists()


def test_eval_stamps_no_seed(tmp_path):
    # eval draws nothing; its headers and provenance used to carry seed=0
    data = tmp_path / "d"
    _simulate_small(data)
    save_model(tmp_path / "a.json", random_model(K=2, d_x=2, d_u=1, seed=1))
    ev = tmp_path / "ev"
    assert _run("eval", "--test", str(data / "test.ndjson"), "--model",
                f"m={tmp_path}/a.json", "--horizons", "1,3", "--out-dir", str(ev)) == EXIT_OK
    prov = json.loads((ev / "run.json").read_text())["provenance"]
    assert sorted(prov) == ["config_sha256", "version"]
    for name in ("report.csv", "report_long.csv"):
        lines = (ev / name).read_text().splitlines()
        assert lines[:2] == [f"# config_sha256={prov['config_sha256']}",
                             f"# version={__version__}"]
        assert not any(line.startswith("# seed=") for line in lines)


def test_distill_rollout_pipeline(tmp_path, capsys):
    demos = tmp_path / "demos"
    assert _run("simulate", "--env", "pendulum", "--policy", "expert",
                "--n-train", "3", "--n-test", "1", "--steps", "120",
                "--n-splits", "2", "--split-size", "2",
                "--out-dir", str(demos)) == EXIT_OK
    dist = tmp_path / "dist"
    assert _run("distill", "--demos", str(demos / "train.ndjson"), "--K", "2",
                "--max-iters", "4", "--restarts", "1",
                "--out-dir", str(dist)) == EXIT_OK
    roll = tmp_path / "roll"
    assert _run("rollout", "--env", "pendulum", "--model",
                str(dist / "distilled.json"), "--episodes", "2", "--steps",
                "50", "--out-dir", str(roll)) == EXIT_OK
    out = capsys.readouterr().out
    assert "success_rate=" in out
    assert (roll / "episode000.ndjson").exists()
    belief = (roll / "episode000_belief.csv").read_text().splitlines()
    assert belief[0] == "t,b_1,b_2,regime"
    assert len(belief) == 51
    results = json.loads((roll / "run.json").read_text())["results"]
    assert results["episodes"] == 2

    first = _tree_digest(roll)
    assert _run("rollout", "--env", "pendulum", "--model",
                str(dist / "distilled.json"), "--episodes", "2", "--steps",
                "50", "--out-dir", str(roll)) == EXIT_OK
    assert _tree_digest(roll) == first


def test_rollout_zero_policy_never_succeeds(tmp_path, capsys):
    zero = _closed_loop_model([np.array([[0.0, 0.0]])], d_x=2,
                              init_mu=[[np.pi, 0.0]])
    path = tmp_path / "zero.json"
    save_model(path, zero)
    assert _run("rollout", "--env", "pendulum", "--model", str(path),
                "--episodes", "3", "--steps", "100",
                "--out-dir", str(tmp_path / "r")) == EXIT_OK
    assert "success_rate=0.0 (0/3)" in capsys.readouterr().out


def test_rollout_expert_smoke(tmp_path, capsys):
    out = tmp_path / "rx"
    assert _run("rollout", "--env", "pendulum", "--expert", "--episodes", "1",
                "--steps", "1000", "--out-dir", str(out)) == EXIT_OK
    assert "success_rate=1.0 (1/1)" in capsys.readouterr().out
    assert (out / "episode000.ndjson").exists()


@pytest.mark.parametrize("env", ["pendulum", "cartpole"])
def test_expert_and_model_episodes_start_from_the_same_hanging_state(tmp_path, env):
    d_x = 2 if env == "pendulum" else 4
    path = tmp_path / "m.json"
    save_model(path, _closed_loop_model([np.zeros((1, d_x))], d_x=d_x))
    for name, policy in (("expert", ["--expert"]), ("model", ["--model", str(path)])):
        assert _run("rollout", "--env", env, *policy, "--episodes", "3", "--steps", "5",
                    "--seed", "4", "--out-dir", str(tmp_path / name)) == EXIT_OK
    cfg = default_config(env, seed=4)
    for i in range(3):
        x0 = hanging_state(cfg, np.random.default_rng((4, cli.STREAM_ROLLOUT, i)))
        for name in ("expert", "model"):
            traj = load_dataset(tmp_path / name / f"episode{i:03d}.ndjson").trajectories[0]
            np.testing.assert_array_equal(traj.xs[0], observe(cfg, x0))


def test_count_params_output(tmp_path, capsys):
    model = _closed_loop_model([np.array([[1.0, 0.0]]),
                                np.array([[0.0, 1.0]])], d_x=2)
    path = tmp_path / "m.json"
    save_model(path, model)
    assert _run("count-params", "--model", str(path)) == EXIT_OK
    out = capsys.readouterr().out
    assert f"total={count_params(model)}" in out
    assert "initial_probs=2" in out


def test_parser_flags_are_the_config_keys():
    # a flag per config key and a key per flag, so a config file accepts
    # exactly what the command line does
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._OPTIONS)
    for command, p in sub.choices.items():
        dests = {a.dest for a in p._actions if a.dest != "help"}
        assert dests == set(cli._OPTIONS[command]) | {"config"}, command
    with pytest.raises(SystemExit) as ei:
        _run("count-params", "--model", "m.json", "--seed", "1")
    assert ei.value.code == EXIT_USAGE


def test_transition_help_states_the_spec_grammar(capsys):
    for command in ("fit", "distill"):
        with pytest.raises(SystemExit):
            _run(command, "--help")
        out = " ".join(capsys.readouterr().out.split())
        assert "--transition SPEC" in out
        assert f"one of {', '.join(KINDS)}" in out
        assert "polynomial:DEGREE (1 if omitted)" in out
        assert f"perceptron:UNITS ({PERCEPTRON_HIDDEN_UNITS} if omitted)" in out


def test_distill_writes_its_fit_history_as_fit_does(tmp_path):
    demos = tmp_path / "demos"
    assert _run("simulate", "--policy", "expert", "--n-train", "2", "--n-test", "1",
                "--steps", "80", "--n-splits", "1", "--split-size", "2",
                "--out-dir", str(demos)) == EXIT_OK
    options = ["--K", "2", "--max-iters", "3", "--restarts", "1"]
    dist, timed, fit = tmp_path / "dist", tmp_path / "timed", tmp_path / "fit"
    assert _run("distill", "--demos", str(demos / "train.ndjson"), *options,
                "--out-dir", str(dist)) == EXIT_OK
    assert _run("distill", "--demos", str(demos / "train.ndjson"), *options,
                "--timings", "--out-dir", str(timed)) == EXIT_OK
    assert _run("fit", "--data", str(demos / "train.ndjson"), "--mode", CLOSED_LOOP,
                "--transition", "linear", "--lag", "1", *options,
                "--out-dir", str(fit)) == EXIT_OK
    lines = (dist / "history.csv").read_text().splitlines()
    sha = json.loads((dist / "run.json").read_text())["provenance"]["config_sha256"]
    assert lines[:4] == [f"# config_sha256={sha}", "# seed=0", f"# version={__version__}",
                         "iter,loglik,q_value,seconds"]
    # the same EM run as the closed-loop fit, seconds written as 0.0 unless timed
    assert lines[3:] == (fit / "history.csv").read_text().splitlines()[3:]
    assert all(row.endswith(",0.0") for row in lines[4:])
    timed_rows = (timed / "history.csv").read_text().splitlines()[4:]
    assert [r.rsplit(",", 1)[0] for r in timed_rows] == [r.rsplit(",", 1)[0]
                                                          for r in lines[4:]]
    assert any(float(r.rsplit(",", 1)[1]) > 0.0 for r in timed_rows)


@pytest.mark.parametrize("sizes", [["--lag", "3"], ["--poly-degree", "2"],
                                   ["--lag", "3", "--poly-degree", "2"]], ids=" ".join)
def test_open_loop_fit_with_controller_sizes_is_a_usage_error(tmp_path, capsys, sizes):
    data, out = tmp_path / "d", tmp_path / "out"
    _simulate_small(data)
    with pytest.raises(SystemExit) as ei:
        _run("fit", "--data", str(data / "train.ndjson"), *sizes, "--out-dir", str(out))
    assert ei.value.code == EXIT_USAGE
    assert "an open-loop fit needs lag 0 and poly_degree 1" in capsys.readouterr().err
    assert not out.exists()


def test_default_distill_config():
    cfg = cli._DISTILL_CONFIG
    assert (cfg.K, cfg.lag, cfg.mode) == (5, 1, CLOSED_LOOP)


def test_distill_defaults_are_default_distill_config():
    parser = cli.build_parser()
    cfg = cli._resolve_config("distill", parser.parse_args(["distill"]))
    assert cli._fit_config(cfg, CLOSED_LOOP, parser) == cli._DISTILL_CONFIG
    # values and types as before, so every distill config_sha256 is unchanged
    want = dict(demos=None, K=5, transition="linear", lag=1, poly_degree=1,
                max_iters=200, restarts=5, rel_tol=1e-6, seed=0, timings=False,
                out_dir=".")
    assert json.dumps(cfg, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_fit_defaults_are_fit_config():
    parser = cli.build_parser()
    cfg = cli._resolve_config("fit", parser.parse_args(["fit"]))
    assert cli._fit_config(cfg, cfg["mode"], parser) == FitConfig(K=2)
    # values and types as before, so every fit config_sha256 is unchanged
    want = dict(data=None, manifest=None, K=2, mode=OPEN_LOOP, transition="stationary",
                lag=0, poly_degree=1, max_iters=200, restarts=5, rel_tol=1e-6, seed=0,
                init_model=None, timings=False, out_dir=".")
    assert json.dumps(cfg, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("steps", ["1", "0"])
@pytest.mark.parametrize("argv", [["simulate"], ["rollout", "--model", "missing.json"],
                                  ["rollout", "--expert"]])
def test_steps_below_two_are_usage_errors(tmp_path, capsys, argv, steps):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as ei:
        _run(*argv, "--steps", steps, "--out-dir", str(out))
    assert ei.value.code == EXIT_USAGE
    assert f"rarhmm {argv[0]}: error: --steps must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_merging_and_flag_override(tmp_path):
    data = tmp_path / "d"
    _simulate_small(data)
    cfgfile = tmp_path / "fit.json"
    cfgfile.write_text(json.dumps({"K": 3, "max_iters": 3, "restarts": 1,
                                   "data": str(data / "train.ndjson")}))
    out = tmp_path / "fit"
    assert _run("fit", "--config", str(cfgfile), "--K", "2",
                "--out-dir", str(out)) == EXIT_OK
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["K"] == 2          # flag wins
    assert run["config"]["max_iters"] == 3  # file fills the rest
    assert load_model(out / "model.json").K == 2
    assert {"config_sha256", "seed", "version"} <= set(run["provenance"])


_OPTION_KEYS = [(command, key) for command, options in cli._OPTIONS.items()
                for key in options]
_WRONG_VALUE = {int: 2.5, float: "1e-6", str: 3, bool: "no", list: "m=x.json"}
_VALID_VALUE = {int: 3, float: 0.5, str: "x", bool: True, list: ["m=x.json"]}


def _kind(command, key):
    return cli._OPTIONS[command][key][1]


_WRONG_KINDS = ([(c, k, "nope" if isinstance(_kind(c, k), tuple) else _WRONG_VALUE[_kind(c, k)])
                 for c, k in _OPTION_KEYS]
                + [("fit", "K", "3"), ("fit", "K", True), ("simulate", "n_train", True),
                   ("distill", "rel_tol", True), ("fit", "seed", None), ("eval", "horizons", 5),
                   ("eval", "model", ["m=x.json", 3]), ("simulate", "env", "marsrover")])


@pytest.mark.parametrize("command,key,value", _WRONG_KINDS,
                         ids=[f"{c}-{k}-{v!r}" for c, k, v in _WRONG_KINDS])
def test_config_value_of_the_wrong_kind_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                         command, key, value):
    # checked as its flag is, before any input is read or directory made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as ei:
        _run(command, "--config", "c.json")
    assert ei.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"rarhmm {command}: error: --{key.replace('_', '-')} must be " in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("command,key", _OPTION_KEYS)
def test_config_value_resolves_as_its_flag(tmp_path, command, key):
    default, kind, *_ = cli._OPTIONS[command][key]
    if isinstance(kind, tuple):
        value = next(choice for choice in kind if choice != default)
    else:
        value = _VALID_VALUE[kind]
    flag = f"--{key.replace('_', '-')}"
    if kind is bool:
        argv = [flag]
    elif kind is list:
        argv = [flag, *value]
    else:
        argv = [flag, str(value)]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    parser = cli.build_parser()
    from_flag = cli._resolve_config(command, parser.parse_args([command, *argv]))
    from_file = cli._resolve_config(command, parser.parse_args([command, "--config", str(path)]))
    assert from_flag[key] == value
    assert json.dumps(from_file, sort_keys=True) == json.dumps(from_flag, sort_keys=True)


def test_simulate_run_is_the_same_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = dict(env="pendulum", obs="trig", seed=2, n_train=3, n_test=1, steps=20,
               policy="expert", n_splits=2, split_size=2, out_dir="out")
    argv = [a for key, value in cfg.items() for a in (f"--{key.replace('_', '-')}", str(value))]
    assert _run("simulate", *argv) == EXIT_OK
    first = _tree_digest(tmp_path / "out")
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert _run("simulate", "--config", "c.json") == EXIT_OK
    assert _tree_digest(tmp_path / "out") == first


def test_an_int_for_a_float_option_is_kept_as_given(tmp_path):
    # so a config file's hash does not change with the check
    path = tmp_path / "c.json"
    path.write_text('{"rel_tol": 1}')
    cfg = cli._resolve_config("fit", cli.build_parser().parse_args(["fit", "--config", str(path)]))
    assert json.dumps(cfg["rel_tol"]) == "1"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"bogus": 1}))
    assert _run("fit", "--config", str(cfgfile),
                "--data", "whatever.ndjson") == EXIT_RUNTIME
    assert "unknown config keys" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path):
    for argv in (["fit", "--bogus"],
                 ["nosuchcommand"],
                 ["fit"],                                     # missing --data
                 ["rollout", "--env", "pendulum"],            # model xor expert
                 ["rollout", "--env", "pendulum", "--model", "m", "--expert"],
                 ["eval", "--test", "x"],                     # missing --model
                 ["simulate", "--env", "marsrover"],
                 ["fit", "--data", "x", "--K", "0"],
                 ["fit", "--data", "x", "--rel-tol", "nan"],
                 ["distill", "--demos", "x", "--rel-tol", "inf"],
                 # an unknown link kind is refused before the data are read
                 ["fit", "--data", str(tmp_path / "missing.ndjson"),
                  "--transition", "foo", "--restarts", "2"],
                 ["distill", "--demos", str(tmp_path / "missing.ndjson"),
                  "--transition", "foo"]):
        with pytest.raises(SystemExit) as ei:
            _run(*argv)
        assert ei.value.code == EXIT_USAGE, argv


def test_usage_errors_after_parsing_name_the_command(capsys):
    # errors the commands find themselves print the command's own usage line
    for argv in (["fit", "--data", "x", "--transition", "foo"],
                 ["fit", "--data", "x", "--K", "0"],
                 ["eval", "--test", "x"],
                 ["simulate", "--n-train", "2", "--split-size", "3"],
                 ["count-params"]):
        with pytest.raises(SystemExit) as ei:
            _run(*argv)
        assert ei.value.code == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert f"usage: rarhmm {argv[0]}" in err, argv
        assert f"rarhmm {argv[0]}: error:" in err, argv


def test_runtime_errors_exit_two(tmp_path):
    assert _run("fit", "--data", str(tmp_path / "missing.ndjson")) == EXIT_RUNTIME
    assert _run("count-params", "--model",
                str(tmp_path / "missing.json")) == EXIT_RUNTIME


@pytest.mark.parametrize("case", ["fit-manifest-id", "eval-dims", "rollout-open-loop",
                                  "rollout-dims", "simulate-ball-expert",
                                  "rollout-ball-expert", "rollout-ball-model",
                                  "fit-manifest-repeated-id",
                                  "fit-data-repeated-id", "fit-deep-states",
                                  "fit-manifest-nested-id", "fit-manifest-object-id",
                                  "fit-manifest-no-split", "fit-manifest-empty-split"])
def test_inputs_are_checked_before_the_out_dir_is_made(tmp_path, capsys, case):
    data, ball = tmp_path / "d", tmp_path / "ball"
    _simulate_small(data)
    _simulate_small(ball, env="bouncing_ball")
    manifest, repeated = tmp_path / "splits.json", tmp_path / "repeated.json"
    save_manifest(manifest, [["nope"]])
    first = (data / "train.ndjson").read_text().splitlines()[0]
    first_id = json.loads(first)["id"]
    save_manifest(repeated, [[first_id] * 2])
    twice, deep = tmp_path / "twice.ndjson", tmp_path / "deep.ndjson"
    twice.write_text(f"{first}\n{first}\n")
    # (T, 2, 1) states: one column per state entry
    deep.write_text(json.dumps({"id": "a", "dt": 0.1, "xs": [[[0.0], [1.0]]] * 3,
                                "us": [[0.0]] * 3}) + "\n")
    for name, splits in [("nested-id", [[["a"]]]), ("object-id", [[first_id], [{"x": 1}]]),
                         ("no-split", []), ("empty-split", [[]])]:
        (tmp_path / f"{name}.json").write_text(json.dumps({"splits": splits}))

    def fit_on(manifest_name):
        return ["fit", "--data", str(data / "train.ndjson"),
                "--manifest", str(tmp_path / f"{manifest_name}.json")]

    open_loop, closed = tmp_path / "open.json", tmp_path / "closed.json"
    save_model(open_loop, random_model(K=2, d_x=2, d_u=1))
    save_model(closed, _closed_loop_model([np.array([[0.0, 0.0]])], d_x=2))
    # a closed-loop model of the ball's dims, as distill fits on ball data
    ball_policy = tmp_path / "ball_policy.json"
    save_model(ball_policy, random_model(K=2, d_x=2, d_u=0, mode=CLOSED_LOOP))
    argv, message = {
        "fit-manifest-id": (["fit", "--data", str(data / "train.ndjson"),
                             "--manifest", str(manifest)], "manifest ids not in dataset"),
        "eval-dims": (["eval", "--test", str(ball / "test.ndjson"), "--model", f"m={closed}"],
                      "trajectory dims (2, 0) disagree with model dims (2, 1)"),
        "rollout-open-loop": (["rollout", "--model", str(open_loop)],
                              "act needs a closed-loop model"),
        "rollout-dims": (["rollout", "--obs", "trig", "--model", str(closed)],
                         "model dims (2, 1) do not match environment observation dims (3, 1)"),
        "simulate-ball-expert": (["simulate", "--env", "bouncing_ball", "--policy", "expert"],
                                 "no scripted expert for env 'bouncing_ball'"),
        "rollout-ball-expert": (["rollout", "--env", "bouncing_ball", "--expert"],
                                "no scripted expert for env 'bouncing_ball'"),
        "rollout-ball-model": (["rollout", "--env", "bouncing_ball", "--model",
                                str(ball_policy)], "the bouncing ball has no pole"),
        "fit-manifest-repeated-id": (["fit", "--data", str(data / "train.ndjson"),
                                      "--manifest", str(repeated)],
                                     "split holds ids more than once"),
        "fit-data-repeated-id": (["fit", "--data", str(twice), "--manifest", str(repeated)],
                                 "dataset holds ids more than once"),
        "fit-deep-states": (["fit", "--data", str(deep)],
                            f"{deep}: line 1: xs must hold (T, d_x) states, got shape (3, 2, 1)"),
        "fit-manifest-nested-id": (fit_on("nested-id"),
                                   "manifest split 0 must be a non-empty list of string ids"),
        "fit-manifest-object-id": (fit_on("object-id"),
                                   "manifest split 1 must be a non-empty list of string ids"),
        "fit-manifest-no-split": (fit_on("no-split"), "manifest 'splits' holds no split"),
        "fit-manifest-empty-split": (fit_on("empty-split"),
                                     "manifest split 0 must be a non-empty list of string ids"),
    }[case]
    out = tmp_path / "out"
    assert _run(*argv, "--out-dir", str(out)) == EXIT_RUNTIME
    assert message in capsys.readouterr().err
    assert not out.exists()


_SEEDED = {"simulate": [], "fit": ["--data", "d.ndjson"],
           "distill": ["--demos", "d.ndjson"], "rollout": ["--expert"]}


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", sorted(_SEEDED))
def test_a_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, command, source):
    assert sorted(_SEEDED) == sorted(c for c, opts in cli._OPTIONS.items() if "seed" in opts)
    monkeypatch.chdir(tmp_path)
    argv = [command, *_SEEDED[command], "--out-dir", "out"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", "c.json"]
    with pytest.raises(SystemExit) as ei:
        _run(*argv)
    assert ei.value.code == EXIT_USAGE
    assert f"rarhmm {command}: error: --seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, config, code, message", [
    (["--mode", "sample"], None, EXIT_USAGE, "argument --mode: invalid choice: 'sample'"),
    (["--seed", "3"], None, EXIT_USAGE, "unrecognized arguments: --seed 3"),
    ([], {"seed": 3}, EXIT_RUNTIME, "unknown config keys for eval: seed")],
    ids=["sample-mode", "seed-flag", "seed-key"])
def test_eval_draws_nothing_so_takes_no_seed(tmp_path, monkeypatch, capsys, flags, config,
                                             code, message):
    monkeypatch.chdir(tmp_path)
    argv = ["eval", "--test", "t.ndjson", "--model", "m=m.json", *flags, "--out-dir", "out"]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv += ["--config", "c.json"]
    try:
        got = _run(*argv)
    except SystemExit as e:
        got = e.code
    assert got == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_rejects_an_init_model_the_config_disagrees_with(tmp_path, capsys):
    data = tmp_path / "d"
    _simulate_small(data)
    init = tmp_path / "init.json"
    save_model(init, random_model(K=2, d_x=2, d_u=1, kind="stationary"))
    out = tmp_path / "fit"
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "3", "--mode",
                "closed_loop", "--transition", "polynomial:2", "--init-model", str(init),
                "--out-dir", str(out)) == EXIT_RUNTIME
    assert "rarhmm fit: error: init model has K 2, the fit needs 3" in capsys.readouterr().err
    assert not out.exists()


def test_model_provenance_is_tolerated_by_loader(tmp_path):
    data = tmp_path / "d"
    _simulate_small(data)
    out = tmp_path / "fit"
    assert _run("fit", "--data", str(data / "train.ndjson"), "--K", "1",
                "--max-iters", "2", "--restarts", "1",
                "--out-dir", str(out)) == EXIT_OK
    doc = json.loads((out / "model.json").read_text())
    assert "provenance" in doc
    load_model(out / "model.json")  # extra key must not break loading


def test_malformed_input_files_exit_two_without_traceback(tmp_path, capsys):
    bad_data = tmp_path / "bad.ndjson"
    bad_data.write_text('{"id": "a", "dt": 0.1, "xs": [[0.0], [1.0]]}\n')
    bad_model = tmp_path / "bad.json"
    bad_model.write_text('{"version": 1, "K": 2}')
    bad_manifest = tmp_path / "splits.json"
    bad_manifest.write_text("{}")
    data = tmp_path / "d"
    _simulate_small(data)
    out = ["--out-dir", str(tmp_path / "out")]
    for argv, field in ((["fit", "--data", str(bad_data), *out], "'us'"),
                        (["fit", "--data", str(data / "train.ndjson"),
                          "--manifest", str(bad_manifest), *out], "'splits'"),
                        (["eval", "--test", str(bad_data), "--model", f"m={bad_model}",
                          *out], "'us'"),
                        (["eval", "--test", str(data / "test.ndjson"),
                          "--model", f"m={bad_model}", *out], "'d_x'"),
                        (["count-params", "--model", str(bad_model)], "'d_x'")):
        capsys.readouterr()
        assert _run(*argv) == EXIT_RUNTIME, argv
        err = capsys.readouterr().err
        assert err.startswith(f"rarhmm {argv[0]}: error: ") and field in err, err
        assert "Traceback" not in err


def test_fit_lets_programming_errors_propagate(tmp_path, monkeypatch):
    data = tmp_path / "d"
    _simulate_small(data)

    def broken_fit(*args, **kwargs):
        raise TypeError("a bug, not a failed fit")

    monkeypatch.setattr(cli, "fit_em", broken_fit)
    with pytest.raises(TypeError, match="a bug"):
        _run("fit", "--data", str(data / "train.ndjson"), "--out-dir", str(tmp_path / "f"))


def test_fit_keeps_other_splits_after_a_numerical_failure(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d"
    _simulate_small(data)
    real_fit, calls = cli.fit_em, []

    def fit_failing_first_split(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("diverged")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_em", fit_failing_first_split)
    out = tmp_path / "fits"
    assert _run("fit", "--data", str(data / "train.ndjson"),
                "--manifest", str(data / "splits.json"), "--K", "1",
                "--max-iters", "2", "--restarts", "1", "--out-dir", str(out)) == EXIT_OK
    assert not (out / "model_split00.json").exists()
    for i in (1, 2):
        assert (out / f"model_split{i:02d}.json").exists()
        assert (out / f"history_split{i:02d}.csv").exists()
    assert "fit failed: split _split00: diverged" in capsys.readouterr().err
