"""Command-line surface: simulate, fit, eval, distill, rollout, count-params.

Every option of every command is declared once, in one table (_OPTIONS),
with its default and its kind; the parser's flags and the config defaults are
both built from it. Every command takes flags plus an optional JSON config
file (flags override the file, unknown keys are rejected); a value of the
wrong kind is a usage error naming its flag, whether it came from a flag or
the file. Commands validate inputs before writing anything, and stamp outputs
with a provenance header (config hash, the seed of a command that takes one,
version). Fixed seeds give byte-identical output files.
"""
from __future__ import annotations

import argparse
import glob as globlib
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .envs import (ENVS, OBS_MODES, collect_trajectories, default_config, expert_policy,
                   hanging_state, load_dataset, load_manifest, make_splits,
                   save_dataset, save_manifest, select_split, simulate)
from .evaluation import (FORECAST_MODES, MODE_MARGINAL, count_params,
                         count_params_breakdown, evaluate)
from .learning import FitConfig, check_init_model, fit_em
from .model import CLOSED_LOOP, MODES, load_model, model_to_dict
from .policy import (ACT_MEAN, ACT_MODES, check_policy_model, rollout, save_rollout,
                     success_criterion)
from .transition import KINDS, PERCEPTRON_HIDDEN_UNITS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# failures main reports as EXIT_RUNTIME; LinAlgError is a ValueError
_RUNTIME_ERRORS = (OSError, ValueError, RuntimeError, FloatingPointError)

# stream tags for per-purpose rng keys, combined with the user seed
STREAM_TRAIN, STREAM_TEST, STREAM_DEMO, STREAM_ROLLOUT = 0, 1, 2, 3


class CliError(Exception):
    """Runtime failure after argument validation; exits EXIT_RUNTIME."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- options -------------------------------------------------------------------

# config keys of fit and distill, and the FitConfig field each one sets
_FIT_FIELDS = dict(K="K", transition="transition_kind", lag="lag",
                   poly_degree="poly_degree", max_iters="max_iters",
                   restarts="restarts", rel_tol="rel_tol", seed="seed")
_TRANSITION_ARGS = dict(metavar="SPEC", help=(
    f"regime link: one of {', '.join(KINDS)}; polynomial:DEGREE (1 if omitted), "
    f"perceptron:UNITS ({PERCEPTRON_HIDDEN_UNITS} if omitted)"))
_FIT_CONFIG = FitConfig(K=2)                # K has no library default
# distill: five switching linear laws over one step of control history
_DISTILL_CONFIG = FitConfig(K=5, mode=CLOSED_LOOP, transition_kind="linear", lag=1)


def _fit_options(config: FitConfig) -> dict:
    """The FitConfig options: the config's values, each of its value's kind."""
    options = {key: (getattr(config, name), type(getattr(config, name)))
               for key, name in _FIT_FIELDS.items()}
    options["transition"] += (_TRANSITION_ARGS,)
    return options


# key -> (default, kind[, argparse keywords]) per command; a kind is int, float,
# str, bool (a switch), list (a repeatable flag) or a tuple of choices
_OPTIONS = {
    "simulate": dict(env=("pendulum", ENVS), obs=("joint", OBS_MODES), seed=(0, int),
                     n_train=(25, int), n_test=(5, int), steps=(None, int),
                     policy=("explore", ("explore", "expert")), n_splits=(24, int),
                     split_size=(10, int), out_dir=(".", str)),
    "fit": dict(data=(None, str), manifest=(None, str), mode=(_FIT_CONFIG.mode, MODES),
                **_fit_options(_FIT_CONFIG),
                init_model=(None, str), timings=(False, bool), out_dir=(".", str)),
    "eval": dict(test=(None, str),
                 model=(None, list, dict(help="tag=path-glob; repeat per model family")),
                 horizons=("1,5,10,15,20,25", str), mode=(MODE_MARGINAL, FORECAST_MODES),
                 out_dir=(".", str)),
    "distill": dict(demos=(None, str), **_fit_options(_DISTILL_CONFIG),
                    timings=(False, bool), out_dir=(".", str)),
    "rollout": dict(env=("pendulum", ENVS), obs=("joint", OBS_MODES), model=(None, str),
                    expert=(False, bool), episodes=(50, int), steps=(None, int),
                    mode=(ACT_MEAN, ACT_MODES), seed=(0, int), out_dir=(".", str)),
    "count-params": dict(model=(None, str)),
}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list of strings"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _has_kind(value, kind) -> bool:
    """A bool is only a switch; an int is also a float."""
    if isinstance(kind, tuple):
        return value in kind
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return (isinstance(value, bool) == (kind is bool)
            and isinstance(value, (int, float) if kind is float else kind))


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, rejecting unknown keys; a
    value not of its option's kind is a usage error, from a flag or the file."""
    options = _OPTIONS[command]
    cfg = {key: default for key, (default, *_) in options.items()}
    if args.config:
        try:
            with open(args.config) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"cannot read config file {args.config}: {e}")
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise CliError(f"unknown config keys for {command}: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key, (default, kind, *_) in options.items():
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        if not (cfg[key] is None and default is None or _has_kind(cfg[key], kind)):
            args.parser.error(f"{_flag(key)} must be "
                              f"{_KIND_NAMES.get(kind) or 'one of ' + ', '.join(kind)}")
    if "seed" in cfg:
        _at_least(cfg, ("seed",), args.parser, least=0)
    return cfg


def _provenance(cfg: dict) -> dict:
    """Config hash, seed (for the commands that take one) and version."""
    blob = json.dumps(cfg, sort_keys=True, default=str)
    prov = {"config_sha256": hashlib.sha256(blob.encode()).hexdigest()}
    if "seed" in cfg:
        prov["seed"] = cfg["seed"]
    prov["version"] = __version__
    return prov


def _header_lines(prov: dict) -> tuple:
    return tuple(f"{key}={value}" for key, value in prov.items())


def _write_text(path, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _write_run_doc(out_dir: str, command: str, cfg: dict, prov: dict,
                   results: dict | None = None) -> None:
    doc = {"command": command, "config": cfg, "provenance": prov}
    if results is not None:
        doc["results"] = results
    _write_text(os.path.join(out_dir, "run.json"),
                json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _write_fit(cfg: dict, prov: dict, model_file: str, history_file: str, model,
               history) -> str:
    """Write a fitted model and its EM history into the out_dir of a fit or
    distill config; return the model's path."""
    path = os.path.join(cfg["out_dir"], model_file)
    doc = model_to_dict(model)
    doc["provenance"] = prov
    _write_text(path, json.dumps(doc, indent=1) + "\n")
    _write_text(os.path.join(cfg["out_dir"], history_file),
                history.to_csv(include_timings=cfg["timings"],
                               header_lines=_header_lines(prov)))
    return path


def _require(cfg: dict, key: str, parser: _Parser) -> None:
    if not cfg.get(key):
        parser.error(f"missing required option {_flag(key)}")


def _at_least(cfg: dict, keys, parser: _Parser, least: int = 1) -> None:
    for key in keys:
        if cfg[key] is not None and cfg[key] < least:
            parser.error(f"{_flag(key)} must be >= {least}")


# -- commands --------------------------------------------------------------------

def cmd_simulate(cfg: dict, parser: _Parser) -> int:
    _at_least(cfg, ("n_train", "n_test", "n_splits", "split_size"), parser)
    _at_least(cfg, ("steps",), parser, least=2)
    if cfg["split_size"] > cfg["n_train"]:
        parser.error("--split-size cannot exceed --n-train")
    env = default_config(cfg["env"], obs=cfg["obs"], seed=cfg["seed"])
    expert = cfg["policy"] == "expert"
    streams = (STREAM_DEMO, STREAM_DEMO + 10) if expert else (STREAM_TRAIN, STREAM_TEST)
    train, test = (collect_trajectories(env, cfg[n], stream, T=cfg["steps"], expert=expert)
                   for n, stream in zip(("n_train", "n_test"), streams))
    splits = make_splits(cfg["n_train"], cfg["n_splits"], cfg["split_size"],
                         seed=cfg["seed"])
    split_ids = [[train[j].id for j in group] for group in splits]

    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    save_dataset(os.path.join(out, "train.ndjson"), train)
    save_dataset(os.path.join(out, "test.ndjson"), test)
    save_manifest(os.path.join(out, "splits.json"), split_ids)
    _write_run_doc(out, "simulate", cfg, _provenance(cfg))
    print(f"simulate: wrote {len(train)} train + {len(test)} test "
          f"trajectories ({train[0].T} steps) and {len(split_ids)} splits "
          f"to {out}")
    return EXIT_OK


def _fit_config(cfg: dict, mode: str, parser: _Parser) -> FitConfig:
    """The FitConfig of a fit or distill command config; a bad value is a usage error."""
    try:
        return FitConfig(mode=mode, **{name: cfg[key]
                                       for key, name in _FIT_FIELDS.items()})
    except ValueError as e:
        parser.error(str(e))


def cmd_fit(cfg: dict, parser: _Parser) -> int:
    _require(cfg, "data", parser)
    fit_config = _fit_config(cfg, cfg["mode"], parser)
    dataset = load_dataset(cfg["data"])
    init_model = load_model(cfg["init_model"]) if cfg["init_model"] else None
    if init_model is not None:
        check_init_model(init_model, fit_config, dataset)
    if cfg["manifest"]:
        groups = [(f"_split{i:02d}", select_split(dataset, ids))
                  for i, ids in enumerate(load_manifest(cfg["manifest"]))]
    else:
        groups = [("", dataset)]
    prov = _provenance(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)

    failures = []
    for suffix, subset in groups:
        try:
            model, history = fit_em(subset, fit_config, init_model=init_model)
        except _RUNTIME_ERRORS as e:
            failures.append(f"split {suffix or '<all>'}: {e}")
            continue
        _write_fit(cfg, prov, f"model{suffix}.json", f"history{suffix}.csv", model, history)
        print(f"fit{suffix or ''}: loglik={history.loglik[-1]!r} "
              f"iters={len(history)}")
    for line in failures:
        print(f"fit failed: {line}", file=sys.stderr)
    if len(failures) == len(groups):
        raise CliError("all fits failed")
    _write_run_doc(cfg["out_dir"], "fit", cfg, prov)
    return EXIT_OK


def _expand_model_specs(specs) -> dict:
    """'tag=pattern' pairs -> {tag: [paths]}, with missing patterns reported."""
    by_tag, missing = {}, []
    for spec in specs:
        tag, sep, pattern = spec.partition("=")
        if not sep or not tag or not pattern:
            raise CliError(f"model spec must look like tag=path-glob: {spec!r}")
        paths = sorted(globlib.glob(pattern))
        if not paths:
            missing.append(spec)
        if tag in by_tag:
            raise CliError(f"model tag {tag!r} is given more than once")
        by_tag[tag] = paths
    if missing:
        raise CliError("no model files match: " + "; ".join(missing))
    return by_tag


def cmd_eval(cfg: dict, parser: _Parser) -> int:
    _require(cfg, "test", parser)
    _require(cfg, "model", parser)
    try:
        horizons = [int(h) for h in cfg["horizons"].split(",") if h.strip()]
    except ValueError:
        parser.error("--horizons must be a comma-separated integer list")
    if not horizons or min(horizons) < 1:
        parser.error("--horizons must be positive integers")
    for h in horizons:
        if horizons.count(h) > 1:
            parser.error(f"--horizons gives horizon {h} more than once")
    test = load_dataset(cfg["test"])
    models_by_tag = {tag: [load_model(p) for p in paths]
                     for tag, paths in _expand_model_specs(cfg["model"]).items()}
    report = evaluate(models_by_tag, test, horizons, mode=cfg["mode"])
    prov = _provenance(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    header = _header_lines(prov)
    _write_text(os.path.join(cfg["out_dir"], "report.csv"),
                report.to_csv(header_lines=header))
    _write_text(os.path.join(cfg["out_dir"], "report_long.csv"),
                report.to_long_csv(header_lines=header))
    _write_run_doc(cfg["out_dir"], "eval", cfg, prov)
    print(report.summary())
    return EXIT_OK


def cmd_distill(cfg: dict, parser: _Parser) -> int:
    _require(cfg, "demos", parser)
    fit_config = _fit_config(cfg, CLOSED_LOOP, parser)
    demos = load_dataset(cfg["demos"])
    prov = _provenance(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    model, history = fit_em(demos, fit_config)
    path = _write_fit(cfg, prov, "distilled.json", "history.csv", model, history)
    _write_run_doc(cfg["out_dir"], "distill", cfg, prov)
    print(f"distill: wrote {path} (K={model.K}, lag={cfg['lag']}, "
          f"params={count_params(model)})")
    return EXIT_OK


def cmd_rollout(cfg: dict, parser: _Parser) -> int:
    _at_least(cfg, ("episodes",), parser)
    _at_least(cfg, ("steps",), parser, least=2)
    if bool(cfg["model"]) == bool(cfg["expert"]):
        parser.error("exactly one of --model or --expert is required")
    env = default_config(cfg["env"], obs=cfg["obs"], seed=cfg["seed"])
    model = load_model(cfg["model"]) if cfg["model"] else None
    if model is not None:
        check_policy_model(env, model)
    expert = expert_policy(env) if model is None else None
    prov = _provenance(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)

    successes = 0
    for i in range(cfg["episodes"]):
        rng = np.random.default_rng((cfg["seed"], STREAM_ROLLOUT, i))
        # the expert and the model start episode i from the same state
        x0 = hanging_state(env, rng)
        ep = f"episode{i:03d}"
        if model is None:
            traj = simulate(env, expert, T=cfg["steps"], x0=x0, id=ep)
            ok = success_criterion(traj, env)
            save_dataset(os.path.join(cfg["out_dir"], f"{ep}.ndjson"), [traj])
        else:
            result = rollout(env, model, T=cfg["steps"], mode=cfg["mode"],
                             rng=rng, x0=x0, traj_id=ep)
            ok = result.success
            save_rollout(result,
                         os.path.join(cfg["out_dir"], f"{ep}.ndjson"),
                         os.path.join(cfg["out_dir"], f"{ep}_belief.csv"))
        successes += bool(ok)

    n = cfg["episodes"]
    rate = successes / n
    _write_run_doc(cfg["out_dir"], "rollout", cfg, prov,
                   results={"episodes": n, "successes": successes,
                            "success_rate": rate})
    print(f"rollout: success_rate={rate!r} ({successes}/{n})")
    return EXIT_OK


def cmd_count_params(cfg: dict, parser: _Parser) -> int:
    _require(cfg, "model", parser)
    model = load_model(cfg["model"])
    breakdown = count_params_breakdown(model)
    for name, value in breakdown.items():
        print(f"{name}={value}")
    print(f"total={count_params(model)}")
    return EXIT_OK


_COMMANDS = {
    "simulate": (cmd_simulate, "generate train/test data and splits"),
    "fit": (cmd_fit, "fit a hybrid model by EM"),
    "eval": (cmd_eval, "score fitted models on a test set"),
    "distill": (cmd_distill, "fit a switching policy to demos"),
    "rollout": (cmd_rollout, "run a policy or the scripted expert"),
    "count-params": (cmd_count_params, "print a model's parameter count"),
}


# -- parser ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="rarhmm",
                     description="Switching linear system identification, "
                                 "forecasting, and policy distillation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (run, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, (_, kind, *more) in _OPTIONS[command].items():
            kw = dict(more[0]) if more else {}
            if kind is bool:
                kw.update(action="store_true", default=None)
            elif kind is list:
                kw.update(action="append")
            elif isinstance(kind, tuple):
                kw.update(choices=kind)
            else:
                kw.update(type=kind)
            p.add_argument(_flag(key), **kw)
        p.set_defaults(run=run, parser=p)   # usage errors after parsing name the command
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args.command, args)
        return args.run(cfg, args.parser)
    except (CliError, *_RUNTIME_ERRORS) as e:
        print(f"rarhmm {args.command}: error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
