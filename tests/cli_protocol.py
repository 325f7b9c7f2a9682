"""Run a fixed sequence of `rarhmm` commands and list the SHA-256 of every
file it writes, so two builds of the package can be compared file by file.

    PYTHONPATH=src python tests/cli_protocol.py OUT_DIR [--tiny]

The sequence covers every command path whose output a refactor must keep
byte-identical:
- simulate the bouncing ball, then `fit --manifest` (K = 3, linear link);
- eval those fits in marginal and argmax mode;
- copy the first fit with its link weights doubled until the link's shifted
  normalizer underflows on the test set, and eval it in marginal mode, so its
  forecast steps take the exact link fallback;
- fit and eval ragged copies of the ball data (K = 4, stationary link), and
  eval that fit and the linear fits on the ragged test set in argmax mode,
  and in marginal mode at unsorted horizons whose largest passes the end of
  the shortest test trajectory but not of the longest;
- fit the ball data with a polynomial:2 link, from a --config file, and
  with a perceptron:4 link, then eval both;
- warm-start a perceptron fit from the first one (fit --init-model);
- simulate the pendulum and the cart-pole under exploration in joint obs;
- fit the pendulum data at K = 9 (linear link, 3 iterations), where the
  reductions over the regimes leave the elementwise path, and eval that fit;
- fit the cart-pole data (K = 5, linear link; its k-means points have 8
  coordinates) and eval that fit;
- simulate expert pendulum demos in trig obs, then distill (degree 2);
- roll the distilled policy out in mean, sample and argmax mode (1000 steps);
- roll the scripted expert out on the pendulum and the cart-pole;
- count the parameters of a fit and of the distilled policy.

It drives whichever `rarhmm` is importable, in-process, from inside OUT_DIR
(which must be empty or absent), with relative paths, so the listing does
not depend on where OUT_DIR is. Each command's stdout goes to
OUT_DIR/stdout.txt, which the listing covers. Compare two builds with

    PYTHONPATH=old/src python tests/cli_protocol.py a > a.txt
    PYTHONPATH=new/src python tests/cli_protocol.py b > b.txt
    diff a.txt b.txt

--tiny cuts every length and budget, to run in a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rarhmm.cli import EXIT_OK, main
from rarhmm.envs import load_dataset, save_dataset
from rarhmm.model import Trajectory, load_model, model_to_dict
from rarhmm.transition import (_Z_FLOOR, _link_logits, params_to_vector,
                               transition_features, vector_to_params)

# per size: simulate's --steps (the env horizon when empty), the EM budgets,
# the rollouts' episodes and --steps, the expert rollouts' --steps, and the
# ragged eval's horizons (the ragged ball test set is 200/400/600 steps long,
# 10/20/30 when tiny)
FULL = dict(steps=[], iters=15, distill_iters=30, episodes=3,
            rollout_steps=["--steps", "1000"], expert_steps=["--steps", "500"],
            ragged_horizons="300,1,25")
TINY = dict(steps=["--steps", "30"], iters=3, distill_iters=3, episodes=2,
            rollout_steps=["--steps", "30"], expert_steps=["--steps", "30"],
            ragged_horizons="15,1,5")


def _ragged_copy(src: str, dst: str) -> None:
    """The trajectories of src, trajectory i of n cut to (i + 1) / n of its
    length (at least 2 steps), written to dst."""
    trajs = load_dataset(src).trajectories
    n = len(trajs)
    save_dataset(dst, [Trajectory(xs=t.xs[:T], us=t.us[:T], dt=t.dt, id=t.id)
                       for i, t in enumerate(trajs)
                       for T in [max(2, t.T * (i + 1) // n)]])


def _underflowing_copy(src: str, test: str, dst: str) -> None:
    """The model of src with its link's bias and feature weights doubled until,
    at some step of test, an entry of the link's shifted normalizer
    Zs = exp(bias - max bias).T @ exp(a - max a) (the transition module
    docstring) falls below _Z_FLOOR, written to dst."""
    model = load_model(src)
    trajs = load_dataset(test).trajectories
    xs, us = (np.concatenate([getattr(t, name) for t in trajs]) for name in ("xs", "us"))
    tm = model.transition
    for _ in range(64):
        tm = vector_to_params(tm, 2.0 * params_to_vector(tm))
        a = _link_logits(tm, transition_features(tm, xs, us), tm.feature_params)[0].T
        zs = np.exp(tm.bias - tm.bias.max(axis=0)).T @ np.exp(a - a.max(axis=0))
        if zs.min() < _Z_FLOOR:
            Path(dst).parent.mkdir(parents=True, exist_ok=True)
            Path(dst).write_text(json.dumps(model_to_dict(replace(model, transition=tm)),
                                            indent=1) + "\n")
            return
    raise RuntimeError(f"the link of {src} does not underflow on {test}")


def _write_config(path: str, cfg: dict) -> None:
    Path(path).write_text(json.dumps(cfg, sort_keys=True) + "\n")


def _commands(size: dict) -> list:
    """The protocol: CLI argument lists, and callables for the ragged copies,
    the config file and the underflowing link."""
    steps, iters = size["steps"], str(size["iters"])
    rollout = ["rollout", "--env", "pendulum", "--obs", "trig",
               "--model", "distill/distilled.json",
               "--episodes", str(size["episodes"]), *size["rollout_steps"]]
    explore = ["--n-train", "3", "--n-test", "1", "--n-splits", "1", "--split-size", "1",
               *steps]
    expert = ["rollout", "--expert", "--episodes", "2", *size["expert_steps"]]
    return [
        ["simulate", "--env", "bouncing_ball", "--seed", "3", "--n-train", "6",
         "--n-test", "3", "--n-splits", "2", "--split-size", "3", *steps,
         "--out-dir", "ball"],
        ["fit", "--data", "ball/train.ndjson", "--manifest", "ball/splits.json",
         "--K", "3", "--transition", "linear", "--max-iters", iters,
         "--restarts", "2", "--out-dir", "fit"],
        ["eval", "--test", "ball/test.ndjson", "--model", "linear=fit/model_split*.json",
         "--horizons", "1,5,10", "--mode", "marginal", "--out-dir", "eval_marginal"],
        ["eval", "--test", "ball/test.ndjson", "--model", "linear=fit/model_split*.json",
         "--horizons", "1,5,10", "--mode", "argmax", "--out-dir", "eval_argmax"],
        lambda: _underflowing_copy("fit/model_split00.json", "ball/test.ndjson",
                                   "fit_underflow/model.json"),
        ["eval", "--test", "ball/test.ndjson", "--model", "underflow=fit_underflow/model.json",
         "--horizons", "1,5,10", "--mode", "marginal", "--out-dir", "eval_underflow"],
        lambda: _ragged_copy("ball/train.ndjson", "ball/ragged_train.ndjson"),
        lambda: _ragged_copy("ball/test.ndjson", "ball/ragged_test.ndjson"),
        ["fit", "--data", "ball/ragged_train.ndjson", "--K", "4",
         "--transition", "stationary", "--max-iters", iters, "--restarts", "1",
         "--out-dir", "fit_ragged"],
        ["eval", "--test", "ball/ragged_test.ndjson", "--model",
         "stationary=fit_ragged/model.json", "--horizons", "1,5",
         "--out-dir", "eval_ragged"],
        ["eval", "--test", "ball/ragged_test.ndjson", "--model",
         "stationary=fit_ragged/model.json", "--model", "linear=fit/model_split*.json",
         "--horizons", "1,5,10", "--mode", "argmax", "--out-dir", "eval_ragged_argmax"],
        ["eval", "--test", "ball/ragged_test.ndjson", "--model", "linear=fit/model_split*.json",
         "--model", "stationary=fit_ragged/model.json", "--horizons", size["ragged_horizons"],
         "--mode", "marginal", "--out-dir", "eval_ragged_horizons"],
        lambda: _write_config("fit_polynomial.json", dict(
            data="ball/train.ndjson", K=3, transition="polynomial:2",
            max_iters=size["iters"], restarts=1, out_dir="fit_polynomial")),
        ["fit", "--config", "fit_polynomial.json"],
        ["fit", "--data", "ball/train.ndjson", "--K", "3", "--transition", "perceptron:4",
         "--max-iters", iters, "--restarts", "1", "--out-dir", "fit_perceptron"],
        ["eval", "--test", "ball/test.ndjson", "--model",
         "polynomial=fit_polynomial/model.json", "--model",
         "perceptron=fit_perceptron/model.json", "--horizons", "1,5,10",
         "--out-dir", "eval_links"],
        ["fit", "--data", "ball/train.ndjson", "--K", "3", "--transition", "perceptron:4",
         "--init-model", "fit_perceptron/model.json", "--max-iters", iters,
         "--out-dir", "fit_warm"],
        ["simulate", "--env", "pendulum", "--seed", "4", *explore, "--out-dir", "pendulum"],
        ["simulate", "--env", "cartpole", "--seed", "5", *explore, "--out-dir", "cartpole"],
        ["fit", "--data", "pendulum/train.ndjson", "--K", "9", "--transition", "linear",
         "--max-iters", "3", "--restarts", "1", "--out-dir", "fit_pendulum"],
        ["eval", "--test", "pendulum/test.ndjson", "--model", "linear=fit_pendulum/model.json",
         "--horizons", "1,5,10", "--out-dir", "eval_pendulum"],
        ["fit", "--data", "cartpole/train.ndjson", "--K", "5", "--transition", "linear",
         "--max-iters", iters, "--restarts", "1", "--out-dir", "fit_cartpole"],
        ["eval", "--test", "cartpole/test.ndjson", "--model", "linear=fit_cartpole/model.json",
         "--horizons", "1,5,10", "--out-dir", "eval_cartpole"],
        ["simulate", "--env", "pendulum", "--obs", "trig", "--policy", "expert",
         "--n-train", "4", "--n-test", "1", "--n-splits", "1", "--split-size", "1",
         *steps, "--out-dir", "demos"],
        ["distill", "--demos", "demos/train.ndjson", "--K", "3", "--poly-degree", "2",
         "--max-iters", str(size["distill_iters"]), "--restarts", "1",
         "--out-dir", "distill"],
        [*rollout, "--mode", "mean", "--out-dir", "rollout_mean"],
        [*rollout, "--mode", "sample", "--seed", "7", "--out-dir", "rollout_sample"],
        [*rollout, "--mode", "argmax", "--out-dir", "rollout_argmax"],
        [*expert, "--env", "pendulum", "--seed", "2", "--out-dir", "expert_pendulum"],
        [*expert, "--env", "cartpole", "--seed", "3", "--out-dir", "expert_cartpole"],
        ["count-params", "--model", "fit/model_split01.json"],
        ["count-params", "--model", "distill/distilled.json"],
    ]


def run_protocol(out_dir, tiny: bool = False) -> list[str]:
    """Run the protocol in out_dir and return its listing: one
    '<sha256>  <relative path>' line per file, sorted by path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise ValueError(f"{out} is not empty")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with open("stdout.txt", "w") as log, contextlib.redirect_stdout(log):
            for step in _commands(TINY if tiny else FULL):
                if callable(step):
                    step()
                elif main(step) != EXIT_OK:
                    raise RuntimeError(f"rarhmm {' '.join(step)} failed")
    finally:
        os.chdir(cwd)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
            for p in sorted(out.rglob("*")) if p.is_file()]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="empty or absent directory for the outputs")
    parser.add_argument("--tiny", action="store_true",
                        help="cut lengths and budgets to run in a few seconds")
    args = parser.parse_args(argv)
    print("\n".join(run_protocol(args.out_dir, tiny=args.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
