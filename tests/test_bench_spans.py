"""The traced benchmark wraps rarhmm's layer entry points by module attribute
(bench/spans.py); an attribute that no longer exists, or that its caller
stops looking up, silently records no calls. Either must fail here instead."""
import importlib
import os
import runpy
import warnings

import numpy as np
import pytest

from rarhmm import envs, evaluation, learning, policy
from rarhmm.model import CLOSED_LOOP, Dataset

from util import underflowing_link_model

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "spans.py")
SPANS = runpy.run_path(SPANS_PATH)
LAYER_SPANS = SPANS["LAYER_SPANS"]


@pytest.mark.parametrize("module,attr", [s[:2] for s in LAYER_SPANS])
def test_layer_span_resolves_to_a_callable(module, attr):
    fn = getattr(importlib.import_module(f"rarhmm.{module}"), attr, None)
    assert callable(fn), f"bench span target rarhmm.{module}.{attr} is missing"


def test_every_layer_span_records_calls(tmp_path):
    # one span per (module, attribute), so each lookup site is checked on its
    # own even where two share a span name in the benchmark
    spans = [(mod, attr, f"{mod}.{attr}", tally) for mod, attr, _, tally in LAYER_SPANS]
    env = envs.default_config("pendulum", seed=1)
    config = learning.FitConfig(K=2, mode=CLOSED_LOOP, transition_kind="linear",
                                lag=1, max_iters=2, restarts=1, seed=0)
    tracer = SPANS["Tracer"]()
    with tracer.patched(spans), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = tmp_path / "demos.ndjson"
        envs.save_dataset(path, envs.collect_demonstrations(env, 3, seed=0, T=60))
        data = envs.load_dataset(path)
        train = Dataset(data.trajectories[:2])
        test = Dataset(data.trajectories[2:])
        model, _ = learning.fit_em(train, config)
        evaluation.evaluate({"distill": [model]}, test, (1, 5))
        # a link whose factored normalizer underflows: the forecast takes its
        # link matrices from transition_matrices, looked up through evaluation
        evaluation.evaluate({"underflow": [underflowing_link_model(d_x=test.d_x,
                                                                   d_u=test.d_u)]},
                            test, (1, 5))
        policy.rollout(env, model, T=20, x0=np.array([np.pi, 0.0]))
    silent = [name for _, _, name, _ in spans if tracer.stats[name].calls == 0]
    assert not silent, f"spans with no calls: {silent}"
