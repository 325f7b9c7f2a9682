"""The traced benchmark wraps rarhmm's layer entry points by module attribute
(bench/spans.py); an attribute that no longer exists silently records no
calls. Renaming an entry point must fail here instead."""
import importlib
import os
import runpy

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "spans.py")
LAYER_SPANS = runpy.run_path(SPANS_PATH)["LAYER_SPANS"]


@pytest.mark.parametrize("module,attr", [s[:2] for s in LAYER_SPANS])
def test_layer_span_resolves_to_a_callable(module, attr):
    fn = getattr(importlib.import_module(f"rarhmm.{module}"), attr, None)
    assert callable(fn), f"bench span target rarhmm.{module}.{attr} is missing"
