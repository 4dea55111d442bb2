"""The library names perfbench wraps from outside must keep resolving.

perfbench (``perfbench/spans.py``) replaces ``owner.attr`` bindings by
counting and timing wrappers; a renamed or removed binding would crash a
traced benchmark run, so every site is checked here against the package.
"""

from pathlib import Path

import numpy as np
import pytest

from thermobench import harness
from thermobench.network import minimal_parameterization, two_zone_example
from thermobench.presets import acquisition_config
from thermobench.ukf import UkfConfig, UkfModel, initial_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_every_wrapped_binding_resolves(spans):
    sites = [(owner, attr) for _, owner, attr, _ in spans.SPAN_SITES]
    sites += [(owner, attr) for _, owner, attr in spans.COUNT_SITES]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in sites if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_one_predict_makes_one_sigma_point_expm_call(spans):
    net = two_zone_example()
    cfg = UkfConfig()
    state = initial_state(net, np.array([70.0, 69.0, 20.0]), minimal_parameterization(net), cfg)
    model = UkfModel(net, cfg)
    probe = spans.Probe(timed=True)
    with spans.patched(probe.sites()):
        harness.predict(state, np.array([0.3, 0.7]), 15.0, model)
    assert probe.calls["ukf.predict"] == 1
    assert probe.calls["ukf.expm"] == 1


def test_acquisition_excites_through_the_wrapped_bindings(spans):
    # the loop must reach the generator and the selector through harness's
    # names, or perfbench's excitation spans silently read zero
    probe = spans.Probe(timed=True)
    with spans.patched(probe.sites()):
        harness.run_scenario(acquisition_config(seed=0, days=3))
    assert probe.calls["excitation.generate_eigen"] >= 1
    assert probe.calls["excitation.select_heuristic"] >= 1
