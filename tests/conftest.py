import importlib
import os

import pytest
from hypothesis import settings

# CI (set by GitHub Actions) runs every property test on the same derandomized examples,
# so a run cannot fail on an example that no earlier run drew
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def gain_solves(monkeypatch):
    """(tau_tilde, n_eff) of every solve the gain module asks for, in order."""
    gain_module = importlib.import_module("ghzgain.gain")
    calls = []
    solve = gain_module.optimal_sensing_time

    def counting(model, tau_tilde, n_eff):
        calls.append((tau_tilde, n_eff))
        return solve(model, tau_tilde, n_eff)

    monkeypatch.setattr(gain_module, "optimal_sensing_time", counting)
    return calls
