"""Import budget: running a simulation never loads scipy.

scipy is ~1 s of a cold ``import repro``, paid again by every spawned
shard worker, and no simulation path uses it.  Only the analysis
functions that need it (moments, distribution fitting) import it, on
first use.  The check runs in a fresh interpreter because the test
process itself has long since imported scipy.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.analysis.distribution_fit import best_fit
from repro.analysis.stats import summarize

_SIMULATE_AND_LIST_SCIPY = """
import sys
from dataclasses import replace

import repro
import repro.experiments.runner
import repro.shard
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import scenario
from repro.shard import datacenter_fleet
from repro.shard.coordinator import PodGroup

cell = scenario("virtualized", "browsing", duration_s=20.0, clients=100)
assert run_scenario(cell).requests_completed > 0
assert run_scenario(replace(cell, engine="batched")).requests_completed > 0
fleet = datacenter_fleet(pods=1)
group = PodGroup(fleet, list(fleet.pod_names()))
group.start()
assert group.advance_to(fleet.boundaries[0])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_simulation_paths_never_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SIMULATE_AND_LIST_SCIPY],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "[]"


def test_lazily_imported_analysis_returns_unchanged_values():
    values = np.random.default_rng(12).gamma(2.0, 3.0, size=400)
    stats = summarize(values)
    assert stats.skewness == pytest.approx(1.4454593090155066, rel=1e-9)
    assert stats.kurtosis == pytest.approx(2.6786748400847387, rel=1e-9)
    fit = best_fit(values)
    assert fit.family == "gamma"
    assert fit.params == pytest.approx(
        (2.179666680934378, 0.0, 2.76464061067407), rel=1e-6
    )
    assert fit.aic == pytest.approx(2129.4504086966153, rel=1e-9)
    assert fit.ks_statistic == pytest.approx(0.02473155564930024, rel=1e-6)
    assert fit.frozen().mean() == pytest.approx(6.025995023844342, rel=1e-6)
