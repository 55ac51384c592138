"""The package, its scalar API and scenario checks run without numpy; numpy names load on use."""

import json
import math
import os
import subprocess
import sys

import pytest

import irs_planner

# Runs in a fresh interpreter, so no other test has imported numpy yet.
SCALAR_ONLY = """
import json, sys
import irs_planner as p
scenario = p.parse_scenario(p.dump_scenario(p.default_scenario()))
user = p.Position3D(120.0, 80.0, scenario.user_height)
bs = scenario.micro_bs_position
conv = p.conventional_rx_power(
    p.ConventionalLink(scenario.micro_power_conventional, bs, user, 3.0), scenario.env
)
irs = p.irs_rx_power(scenario.micro_power_irs, scenario.panel, bs, user, scenario.env)
interference = p.interference_power(user, scenario.interference_sources(), scenario.env)
sample = p.sinr(irs, interference, scenario.env.noise_power)
try:
    p.parse_scenario("grid_resolution = 300")
except p.ConfigError as exc:
    rejected = str(exc)
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "lazy": sorted(m for m in ("irs_planner.coverage", "irs_planner.placement") if m in sys.modules),
    "values": [conv, irs, interference, sample.sinr_db],
    "rejected": rejected,
}))
"""


def test_scalar_api_runs_without_numpy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(irs_planner.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCALAR_ONLY],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert not result["numpy"]
    assert result["lazy"] == []
    # the lattice rule lives with the scenario, so it runs without numpy
    assert result["rejected"].startswith("grid_resolution ")
    assert all(math.isfinite(v) and v > 0 for v in result["values"][:3])


def test_lazy_names_are_the_defining_modules_objects():
    for name, module in irs_planner._LAZY.items():
        defining = getattr(irs_planner, module)
        expected = defining if name == module else getattr(defining, name)
        assert getattr(irs_planner, name) is expected
    assert irs_planner.CellExtent is irs_planner.coverage.CellExtent
    assert irs_planner.CellExtent is irs_planner.placement.CellExtent


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from irs_planner import *", namespace)
    assert set(irs_planner.__all__) <= set(namespace)
    assert set(irs_planner.__all__) <= set(dir(irs_planner))


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(irs_planner, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        irs_planner.no_such_name
