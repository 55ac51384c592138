"""Coverage simulation and placement optimization for panel-assisted small cells.

The scalar link budget (linkbudget, sinr) and the scenario and config
code (scenario) are pure Python and load with the package.  The numpy
modules, coverage and placement, load on first use of one of their names
here (PEP 562): importing the package alone does not import numpy.
"""

import importlib

from .linkbudget import (
    SPEED_OF_LIGHT,
    BehindSurfaceError,
    ConventionalLink,
    FixedAngles,
    GeometricAngles,
    IrsPanel,
    Position3D,
    RadioEnvironment,
    conventional_rx_power,
    db_to_linear,
    distance,
    element_scatter_gain,
    incidence_angles,
    irs_rx_power,
    watts_to_dbm,
    wavelength,
)
from .scenario import (
    CellExtent,
    ConfigError,
    Objective,
    Scenario,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    with_panel_position,
)
from .sinr import InterferenceSource, SinrSample, interference_power, sinr

__version__ = "0.1.0"

# name -> the module that defines it (or the module itself), both of which
# import numpy; __getattr__ imports the module when the name is first read
_LAZY = {
    "coverage": "coverage",
    "EdgeStats": "coverage",
    "SinrMap": "coverage",
    "build_grid": "coverage",
    "cell_edge_points": "coverage",
    "edge_stats": "coverage",
    "map_to_csv": "coverage",
    "sinr_map_conventional": "coverage",
    "sinr_map_irs": "coverage",
    "placement": "placement",
    "ComparisonReport": "placement",
    "ExplicitList": "placement",
    "GridSweep": "placement",
    "PlacementResult": "placement",
    "compare_models": "placement",
    "enumerate_candidates": "placement",
    "evaluate_placement": "placement",
    "optimize_placement": "placement",
    "ranking_to_csv": "placement",
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "SPEED_OF_LIGHT",
    "BehindSurfaceError",
    "CellExtent",
    "ComparisonReport",
    "ConfigError",
    "ConventionalLink",
    "EdgeStats",
    "ExplicitList",
    "FixedAngles",
    "GeometricAngles",
    "GridSweep",
    "InterferenceSource",
    "IrsPanel",
    "Objective",
    "PlacementResult",
    "Position3D",
    "RadioEnvironment",
    "Scenario",
    "SinrMap",
    "SinrSample",
    "build_grid",
    "cell_edge_points",
    "compare_models",
    "conventional_rx_power",
    "db_to_linear",
    "default_scenario",
    "distance",
    "dump_scenario",
    "edge_stats",
    "element_scatter_gain",
    "enumerate_candidates",
    "evaluate_placement",
    "incidence_angles",
    "interference_power",
    "irs_rx_power",
    "load_scenario",
    "map_to_csv",
    "optimize_placement",
    "parse_scenario",
    "ranking_to_csv",
    "sinr",
    "sinr_map_conventional",
    "sinr_map_irs",
    "watts_to_dbm",
    "wavelength",
    "with_panel_position",
    "__version__",
]
