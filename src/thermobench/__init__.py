"""Building thermal workbench for any connected n-zone RC network: plant
simulation, online RC-model estimation, predictive control, and targeted
self-excitation."""

from .network import (
    DiscreteDynamics,
    Edge,
    Node,
    ParameterVector,
    ThermalNetwork,
    discretize,
    generator,
    load_network,
    minimal_parameterization,
    two_zone_example,
)
from .simulator import (
    OccupancySchedule,
    PlantModel,
    PlantState,
    SimulationTrace,
    WeatherModel,
    comfort_bounds,
    external_temperature,
    measure,
    weather_forecast,
)
from .ukf import UkfConfig, UkfModel, UkfState, initial_state, predict, update
from .harness import RunReport, ScenarioConfig, compare_runs, run_scenario
from .presets import PRESET_NAMES, run_preset

__all__ = [name for name in dir() if not name.startswith("_")]
