"""Adversarial control-space attacks on vehicle trajectory prediction.

The package perturbs the acceleration and curvature history of a target
vehicle, keeps the perturbed motion dynamically feasible and close to the
observed behaviour, and measures how much the perturbation degrades a
downstream trajectory predictor.
"""

from .attack import AttackConfig, AttackResult, dataset_accel_bounds, run_attack
from .barriers import BarrierConfig
from .core import ConfigError, DataError, Scenario, Trajectory
from .metrics import (COLUMNS, aggregate, compute_attack_row, compute_baseline_row,
                      read_rows_jsonl, write_rows_csv, write_rows_jsonl)
from .predictor import KinematicPredictor, PredictorConfig
from .scenario_io import (PRESETS, generate_left_turn, ingest_scenarios,
                          sample_left_turn_params, write_scenarios)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackResult", "BarrierConfig", "COLUMNS", "ConfigError",
    "DataError", "KinematicPredictor", "PRESETS", "PredictorConfig", "Scenario",
    "Trajectory", "aggregate", "compute_attack_row", "compute_baseline_row",
    "dataset_accel_bounds", "generate_left_turn", "ingest_scenarios",
    "read_rows_jsonl", "run_attack", "sample_left_turn_params", "write_rows_csv",
    "write_rows_jsonl", "write_scenarios",
]
