"""Decomposition of localization disparities into parameterized error components.

Two independent localizers watching the same vehicle disagree by an amount
that carries information: a miscalibrated sensor offset rotates with the
vehicle, a shifted map does not, a scaled map errs proportionally to
position.  This package models the measured difference between the two
position estimates as a sum of such components, estimates the component
parameters online with an Unscented Kalman Filter, checks beforehand
whether a given combination of components is separable along a trajectory,
and ships a Monte Carlo harness that measures estimation error over
repeated simulated runs.
"""

from .error_models import (CompositeModel, ErrorComponent, KinematicInput,
                           body_offset, map_rotation, map_scale, map_shear,
                           map_translation)
from .estimator import UkfConfig, filter_runs
from .exceptions import (ConfigError, DimensionMismatch, ExperimentRunError,
                         FilterStepError, NonMonotoneTime, NotPSD, ParseError,
                         SingularTransform, ZeroTurnRate)
from .frames import (Heading, heading_rates, normalize_angle, rotate,
                     rotation_matrix)
from .harness import (ExperimentConfig, FileTrajectory, MseSeries,
                      SyntheticTrajectory, build_trajectory, derive_run_seed,
                      emit_results, load_config, parse_config, run_experiment)
from .observability import (ObservabilityReport, closed_form_decomposition,
                            difference_rates, numerical_rank_test)
from .simulation import (InjectionConfig, inject_runs, load_trajectory,
                         synthesize_trajectory)

__version__ = "0.1.0"

__all__ = [
    "Heading", "heading_rates", "normalize_angle", "rotate", "rotation_matrix",
    "CompositeModel", "ErrorComponent", "KinematicInput", "body_offset",
    "map_rotation", "map_scale", "map_shear", "map_translation",
    "UkfConfig", "filter_runs",
    "ObservabilityReport", "closed_form_decomposition", "difference_rates",
    "numerical_rank_test",
    "InjectionConfig", "inject_runs", "load_trajectory", "synthesize_trajectory",
    "ExperimentConfig", "FileTrajectory", "MseSeries", "SyntheticTrajectory",
    "build_trajectory", "derive_run_seed", "emit_results", "load_config",
    "parse_config", "run_experiment",
    "ConfigError", "DimensionMismatch", "ExperimentRunError", "FilterStepError",
    "NonMonotoneTime", "NotPSD", "ParseError", "SingularTransform", "ZeroTurnRate",
]
