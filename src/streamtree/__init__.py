"""Streaming decision trees: VFDT plus strict memory-conservative variants,
with synthetic stream generators and a prequential benchmark harness."""

from .core import Attribute, ConfigError, ContractViolation, Instance, Schema
from .evaluation import prequential_run
from .experiment import ExperimentConfig, make_learner, relative_metrics, run_experiment
from .streams import CsvColumn, CsvStream, LedStream, RbfStream, SeaStream, StreamFormatError
from .svfdt import StrictHoeffdingTree
from .tree import HoeffdingTree, TreeConfig

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "ConfigError",
    "ContractViolation",
    "CsvColumn",
    "CsvStream",
    "ExperimentConfig",
    "HoeffdingTree",
    "Instance",
    "LedStream",
    "RbfStream",
    "Schema",
    "SeaStream",
    "StreamFormatError",
    "StrictHoeffdingTree",
    "TreeConfig",
    "make_learner",
    "prequential_run",
    "relative_metrics",
    "run_experiment",
]
