"""Pseudospectral solver and verification suite for canonical null foliations."""

from .errors import (BreakdownError, ConfigurationError, DatasetError,
                     NonConvergenceError, NullfoliateError, OutOfDomainError,
                     UnsupportedSpinError)
from .geodesic import (GeodesicNullData, MmsSpec, gen_manufactured,
                       gen_minkowski, gen_schwarzschild, load, save, validate)
from .reports import NormReport, ResidualReport
from .solver import (Foliation, SolverConfig, WindowSolution,
                     continue_foliation, picard_window)
from .sphere import Grid, SpinField, build_grid
from .tensors import MetricRep, OneForm, SymTwoTensor

__version__ = "0.1.0"
