"""Lipschitz extensions of partially labeled functions on weighted graphs."""

from .core import (
    DEFAULT_TOL,
    Graph,
    GraphFormatError,
    LexgraphError,
    NoTerminalPathError,
    NotWellPosedError,
    PartialAssignment,
    SizeGuardError,
    TerminalPath,
    WellPosednessReport,
    check_well_posed,
    gradient_vector,
    inf_norm_of,
)
from .envelopes import Envelope, PressureSubgraph, comp_vhigh, comp_vlow, high_pressure_subgraph, mod_dijkstra, pressure_exceeds
from .l0reg import OutlierResult, outlier_approx, outlier_exact
from .solvers import (
    AmbiguousVertex,
    DirectedLexResult,
    MaxMinReport,
    SolverResult,
    comp_fast_lex_min,
    comp_inf_min,
    comp_lex_min,
    directed_lex_min,
    verify_max_min,
)
from .steepest import steepest_path, vertex_steepest_path

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "AmbiguousVertex",
    "DirectedLexResult",
    "Envelope",
    "Graph",
    "GraphFormatError",
    "LexgraphError",
    "MaxMinReport",
    "NoTerminalPathError",
    "NotWellPosedError",
    "OutlierResult",
    "PartialAssignment",
    "PressureSubgraph",
    "SizeGuardError",
    "SolverResult",
    "TerminalPath",
    "WellPosednessReport",
    "check_well_posed",
    "comp_fast_lex_min",
    "comp_inf_min",
    "comp_lex_min",
    "comp_vhigh",
    "comp_vlow",
    "directed_lex_min",
    "gradient_vector",
    "high_pressure_subgraph",
    "inf_norm_of",
    "mod_dijkstra",
    "outlier_approx",
    "outlier_exact",
    "pressure_exceeds",
    "steepest_path",
    "verify_max_min",
    "vertex_steepest_path",
]
