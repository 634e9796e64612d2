"""Robust parameter recovery for linear SEMs on bow-free mixed graphs.

The root exports the main entry points of each module; everything else is
imported from its submodule (``bowfree.recovery``, ``bowfree.reduction``, ...).
"""

from .errors import BowfreeError, NearSingularError
from .graphs import MixedGraph, load_graph, save_graph
from .lsem import ParamSet, forward_map, sample_covariance
from .recovery import RecoveryConfig, recover_all, recover_full_params
from .robustness import check_assumptions, estimate_condition_number, eta_bound
from .reduction import reduce_instance, verify_reduction

__version__ = "0.1.0"
