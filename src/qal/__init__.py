"""qal: certified attractors of real quadratic maps x^2 + c.

Rigorous dyadic/interval arithmetic, an oracle parameter-access model with
cost accounting, renormalization combinatorics, parameter-space solvers, and
a resolution-vs-cost profiler.
"""

from .attractor import (ApproximationFailed, ApproxSet, AttractorClass,
                        Budget, Hints, approximate, classify, pixel_query,
                        render)
from .dyadic import Dyadic, Interval, iv_deriv_enclosure, iv_quad_step
from .dynamics import (ParameterRangeError, certify_attracting_cycle,
                       critical_orbit, escape_time, isolate_periodic_points)
from .oracle import (OracleFault, ParamOracle, QueryLedger, WorstCaseOracle,
                     ledger_report, oracle_bisect, oracle_exact, oracle_newton)
from .params import (epsilon_family, feigenbaum_limit, superstable_center,
                     window_endpoint_oracle, window_endpoints, window_locate)
from .renorm import (CombinatorialType, detect_renormalization,
                     essential_period, essential_structure, kneading,
                     principal_nest)

__all__ = [
    "Dyadic", "Interval", "iv_quad_step", "iv_deriv_enclosure",
    "ParamOracle", "QueryLedger", "OracleFault", "WorstCaseOracle",
    "oracle_exact", "oracle_bisect", "oracle_newton", "ledger_report",
    "ParameterRangeError", "critical_orbit", "certify_attracting_cycle",
    "isolate_periodic_points", "escape_time",
    "kneading", "CombinatorialType", "detect_renormalization",
    "principal_nest", "essential_structure", "essential_period",
    "superstable_center", "window_endpoints", "window_endpoint_oracle",
    "window_locate", "epsilon_family", "feigenbaum_limit",
    "Hints", "Budget", "AttractorClass", "ApproxSet", "ApproximationFailed",
    "classify", "approximate", "pixel_query", "render",
]
__version__ = "0.1.0"
