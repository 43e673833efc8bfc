"""Routing a single delivery vehicle whose driver must park and walk, with the
search time for parking in the objective."""

from .benchmarks import BenchmarkResult, modified_tsp, no_parking_benchmark, relaxed_ms, run_benchmarks
from .errors import (
    InfeasibleInstanceError,
    InfeasibleSolutionError,
    InstanceFormatError,
    ParkrouteError,
    ResourceLimitError,
    UnsupportedError,
)
from .exact import ExactResult, SearchBudget, check_feasible, solve_exact
from .gridlab import (
    ThresholdReport,
    construct_q2,
    construct_q3,
    threshold_p,
    tsp_park_all_solution,
    tsp_park_all_value,
    verify_claims,
)
from .heuristic import (
    ParkingAssignment,
    TwoEchelonResult,
    heuristic_solve,
    heuristic_solve_full,
    route_parking,
    solve_par,
    solve_ssa,
)
from .instance import (
    GridParams,
    Instance,
    ValidationReport,
    gen_geo_instance,
    gen_grid_instance,
    load_instance,
    save_instance,
    validate_instance,
)
from .model import (
    Breakdown,
    MipModel,
    ModelOptions,
    Solution,
    build_model,
    evaluate_solution,
    export_lp,
    parse_lp,
)
from .servicesets import (
    ServiceSet,
    ServiceSetCatalog,
    enumerate_catalog,
    reduce_catalog,
    walk_time,
    walk_tour,
)

__version__ = "0.1.0"
