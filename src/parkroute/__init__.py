"""Routing a single delivery vehicle whose driver must park and walk, with the
search time for parking in the objective.

The names below load lazily (PEP 562): ``import parkroute`` runs no
submodule, and each name imports the submodule that defines it on first use,
so a script that needs ``parkroute.instance`` alone never loads a solver."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "benchmarks": "BenchmarkResult modified_tsp no_parking_benchmark relaxed_ms run_benchmarks",
        "errors": "InfeasibleInstanceError InfeasibleSolutionError InstanceFormatError ParkrouteError "
        "ResourceLimitError UnsupportedError",
        "exact": "ExactResult check_feasible solve_exact",
        "gridlab": "ThresholdReport construct_q2 construct_q3 threshold_p tsp_park_all_solution "
        "tsp_park_all_value verify_claims",
        "heuristic": "ParkingAssignment TwoEchelonResult heuristic_solve heuristic_solve_full route_parking "
        "solve_par solve_ssa",
        "instance": "GridParams Instance ValidationReport gen_geo_instance gen_grid_instance load_instance "
        "save_instance validate_instance",
        "model": "Breakdown MipModel ModelOptions Solution build_model evaluate_solution export_lp parse_lp",
        "servicesets": "ServiceSet ServiceSetCatalog enumerate_catalog reduce_catalog walk_time walk_tour",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
