"""hexcover: coverage path planning benchmark on irregular hexagonal graphs.

The package root imports none of its modules. Each exported name is looked
up in `_EXPORTS` on first use (PEP 562), which imports the one module that
defines it, so `from hexcover import plan` loads `planners` and what it
needs, and `hexcover --help` loads only `hexcover.cli`. `from hexcover import
aoi` still imports the submodule.
"""

import importlib

_EXPORTS = {
    "aoi": ("AoiShape", "classify_morphology", "insert_obstacles", "sample_aoi"),
    "graphbuild": (
        "GenerationConfig", "Rejection", "attach_base", "build_instance", "postprocess_mask",
        "tessellate",
    ),
    "harness": (
        "DatasetManifest", "audit_dataset", "generate_dataset", "load_instances",
        "load_results", "run_benchmark", "write_report",
    ),
    "hexgeom": (
        "PolygonWithHoles", "face_neighbors", "hexagon_ring", "min_rotated_rect",
        "polygon_metrics",
    ),
    "lattice": (
        "CoverageGraph", "Instance", "InvalidGeometryError", "InvalidParameterError",
        "MorphologyClass", "OffsetCoord", "Point", "graph_from_coords", "offset_to_center",
    ),
    "metrics": (
        "SummaryRow", "aggregate_summary", "compute_path_metrics", "path_distance",
        "path_turns", "validate_path",
    ),
    "oracle": ("AuditResult", "brute_force_enumerate", "hamiltonian_audit"),
    "planners": (
        "METHOD_ORDER", "PLANNERS", "PlanResult", "plan", "timed_plan",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # An AttributeError here lets `from hexcover import <submodule>` fall
    # back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
