"""hexcover: coverage path planning benchmark on irregular hexagonal graphs."""

from hexcover.aoi import (
    AoiShape,
    MorphologyClass,
    classify_morphology,
    insert_obstacles,
    sample_aoi,
)
from hexcover.graphbuild import (
    CoverageGraph,
    GenerationConfig,
    Instance,
    Rejection,
    attach_base,
    build_instance,
    graph_from_coords,
    postprocess_mask,
    tessellate,
)
from hexcover.harness import (
    DatasetManifest,
    ResultRecord,
    audit_dataset,
    generate_dataset,
    load_instances,
    load_results,
    run_benchmark,
    write_report,
)
from hexcover.hexgeom import (
    HexCell,
    InvalidGeometryError,
    InvalidParameterError,
    OffsetCoord,
    Point,
    PolygonWithHoles,
    face_neighbors,
    hex_vertices,
    min_rotated_rect,
    offset_to_center,
    polygon_metrics,
)
from hexcover.metrics import (
    SummaryRow,
    aggregate_summary,
    compute_path_metrics,
    path_distance,
    path_turns,
    validate_path,
)
from hexcover.oracle import AuditResult, brute_force_enumerate, hamiltonian_audit
from hexcover.planners import (
    METHOD_ORDER,
    PLANNERS,
    PlanResult,
    WarnsdorffConfig,
    bfs_shortest_path,
    plan,
    timed_plan,
)

__version__ = "0.1.0"
