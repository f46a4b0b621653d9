"""The method table: each of the 17 heuristics by slug, family and display
name, in the paper's order.

`report` names the methods of a results file by this table alone, so it
never compiles `planners`, which attaches one run function to each row.
This module imports only the standard library and the instance model's
error type.
"""

from typing import NamedTuple

from hexcover.lattice import InvalidParameterError


class Method(NamedTuple):
    slug: str
    family: str
    display: str


METHODS = {
    row.slug: row
    for row in (
        Method("boustrophedon", "LinearSweep", "Boustrophedon"),
        Method("row-oneway", "LinearSweep", "Row-OneWay"),
        Method("segment-snake", "LinearSweep", "Segment-Snake"),
        Method("row-interleave", "Interleaved", "Row-Interleave"),
        Method("seg-interleave", "Interleaved", "Seg.-Interleave"),
        Method("spiral-inward", "Contour", "Spiral-Inward"),
        Method("spiral-outward", "Contour", "Spiral-Outward"),
        Method("boundary-peel", "Contour", "Boundary-Peel"),
        Method("stc-tree", "STC", "STC-Tree"),
        Method("stc-like", "STC", "STC-Like"),
        Method("warnsdorff-ep-index", "Graph", "Warnsdorff-EP (index)"),
        Method("warnsdorff-ep-dist", "Graph", "Warnsdorff-EP (dist.)"),
        Method("warnsdorff-ti-index", "Graph", "Warnsdorff-TI (index)"),
        Method("warnsdorff-ti-dist", "Graph", "Warnsdorff-TI (dist.)"),
        Method("dfs-backtrack", "Graph", "DFS-Backtrack"),
        Method("wavefront-hex", "Wavefront", "Wavefront-Hex"),
        Method("morton", "SpaceFilling", "Morton Z-order"),
    )
}
METHOD_ORDER = list(METHODS)

WARNSDORFF_SLUGS = (
    "warnsdorff-ti-index",
    "warnsdorff-ti-dist",
    "warnsdorff-ep-index",
    "warnsdorff-ep-dist",
)


def method_row(slug: str) -> Method:
    """The row of `slug`; a name no row has raises InvalidParameterError."""
    row = METHODS.get(slug)
    if row is None:
        raise InvalidParameterError(f"unknown planner {slug!r}; valid: {', '.join(METHODS)}")
    return row
