import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    aoi_from_ring,
    edge_lengths_ok,
    face_neighbors,
    lattice_graph_args,
    morphology_of,
    tessellate_one,
)
from test_array_forms import free_overlap_area, point_in_ring, polygon_contains

from hexcover import hexgeom
from hexcover.aoi import FAMILIES, classify_morphology, insert_obstacles, sample_aoi
from hexcover.graphbuild import (
    BaseAttachmentError,
    DegenerateInstanceError,
    GenerationConfig,
    HexMask,
    Rejection,
    attach_base,
    build_instance,
    choose_family,
    line_of_sight,
    postprocess_mask,
)
from hexcover.hexgeom import (
    PolygonWithHoles,
    hexagon_area,
    hexagon_ring,
    min_rotated_rect,
)
from hexcover.lattice import (
    SQRT3,
    Instance,
    InvalidGeometryError,
    InvalidParameterError,
    LatticeFrame,
    OffsetCoord,
    Point,
    exterior_boundary,
    graph_from_coords,
    offset_to_center,
)


def rect_ring(x0, y0, w, h):
    return (Point(x0, y0), Point(x0 + w, y0), Point(x0 + w, y0 + h), Point(x0, y0 + h))


def hexagon_slice_area_right_of(t: float) -> float:
    total = hexagon_area(1.0)
    if t <= -1.0:
        return total
    if t >= 1.0:
        return 0.0
    if t >= 0.5:
        return SQRT3 * (1.0 - t) ** 2
    if t >= -0.5:
        return SQRT3 * (0.5 - t) + SQRT3 / 4.0
    return total - SQRT3 * (1.0 + t) ** 2


def cut_for_fraction(frac: float) -> float:
    """Analytic-oracle inverse: cut position whose right-slice holds `frac` of the area."""
    lo, hi = -1.0, 1.0
    target = frac * hexagon_area(1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hexagon_slice_area_right_of(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTessellate:
    def test_single_hexagon_aoi_yields_one_cell(self):
        aoi = aoi_from_ring(hexagon_ring(Point(3.0, -2.0), 1.0))
        mask = tessellate_one(aoi, 1.0)
        assert len(mask.coords) == 1

    def test_rectangle_retains_interior_patch(self):
        aoi = aoi_from_ring(rect_ring(-10.0, -8.0, 20.0, 16.0))
        mask = tessellate_one(aoi, 1.0)
        # All cells of a centred 5x5 patch are fully inside, hence retained.
        for col in range(-2, 3):
            for row in range(-2, 3):
                assert OffsetCoord(col, row) in mask.coords
        assert len(mask.coords) >= 25

    @pytest.mark.parametrize("frac,included", [(0.49, False), (0.51, True)])
    def test_straddling_cell_retention_threshold(self, frac, included):
        # Rectangle whose left edge cuts the col=-7 cells at a known area
        # fraction; the analytic slice formula is the oracle.
        u = cut_for_fraction(frac)
        width = 21.0 - 2.0 * u
        aoi = aoi_from_ring(rect_ring(u - 10.5, -6.0, width, 12.0))
        mask = tessellate_one(aoi, 1.0)
        assert (OffsetCoord(-7, 0) in mask.coords) == included
        # Interior cells unaffected by the cut are always present.
        assert OffsetCoord(0, 0) in mask.coords

    def test_empty_tessellation_rejected(self):
        aoi = aoi_from_ring(rect_ring(0.0, 0.0, 0.2, 0.1))
        mask = tessellate_one(aoi, 1.0)
        assert mask.coords == frozenset()
        with pytest.raises(DegenerateInstanceError):
            postprocess_mask(mask.coords)

    def test_lattice_frame_follows_long_axis(self):
        ang = 0.6
        ca, sa = math.cos(ang), math.sin(ang)
        ring = [Point(ca * x - sa * y, sa * x + ca * y) for x, y in rect_ring(-9, -5, 18, 10)]
        mask = tessellate_one(aoi_from_ring(ring), 1.0)
        assert mask.frame.angle == pytest.approx(ang, abs=1e-9)


def clip_every_cell(aoi, h):
    """Reference tessellation: the retention rule applied by clipping every
    candidate cell, with no shortcut for cells clear of the rings."""
    rect = min_rotated_rect(aoi.outer)
    frame = LatticeFrame(rect.center, rect.angle)
    local = PolygonWithHoles(
        tuple(frame.to_local(p) for p in aoi.outer),
        tuple(tuple(frame.to_local(p) for p in hole) for hole in aoi.holes),
    )
    xs = [p.x for p in local.outer]
    ys = [p.y for p in local.outer]
    x_lo, x_hi, y_lo, y_hi = min(xs) - h, max(xs) + h, min(ys) - h, max(ys) + h
    kept = set()
    for col in range(math.floor(x_lo / (1.5 * h)), math.ceil(x_hi / (1.5 * h)) + 1):
        for row in range(math.floor(y_lo / (SQRT3 * h)) - 1, math.ceil(y_hi / (SQRT3 * h)) + 2):
            c = OffsetCoord(col, row)
            center = offset_to_center(c, h)
            if not (x_lo <= center.x <= x_hi and y_lo <= center.y <= y_hi):
                continue
            if free_overlap_area(center, h, local) >= 0.5 * hexagon_area(h):
                kept.add(c)
    return frozenset(kept), frame


class TestTessellateShortcutExact:
    """tessellate must keep exactly the cells the cell-by-cell reference keeps."""

    def test_matches_clipping_every_cell_on_pipeline_seeds(self):
        config = GenerationConfig()
        holed = 0
        for seed in range(200):
            shape = sample_aoi(choose_family(seed, config), seed, config.scale)
            shape = insert_obstacles(shape, seed)
            holed += bool(shape.holes)
            mask = tessellate_one(shape, config.hex_radius)
            assert (mask.coords, mask.frame) == clip_every_cell(shape, config.hex_radius), seed
        assert holed >= 120

    def test_hole_wholly_inside_one_hexagon(self):
        # The rectangle is centred on the origin with its long side along x,
        # so lattice and world coordinates coincide.
        outer = rect_ring(-6.0, -4.0, 12.0, 8.0)
        centre = offset_to_center(OffsetCoord(1, 0), 1.0)
        for radius, dropped in ((0.8, True), (0.3, False)):
            hole = tuple(reversed(hexagon_ring(centre, radius)))
            aoi = aoi_from_ring(outer, [hole])
            mask = tessellate_one(aoi, 1.0)
            assert mask.frame == LatticeFrame(Point(0.0, 0.0), 0.0)
            assert (OffsetCoord(1, 0) not in mask.coords) == dropped
            assert (mask.coords, mask.frame) == clip_every_cell(aoi, 1.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_holes_that_spare_the_centre(self, axis):
        # Two holes take the hexagon's far sides (|offset| > 0.3h along one
        # axis), more than half its area, yet its centre stays in free space:
        # only clipping finds that the cell is lost.
        outer = rect_ring(-6.0, -4.0, 12.0, 8.0)
        cx, cy = offset_to_center(OffsetCoord(1, 0), 1.0)
        holes = []
        for sign in (-1.0, 1.0):
            lo, hi = sorted((sign * 0.3, sign * 1.2))
            if axis == 0:
                box = (cx + lo, cy - 1.2, hi - lo, 2.4)
            else:
                box = (cx - 1.2, cy + lo, 2.4, hi - lo)
            holes.append(tuple(reversed(rect_ring(*box))))
        aoi = aoi_from_ring(outer, holes)
        assert polygon_contains(aoi, Point(cx, cy))
        mask = tessellate_one(aoi, 1.0)
        assert OffsetCoord(1, 0) not in mask.coords
        assert (mask.coords, mask.frame) == clip_every_cell(aoi, 1.0)

    def test_ring_vertices_on_hexagon_edges(self):
        # Corners (+-3h, +-1.5*sqrt(3)h) are midpoints of the top and bottom
        # edges of cells in columns +-2, and the long sides run along those
        # cells' edges.
        for h in (1.0, 0.7):
            x, y = 3.0 * h, 1.5 * SQRT3 * h
            square = rect_ring(-x, -y, 2 * x, 2 * y)
            # The same outline with an extra vertex on the top edge of cell (0, 1).
            notched = (*square[:3], Point(0.0, y), square[3])
            for ring in (square, notched):
                aoi = aoi_from_ring(ring)
                assert tessellate_one(aoi, h).coords == clip_every_cell(aoi, h)[0]


class TestPostprocess:
    def block(self, cols, rows):
        return {OffsetCoord(c, r) for c in range(cols) for r in range(rows)}

    def test_largest_component_survives(self):
        big = self.block(6, 5)
        small = {OffsetCoord(c, 20) for c in range(3)} | {OffsetCoord(c, 21) for c in range(2)}
        out = postprocess_mask(big | small)
        assert out == frozenset(big)

    def test_fixed_point_on_clean_blob(self):
        blob = self.block(5, 5)
        out = postprocess_mask(blob)
        assert out == frozenset(blob)
        assert postprocess_mask(out) == out

    def test_interior_stub_removed(self):
        # Hand-built 10-cell fixture: 3x3 block plus one degree-1 stub.
        blob = self.block(3, 3)
        stub = OffsetCoord(3, 3)
        assert sum(nb in blob for nb in face_neighbors(stub)) == 1
        out = postprocess_mask(blob | {stub})
        assert out == frozenset(blob)

    def test_chained_stub_removal_reaches_fixed_point(self):
        # A two-cell antenna: removing the tip exposes the second stub.
        blob = self.block(3, 3)
        antenna = {OffsetCoord(3, 3), OffsetCoord(4, 3)}
        out = postprocess_mask(blob | antenna)
        assert out == frozenset(blob)

    def test_never_adds_cells(self):
        blob = self.block(4, 4) | {OffsetCoord(7, 7)}
        out = postprocess_mask(blob)
        assert out <= blob

    def test_empty_after_rules_raises(self):
        # A bare 2-cell domino erodes to nothing.
        with pytest.raises(DegenerateInstanceError):
            postprocess_mask({OffsetCoord(0, 0), OffsetCoord(0, 1)})

    def test_empty_mask_raises(self):
        with pytest.raises(DegenerateInstanceError):
            postprocess_mask(set())

    def test_single_cell_passes_through(self):
        assert postprocess_mask({OffsetCoord(0, 0)}) == frozenset({OffsetCoord(0, 0)})


class TestExteriorBoundary:
    def test_filled_block_boundary(self):
        cells = {OffsetCoord(c, r) for c in range(5) for r in range(5)}
        boundary = exterior_boundary(cells)
        assert boundary < cells
        # Interior cells (all 6 neighbors present) are not on the boundary.
        for c in cells:
            interior = all(nb in cells for nb in face_neighbors(c))
            assert (c not in boundary) == interior



# ---------------------------------------------------------------------------
# Mask post-processing against the reference: the per-cell face_neighbors
# walks that the bitboard passes replaced.


def reference_components(cells):
    unseen = set(cells)
    comps = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for c in frontier:
                for nb in face_neighbors(c):
                    if nb in unseen and nb not in comp:
                        comp.add(nb)
                        nxt.append(nb)
            frontier = nxt
        comps.append(comp)
        unseen -= comp
    return comps


def reference_exterior_boundary(cells):
    if not cells:
        return set()
    cols = [c.col for c in cells]
    rows = [c.row for c in cells]
    lo_c, hi_c = min(cols) - 1, max(cols) + 1
    lo_r, hi_r = min(rows) - 1, max(rows) + 1
    start = OffsetCoord(lo_c, lo_r)
    outside = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for nb in face_neighbors(c):
                if nb in outside or nb in cells:
                    continue
                if lo_c <= nb.col <= hi_c and lo_r <= nb.row <= hi_r:
                    outside.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return {c for c in cells if any(nb in outside for nb in face_neighbors(c))}


def reference_postprocess_mask(mask):
    cells = set(OffsetCoord(*c) for c in mask)
    if not cells:
        raise DegenerateInstanceError("empty mask")
    comps = sorted(reference_components(cells), key=lambda comp: (-len(comp), min(comp)))
    cells = comps[0]
    while True:
        dead = [c for c in cells if sum(nb in cells for nb in face_neighbors(c)) == 1]
        if not dead:
            break
        cells -= set(dead)
    if not cells:
        raise DegenerateInstanceError("dead-end removal emptied the mask")
    boundary = reference_exterior_boundary(cells)
    # The exterior boundary of a face-connected mask is one ring.
    assert len(reference_components(boundary)) == 1
    assert all(comp & boundary for comp in reference_components(cells))
    return frozenset(cells), boundary


def postprocess_outcome(fn, mask):
    """The cells and boundary, sorted with their types shown, or the error."""
    try:
        cells, boundary = fn(mask)
    except DegenerateInstanceError as exc:
        return f"DegenerateInstanceError: {exc}"
    return repr(sorted(cells)), repr(sorted(boundary)), type(cells), type(boundary)


def postprocess_with_boundary(mask):
    cells = postprocess_mask(mask)
    return cells, exterior_boundary(cells)


def assert_postprocess_matches(mask):
    got = postprocess_outcome(postprocess_with_boundary, mask)
    assert got == postprocess_outcome(reference_postprocess_mask, mask)
    cells = frozenset(OffsetCoord(*c) for c in mask)
    assert repr(sorted(exterior_boundary(cells))) == repr(
        sorted(reference_exterior_boundary(cells))
    )
    return got


def hex_disc(centre, radius):
    """The cells within `radius` steps of `centre`."""
    disc = {OffsetCoord(*centre)}
    for _ in range(radius):
        disc |= {nb for c in disc for nb in face_neighbors(c)}
    return disc


class TestPostprocessMatchesReference:
    def test_every_tessellated_mask_of_pipeline_seeds(self):
        config = GenerationConfig()
        for seed in range(200):
            shape = sample_aoi(choose_family(seed, config), seed, config.scale)
            mask = tessellate_one(insert_obstacles(shape, seed), config.hex_radius)
            assert_postprocess_matches(mask.coords)

    def test_random_small_masks(self):
        rng = random.Random(3)
        errors = set()
        for _ in range(400):
            w, h = rng.randint(1, 7), rng.randint(1, 7)
            mask = {(c, r) for c in range(w) for r in range(h) if rng.random() < 0.65}
            if not mask:
                continue
            got = assert_postprocess_matches(mask)
            if isinstance(got, str):
                errors.add(got)
        assert errors == {"DegenerateInstanceError: dead-end removal emptied the mask"}

    def test_empty_mask(self):
        assert assert_postprocess_matches(set()) == "DegenerateInstanceError: empty mask"

    def test_equal_size_largest_components_keep_the_least_cell(self):
        # The band holds the least cell, the block does not hold the greatest.
        band = {OffsetCoord(c, r) for c in range(10) for r in range(2)}
        block = {OffsetCoord(c, r) for c in range(2, 7) for r in range(5, 9)}
        assert len(band) == len(block) and max(band) > max(block)
        for mask in (band | block, block | band):
            assert postprocess_mask(mask) == frozenset(band)
            assert_postprocess_matches(mask)

    def test_stub_chains_expose_further_stubs(self):
        blob = hex_disc((0, 0), 2)
        antenna = {OffsetCoord(0, r) for r in range(3, 8)}
        # A fork: two stubs on one stem, which becomes a chain once they go.
        fork = {OffsetCoord(0, r) for r in (-3, -4, -5)} | {
            OffsetCoord(1, -5), OffsetCoord(-1, -5)
        }
        whole = blob | antenna | fork
        degree = lambda c: sum(nb in whole for nb in face_neighbors(c))
        assert [degree(c) for c in sorted(fork)] == [1, 3, 2, 2, 1]
        assert degree(OffsetCoord(0, 7)) == 1 and degree(OffsetCoord(0, 3)) == 2
        for mask in (blob | antenna, blob | fork, whole):
            assert postprocess_mask(mask) == frozenset(blob)
            assert_postprocess_matches(mask)
        # Both ends of a path go at once: a path of 3 keeps its middle cell,
        # a path of 2 or 4 empties.
        path = [OffsetCoord(c, 0) for c in range(4)]
        assert postprocess_mask(path[:3]) == frozenset(path[1:2])
        for mask in (path[:2], path):
            assert_postprocess_matches(mask)
            with pytest.raises(DegenerateInstanceError, match="emptied"):
                postprocess_mask(mask)

    def test_hole_touching_the_exterior(self):
        disc = hex_disc((0, 0), 3)
        cavity = hex_disc((0, 0), 1)
        channel = {OffsetCoord(0, -2), OffsetCoord(0, -3)}
        mask = disc - cavity - channel
        cells, boundary = postprocess_with_boundary(mask)
        assert cells == frozenset(mask)
        # The cells lining the cavity are on the exterior boundary.
        assert {nb for c in cavity for nb in face_neighbors(c)} & cells <= boundary
        assert_postprocess_matches(mask)
        # Closed off, the cavity is a hole and its lining is interior.
        closed = disc - cavity
        assert not postprocess_with_boundary(closed)[1] & hex_disc((0, 0), 2)
        assert_postprocess_matches(closed)

    @pytest.mark.parametrize("first_col", [0, 1], ids=["even", "odd"])
    def test_every_mask_of_a_box_has_a_one_ring_boundary(self, first_col):
        # Every subset of a 4-column x 3-row box, whose first column is even
        # or odd: the result equals the reference, and whatever survives has
        # an exterior boundary in one face-connected piece.
        box = [(c, r) for c in range(first_col, first_col + 4) for r in range(3)]
        survivors = 0
        for bits in range(1 << len(box)):
            mask = {cell for k, cell in enumerate(box) if bits >> k & 1}
            got = postprocess_outcome(postprocess_with_boundary, mask)
            assert got == postprocess_outcome(reference_postprocess_mask, mask)
            if not isinstance(got, str):
                survivors += 1
                boundary = exterior_boundary(postprocess_mask(mask))
                assert len(reference_components(boundary)) == 1
        assert survivors > 1000


class TestAttachBase:
    def test_single_cell_mask(self):
        coord = OffsetCoord(0, 0)
        aoi = aoi_from_ring(hexagon_ring(Point(0.0, 0.0), 1.0))
        mask = HexMask(frozenset({coord}), LatticeFrame(Point(0, 0), 0.0), 1.0)
        g = attach_base(mask, aoi, seed=1)
        assert g.base_links == (0,)
        assert g.terminal_links == (0,)
        assert g.positions[g.base_node] == g.positions[g.terminal_node]

    def test_convex_aoi_links_entire_visible_ring(self):
        # Convex AOI: every outer-ring cell admits an unoccluded approach
        # over open water, so the whole exterior ring is linked.
        aoi = aoi_from_ring(rect_ring(-8.0, -1.0, 16.0, 2.0))
        mask = tessellate_one(aoi, 1.0)
        coords = postprocess_mask(mask.coords)
        mask = HexMask(coords, mask.frame, mask.h)
        g = attach_base(mask, aoi, seed=0, launch=Point(0.0, -4.0))
        boundary = exterior_boundary(set(coords))
        ordered = sorted(coords)
        assert set(g.base_links) == {i for i, c in enumerate(ordered) if c in boundary}

    def test_concave_occlusion_blocks_far_arm(self):
        # C-shaped AOI opening east; a launch west of it sees the west arm
        # but not the cells tucked behind the opening (extra ring crossings).
        outer = (
            Point(-6.0, -6.0), Point(6.0, -6.0), Point(6.0, -2.0),
            Point(-2.0, -2.0), Point(-2.0, 2.0), Point(6.0, 2.0),
            Point(6.0, 6.0), Point(-6.0, 6.0),
        )
        aoi = aoi_from_ring(outer)
        mask = tessellate_one(aoi, 1.0)
        coords = postprocess_mask(mask.coords)
        hexmask = HexMask(coords, mask.frame, mask.h)
        launch = Point(8.0, 0.0)  # inside the mouth of the C, to the east
        g = attach_base(hexmask, aoi, seed=0, launch=launch)
        ordered = sorted(coords)
        # Cells on the far (west) side of the slot are occluded.
        west_wall = [i for i, c in enumerate(ordered)
                     if g.positions[i][0] < -4.0 and abs(g.positions[i][1]) < 1.5]
        assert west_wall, "fixture should have far-wall cells"
        for i in west_wall:
            assert i not in g.base_links
        assert g.base_links  # near arms remain visible

    def test_hole_blocks_all_sight_lines(self):
        # Launch inside a central obstacle: every segment crosses the hole.
        outer = hexagon_ring(Point(0.0, 0.0), 6.0)
        hole = tuple(reversed(hexagon_ring(Point(0.0, 0.0), 2.2)))
        aoi = aoi_from_ring(outer, holes=[hole])
        mask = tessellate_one(aoi, 1.0)
        coords = postprocess_mask(mask.coords)
        with pytest.raises(BaseAttachmentError):
            attach_base(HexMask(coords, mask.frame, mask.h), aoi, seed=0, launch=Point(0.0, 0.0))

    @pytest.mark.parametrize("seed", [12, 33])
    def test_line_of_sight_oracle(self, seed):
        # Independent oracle: dense sampling along each sight segment counts
        # hole overflight and outside->inside re-entries of the outer ring.
        from hexcover.aoi import insert_obstacles

        aoi = insert_obstacles(sample_aoi("irregular", seed, 1.0), seed)
        mask = tessellate_one(aoi, 1.0)
        coords = postprocess_mask(mask.coords)
        hexmask = HexMask(coords, mask.frame, mask.h)
        launch = Point(0.0, min(p.y for p in aoi.outer) - 2.0)
        g = attach_base(hexmask, aoi, seed=0, launch=launch)

        boundary = exterior_boundary(set(coords))
        ordered = sorted(coords)
        for i, c in enumerate(ordered):
            if c not in boundary:
                assert i not in g.base_links
                continue
            centre = hexmask.frame.to_world(offset_to_center(c, 1.0))
            hole_len, flips = _sampled_sight(launch, centre, aoi)
            if i in g.base_links:
                assert hole_len < 0.05 and flips <= 1
            else:
                assert hole_len > 1e-3 or flips > 1


def _sampled_sight(launch, centre, polygon):
    """(length inside holes, number of inside/outside flips of the outer ring)."""
    n = 4001
    seg_len = math.hypot(centre.x - launch.x, centre.y - launch.y)
    hole_hits = 0
    flips = 0
    prev_inside = False
    for k in range(1, n):
        t = k / n
        m = Point(launch.x + t * (centre.x - launch.x), launch.y + t * (centre.y - launch.y))
        if any(point_in_ring(m, hole) for hole in polygon.holes):
            hole_hits += 1
        inside = point_in_ring(m, polygon.outer)
        if inside != prev_inside:
            flips += 1
        prev_inside = inside
    return hole_hits / n * seg_len, flips


class TestBuildInstance:
    CFG = GenerationConfig()

    def test_deterministic(self):
        a = build_instance("compact", 3, self.CFG)
        b = build_instance("compact", 3, self.CFG)
        assert type(a) is type(b)
        if isinstance(a, Instance):
            assert a.id == b.id
            assert a.graph.coords == b.graph.coords
            assert a.graph.base_links == b.graph.base_links

    def test_pipeline_products_over_seed_range(self):
        admitted = 0
        reasons = set()
        for seed in range(40):
            family = choose_family(seed, self.CFG)
            out = build_instance(family, seed, self.CFG)
            if isinstance(out, Rejection):
                reasons.add(out.reason)
                continue
            admitted += 1
            g = out.graph
            assert 28 <= g.n <= 46
            assert isinstance(out, Instance)
            assert edge_lengths_ok(g)
            assert set(g.base_links) == set(g.terminal_links)
            boundary = exterior_boundary(set(g.coords))
            ordered = sorted(g.coords)
            for i in g.base_links:
                assert ordered[i] in boundary
        assert admitted >= 10
        assert reasons <= {
            "degenerate",
            "size-band",
            "base-attachment",
            "infeasible",
        }

    def test_size_band_rejection(self):
        cfg = GenerationConfig(size_band=(28, 29))
        rejected = [
            out for out in (build_instance("compact", s, cfg) for s in range(12))
            if isinstance(out, Rejection) and out.reason == "size-band"
        ]
        assert rejected, "narrow size band should reject most seeds"

    def test_invalid_obstacle_geometry_is_degenerate_rejection(self, monkeypatch):
        import hexcover.graphbuild as gb

        def broken(polygon, seed):
            raise InvalidGeometryError("hole crosses outer ring")

        monkeypatch.setattr(gb, "insert_obstacles", broken)
        out = build_instance("compact", 3, self.CFG)
        assert isinstance(out, Rejection)
        assert out.reason == "degenerate"
        assert "hole crosses outer ring" in out.detail

    def test_each_seed_is_validated_and_measured_once(self, monkeypatch):
        # Each seed's final polygon is validated once, and its outer ring's
        # rectangle is computed once: its one convex hull shows that neither
        # the morphology nor the lattice frame computes the rectangle again.
        validated, hulls = [], []
        real_validate, real_hull = PolygonWithHoles.validate, hexgeom.convex_hull

        def validate(polygon):
            validated.append(polygon)
            real_validate(polygon)

        def convex_hull(points):
            hulls.append(points)
            return real_hull(points)

        monkeypatch.setattr(PolygonWithHoles, "validate", validate)
        monkeypatch.setattr(hexgeom, "convex_hull", convex_hull)
        holed = 0
        for seed in range(40):
            family = choose_family(seed, self.CFG)
            validated.clear()
            hulls.clear()
            out = build_instance(family, seed, self.CFG)
            assert not (isinstance(out, Rejection) and out.reason == "degenerate"), seed
            assert (len(validated), len(hulls)) == (1, 1), seed
            final = insert_obstacles(sample_aoi(family, seed, self.CFG.scale), seed)
            assert validated[0] == final and hulls[0] == final.outer
            holed += bool(final.holes)
            if isinstance(out, Instance):
                assert out.morphology == morphology_of(final)
        assert holed >= 20

    def test_family_mix_deterministic(self):
        assert choose_family(5, self.CFG) == choose_family(5, self.CFG)
        fams = {choose_family(s, self.CFG) for s in range(60)}
        assert fams == set(FAMILIES)


class TestGraphFromCoords:
    def test_cells_sorted_and_indexed(self):
        coords = [OffsetCoord(1, 0), OffsetCoord(0, 0), OffsetCoord(0, 1)]
        g = graph_from_coords(coords, 1.0, [0], [2], Point(-2, 0))
        assert list(g.coords) == sorted(coords)
        assert g.base_node == 3
        assert g.terminal_node == 4
        assert g.adjacency[g.base_node] == (0,)
        assert 4 in g.adjacency[2]

    def test_adjacency_symmetric(self):
        g = graph_from_coords(
            [OffsetCoord(c, r) for c in range(4) for r in range(3)],
            1.0,
            [0],
            [1],
            Point(-2, 0),
        )
        for i in range(g.n):
            for j in g.internal_adjacency[i]:
                assert i in g.internal_adjacency[j]

    @pytest.mark.parametrize("links", [[3], [-1]], ids=["link-past-end", "link-negative"])
    def test_index_out_of_range(self, links):
        # Cell -1 would wrap to cell 2, (1, 0), a face neighbour of cell 0.
        coords = [OffsetCoord(0, 0), OffsetCoord(0, 1), OffsetCoord(1, 0)]
        with pytest.raises(InvalidParameterError, match="out of range"):
            graph_from_coords(coords, 1.0, [0], links, Point(-2, 0))


    def test_circumradius_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="circumradius must be positive"):
            graph_from_coords([OffsetCoord(0, 0)], 0.0, [0], [0], Point(-2, 0))


# The neighbour steps in the order the graph constructor once listed them,
# which made it sort every adjacency row.
REF_EVEN_COL_STEPS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, 1))
REF_ODD_COL_STEPS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, -1))


def ref_graph_parts(coords, h, base_links, terminal_links, frame):
    """Cells, node positions, cell adjacency and full adjacency, built as
    the graph constructor once built them: each centre through
    offset_to_center and frame.to_world, each adjacency row sorted."""
    coords = tuple(sorted(OffsetCoord(*c) for c in coords))
    n = len(coords)
    positions = [frame.to_world(offset_to_center(c, h)) for c in coords]
    index = {c: i for i, c in enumerate(coords)}
    internal = tuple(
        tuple(sorted(
            j
            for dc, dr in (REF_ODD_COL_STEPS if col & 1 else REF_EVEN_COL_STEPS)
            if (j := index.get((col + dc, row + dr))) is not None
        ))
        for col, row in coords
    )
    base_links, terminal_links = sorted(set(base_links)), sorted(set(terminal_links))
    full = [*internal, tuple(base_links), tuple(terminal_links)]
    for i in base_links:
        full[i] += (n,)
    for i in terminal_links:
        full[i] += (n + 1,)
    return coords, positions, internal, tuple(full)


class TestGraphMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(lattice_graph_args(), st.randoms(use_true_random=False))
    def test_shuffled_coords_give_the_reference_graph(self, args, rnd):
        coords, h, base_links, terminal_links, base_pos, frame = args
        shuffled = list(coords)
        rnd.shuffle(shuffled)
        g = graph_from_coords(shuffled, h, base_links, terminal_links, base_pos, frame)
        ref_coords, ref_positions, ref_internal, ref_full = ref_graph_parts(
            coords, h, base_links, terminal_links, frame)
        assert g.coords == ref_coords
        assert g.internal_adjacency == ref_internal
        assert g.adjacency == ref_full
        as_hex = lambda points: [(x.hex(), y.hex()) for x, y in points]
        assert as_hex(g.positions[: g.n]) == as_hex(ref_positions)
        assert g.positions[g.n:] == (base_pos, base_pos)


# ---------------------------------------------------------------------------
# Stage products, pinned


def _hex(values) -> str:
    # float.hex tells 0.0 from -0.0 and every last bit apart.
    return ",".join(float(v).hex() for v in values)


def stage_products(seed: int, config: GenerationConfig = GenerationConfig()) -> str:
    """One line per generation stage for `seed`: the polygon after hole
    insertion, its morphology, the tessellated mask and its frame, and the
    post-processed cells with their exterior boundary, or the rejection."""
    family = choose_family(seed, config)
    lines = []
    try:
        polygon = insert_obstacles(sample_aoi(family, seed, config.scale), seed)
        polygon.validate()
        for ring in (polygon.outer, *polygon.holes):
            lines.append("ring " + _hex(v for p in ring for v in p))
        m = classify_morphology(polygon, min_rotated_rect(polygon.outer))
        lines.append(f"morphology {m.label} {_hex((m.compactness, m.aspect))}")
        mask = tessellate_one(polygon, config.hex_radius)
        lines.append(f"mask {sorted(mask.coords)}")
        frame = mask.frame
        lines.append(f"frame {_hex((*frame.origin, frame.angle, mask.h))}")
        cells, boundary = postprocess_with_boundary(mask.coords)
        lines.append(f"cells {sorted(cells)}")
        lines.append(f"boundary {sorted(boundary)}")
    except (InvalidGeometryError, DegenerateInstanceError) as exc:
        lines.append(f"rejected {type(exc).__name__}: {exc}")
    return "\n".join(lines)


def stage_products_digest(seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        h.update(f"seed {seed}\n{stage_products(seed)}\n".encode())
    return h.hexdigest()


# The digest of the straightforward per-cell and per-vertex loops, which the
# tests keep as references. A change to what is generated moves it on
# purpose and updates it here; a shortcut must leave it as it is.
PINNED_STAGE_PRODUCTS_0_199 = "1de4a1d3785866639de31d43eed193efcdf18e41ba454ce03d167ced9134bf17"


def test_stage_products_pinned_seeds_0_199():
    # Every generation shortcut must be exact: the products of each stage,
    # compared bit for bit, are those of the straightforward computation.
    assert stage_products_digest(range(200)) == PINNED_STAGE_PRODUCTS_0_199
