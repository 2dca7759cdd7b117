import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisrect import burgers, cli, core, cubes, graphs, partition, planes

W_YT = planes.subgroup_y_t()


def flat_cloud(n=41):
    g = burgers.grid_from_function(lambda y, t: 0 * y, (-1, 1), (-1, 1), n, n)
    return graphs.point_set(g)


def chart_and_cell(points):
    """The (y, t) chart of a cloud and the pipeline's raster cell for it."""
    chart = planes.project_chart(points, W_YT)
    return chart, 2.0 * partition.median_projected_spacing(chart)


def test_projection_area_of_plane_ball():
    # the (y, t)-plane meets B(0, r) in {|y| <= r, |t| <= r^2}: area 4 r^3
    r = 1.0
    n = 321
    ys = np.linspace(-r, r, n)
    ts = np.linspace(-r * r, r * r, n)
    yy, tt = np.meshgrid(ys, ts, indexing="ij")
    pts = np.column_stack([np.zeros(n * n), yy.ravel(), tt.ravel()])
    inside = core.dist(pts, np.zeros(3)) <= r
    area = partition.projection_area(*chart_and_cell(pts[inside]))
    assert abs(area - 4 * r ** 3) <= 0.05 * 4 * r ** 3


def test_spacing_looks_past_sixteen_shared_projections():
    # 25 horizontal x-lines of 20 samples: every sample's 16 nearest
    # neighbours share its projection, the nearest distinct one is 0.25 away
    ys, ts = np.meshgrid(0.5 * np.arange(5), 0.25 * np.arange(5),
                         indexing="ij")
    base = np.column_stack([np.zeros(25), ys.ravel(), ts.ravel()])
    pts = np.concatenate([core.mul(base, np.array([s, 0.0, 0.0]))
                          for s in np.linspace(-1, 1, 20)])
    chart = planes.project_chart(pts, W_YT)
    assert abs(partition.median_projected_spacing(chart) - 0.25) <= 1e-12


def test_projection_area_mass_bound():
    ps = flat_cloud(61)
    rng = np.random.default_rng(3)
    chart, cell = chart_and_cell(ps.points)
    # calibrate once on balls, then check random regions with one constant
    cal = []
    for _ in range(10):
        center = ps.points[rng.integers(0, len(ps.points))]
        r = rng.uniform(0.3, 1.0)
        mask = core.dist(ps.points, center) <= r
        if mask.sum() < 10:
            continue
        area = partition.projection_area(chart[mask], cell)
        cal.append(area / ps.masses[mask].sum())
    C = 1.25 * max(cal)
    for _ in range(100):
        lo = rng.uniform(-1, 0, 2)
        hi = lo + rng.uniform(0.2, 1.0, 2)
        mask = ((ps.points[:, 1] >= lo[0]) & (ps.points[:, 1] <= hi[0])
                & (ps.points[:, 2] >= lo[1]) & (ps.points[:, 2] <= hi[1]))
        if mask.sum() < 4:
            continue
        area = partition.projection_area(chart[mask], cell)
        assert area <= C * ps.masses[mask].sum()


def test_projection_area_big_vertical_projection():
    g = burgers.grid_from_function(lambda y, t: 0.4 * y, (-1.5, 1.5),
                                   (-1.5, 1.5), 81, 81)
    ps = graphs.point_set(g)
    R = 1.0
    center = graphs.graph_map(g, 40, 40)
    mask = core.dist(ps.points, center) <= R
    chart, cell = chart_and_cell(ps.points)
    area = partition.projection_area(chart[mask], cell)
    delta = area / R ** 3
    assert delta > 0.1


@pytest.fixture(scope="module")
def affine_tree():
    g = burgers.grid_from_function(lambda y, t: 0.5 * y, (-1, 1), (-1, 1),
                                   29, 29)
    ps = graphs.point_set(g)
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-3, j_max=2)
    cache = cubes.cube_beta_cache(tree)
    return tree, cache, ps


def test_classify_affine_no_flat_violators(affine_tree):
    tree, cache, _ = affine_tree
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    chart, cell = chart_and_cell(tree.points)
    area_violators = partition.classify_cubes(tree, root, chart, 0.4, cell)
    assert area_violators == sorted(area_violators)
    assert set(area_violators) <= set(tree.descendants(root))
    flat = partition.flatness_violators(tree, root, cache, 0.05)
    assert flat == []
    assert not np.any(partition.cover_counts(tree, flat) >= 3)


def test_classify_huge_b_degenerates(affine_tree):
    tree, cache, _ = affine_tree
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    chart, cell = chart_and_cell(tree.points)
    area_violators = partition.classify_cubes(tree, root, chart, 1e9, cell)
    assert area_violators == [root]
    removed_area = np.concatenate([tree.samples(c) for c in area_violators])
    assert set(removed_area) == set(tree.samples(root))


def loop_cover_counts(tree, flat_violators, ball_multiplier=4.0):
    """Oracle: one core.dist pass over all samples per violator ball."""
    counts = np.zeros(len(tree.points), dtype=int)
    for cid in flat_violators:
        ball_r = ball_multiplier * 2.0 ** int(tree.level[cid])
        counts[core.dist(tree.points, tree.center(cid)) <= ball_r] += 1
    return counts


@st.composite
def trees_and_violators(draw):
    """A cube tree over up to 40 grid samples (some duplicated), moved by
    a left translation, a list of violator cubes, a ball multiplier and
    a chunk size."""
    n = draw(st.integers(1, 40))
    grid = st.integers(-16, 16)
    pts = np.array(draw(st.lists(st.tuples(grid, grid, grid), min_size=n,
                                 max_size=n)), float) / 8.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=n // 2)):
        pts[dst] = pts[src]
    shift = draw(st.sampled_from([(0.0, 0.0, 0.0), (300.0, -200.0, 1e3)]))
    tree = cubes.build_cubes(core.mul(np.array(shift), pts), np.ones(n))
    flat = draw(st.lists(st.integers(0, len(tree) - 1), max_size=30))
    multiplier = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return tree, flat, multiplier, draw(st.integers(1, 5))


@settings(deadline=None, max_examples=60)
@given(trees_and_violators())
def test_cover_counts_matches_per_violator_loop(case):
    tree, flat, multiplier, step = case
    with mock.patch.object(partition, "MASK_PAIRS",
                           step * len(tree.points)), \
            mock.patch.object(cubes, "BALL_MULTIPLIER", multiplier):
        got = partition.cover_counts(tree, flat)
    want = loop_cover_counts(tree, flat, multiplier)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_classify_mass_bound_links_to_carleson(affine_tree):
    tree, cache, _ = affine_tree
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    eps = 1e-12
    flat = [cid for cid in tree.descendants(root) if cache[cid].beta > eps]
    report = cubes.carleson_sum(tree, cache, [eps])
    bad_mass = sum(tree.mass[c] for c in flat)
    assert bad_mass <= report.per_root[root][0] * tree.mass[root] + 1e-9


def test_coding_no_violators_single_piece(affine_tree):
    tree, cache, _ = affine_tree
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    coding = partition.coding_partition(tree, root, [], [])
    assert list(coding.pieces) == [""]
    assert coding.bits_per_generation == 0


def test_coding_case_chase_hand_example():
    # two nearby same-level violators with equal strings pick up 0 / 1
    pts = np.array([[0, -0.05, 0.0], [0, 0.05, 0.0]])
    masses = np.ones(2)
    tree = cubes.build_cubes(pts, masses, j_min=-5, j_max=0)
    root = tree.roots()[0]
    level = max(j for j in range(tree.j_min, tree.j_max)
                if len(tree.at_level(j)) == 2)
    gen = tree.at_level(level)
    assert len(gen) == 2
    coding = partition.coding_partition(tree, root, gen, [])
    s = sorted(coding.cube_sigma[cid] for cid in gen)
    assert s == ["0", "1"]
    # the pair is visited twice; the second visit changes nothing


def loop_coding_partition(tree, root_id, flat_violators, removed):
    """Oracle: one core.dist pass over the root's samples per violator,
    then a Python loop over every same-generation cube."""
    violators = set(flat_violators)
    parent = tree.parent.tolist()
    sigma = {root_id: ""}
    bits_added = {}
    changes = {root_id: 0}
    scope = tree.samples(root_id)
    pts = tree.points[scope]
    for level in range(int(tree.level[root_id]) - 1, tree.j_min - 1, -1):
        gen, local = np.unique(tree.label[level][scope], return_inverse=True)
        gen = gen.tolist()
        for cid in gen:
            sigma[cid] = sigma[parent[cid]]
            bits_added[cid] = 0
        ball_r = cubes.BALL_MULTIPLIER * 2.0 ** level
        for q in gen:
            if q not in violators:
                continue
            reach = np.zeros(len(gen))
            np.maximum.at(reach, local, core.dist(pts, tree.center(q)))
            for q1, r in zip(gen, reach.tolist()):
                if q1 == q or r > ball_r:
                    continue
                s_q, s_q1 = sigma[q], sigma[q1]
                if len(s_q) == len(s_q1):
                    if s_q == s_q1:
                        sigma[q] = s_q + "0"
                        sigma[q1] = s_q1 + "1"
                        bits_added[q] += 1
                        bits_added[q1] += 1
                elif len(s_q) > len(s_q1):
                    if s_q.startswith(s_q1):
                        bit = "1" if s_q[len(s_q1)] == "0" else "0"
                        sigma[q1] = s_q1 + bit
                        bits_added[q1] += 1
                else:
                    if s_q1.startswith(s_q):
                        bit = "1" if s_q1[len(s_q)] == "0" else "0"
                        sigma[q] = s_q + bit
                        bits_added[q] += 1
        for cid in gen:
            up = parent[cid]
            changes[cid] = changes[up] + (sigma[cid] != sigma[up])
    removed = set(np.asarray(removed, dtype=int).tolist())
    sample_sigma = {}
    sample_changes = {}
    finest = tree.label[tree.j_min][scope].tolist()
    for s, cid in zip(scope.tolist(), finest):
        if s in removed:
            continue
        sample_sigma[s] = sigma[cid]
        sample_changes[s] = changes.get(cid, 0)
    pieces = {}
    for s, code in sample_sigma.items():
        pieces.setdefault(code, []).append(s)
    pieces = {code: np.array(sorted(idx), dtype=int)
              for code, idx in pieces.items()}
    kept = np.array(sorted(sample_sigma), dtype=int)
    max_bits = max(bits_added.values(), default=0)
    max_changes = max(sample_changes.values(), default=0)
    return partition.CodingResult(sample_sigma, pieces, sigma, max_bits,
                                  max_changes, kept)


@st.composite
def coding_cases(draw):
    """A tree case of trees_and_violators, one of its roots and a
    non-empty list of removed samples."""
    tree, flat, multiplier, step = draw(trees_and_violators())
    root = draw(st.sampled_from(tree.roots()))
    removed = draw(st.lists(st.integers(0, len(tree.points) - 1),
                            min_size=1, max_size=len(tree.points)))
    return tree, root, flat, removed, multiplier, step


@given(st.lists(st.text("01", max_size=5), min_size=1, max_size=12))
def test_prefix_ranges_match_startswith(codes):
    rank, end = partition._prefix_ranges(codes)
    for (a, r_a), (b, r_b) in itertools.product(zip(codes, rank), repeat=2):
        related = a.startswith(b) or b.startswith(a)
        assert (max(r_a, r_b) < end[min(r_a, r_b)]) == related


@settings(deadline=None, max_examples=150)
@given(coding_cases())
def test_coding_matches_per_violator_loop(case):
    tree, root, flat, removed, multiplier, step = case
    with mock.patch.object(partition, "MASK_PAIRS",
                           step * len(tree.points)), \
            mock.patch.object(cubes, "BALL_MULTIPLIER", multiplier):
        got = partition.coding_partition(tree, root, flat, removed)
        want = loop_coding_partition(tree, root, flat, removed)
    assert got.sigma == want.sigma
    assert got.cube_sigma == want.cube_sigma
    assert list(got.pieces) == list(want.pieces)
    for code, idx in want.pieces.items():
        assert got.pieces[code].dtype == idx.dtype
        assert np.array_equal(got.pieces[code], idx)
    assert got.bits_per_generation == want.bits_per_generation
    assert got.max_changes == want.max_changes
    assert got.kept.dtype == want.kept.dtype
    assert np.array_equal(got.kept, want.kept)


SMALL_UNION = {"ny": 61, "nt": 7}


def test_coding_separation_property():
    # points straddling a violator cube land in different pieces
    ps = cli.build_scenario("two_patch_union", 0, SMALL_UNION)[1]
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-2, j_max=5)
    cache = cubes.cube_beta_cache(tree)
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    eps = 0.05
    result = partition.graph_piece_partition(tree, root, cache, b=0.4,
                                             eps=eps)
    mult = cubes.BALL_MULTIPLIER
    scope = set(tree.descendants(root))
    members = tree.samples(root)
    for q in result.flat_violators:
        level = tree.level[q]
        # per cube, the largest distance from q's center to its samples
        reach = np.full(len(tree), -np.inf)
        np.maximum.at(reach, tree.label[level][members],
                      core.dist(tree.points[members], tree.center(q)))
        same = [c for c in tree.at_level(level)
                if c != q and c in scope and reach[c] <= mult * 2.0 ** level]
        for q1 in same:
            s_q = result.coding.cube_sigma[q]
            s_q1 = result.coding.cube_sigma[q1]
            assert not s_q.startswith(s_q1) and not s_q1.startswith(s_q)


def test_pipeline_two_patch_union():
    ps = cli.build_scenario("two_patch_union", 0, SMALL_UNION)[1]
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-2, j_max=5)
    cache = cubes.cube_beta_cache(tree)
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    b = 0.4
    result = partition.graph_piece_partition(tree, root, cache, b=b, eps=0.05)
    assert len(result.piece_reports) >= 2
    for rep in result.piece_reports:
        assert rep.graph_ok
        assert rep.aperture > 0
    assert result.uncovered_area <= b * result.root_mass + 4 * \
        result.cell ** 2
    # kept samples change code strings fewer times than the removal cutoff
    assert result.coding.max_changes < result.cover_cutoff
    # piece count against the trivial and the (N, C') style bounds
    n_pieces = len(result.piece_reports)
    assert n_pieces <= len(result.coding.kept)
    assert n_pieces <= 2 ** (result.coding.max_changes
                             * max(result.coding.bits_per_generation, 1) + 1)
    # sample-level separation: kept samples in one piece never share a fiber
    for rep in result.piece_reports:
        proj = planes.project_chart(tree.points[rep.indices], W_YT)
        assert len(np.unique(np.round(proj, 9), axis=0)) == len(proj)


def test_pipeline_deterministic():
    ps = cli.build_scenario("two_patch_union", 0, {"ny": 41, "nt": 5})[1]
    outs = []
    for _ in range(2):
        tree = cubes.build_cubes(ps.points, ps.masses, j_min=-1, j_max=5)
        cache = cubes.cube_beta_cache(tree)
        root = max(tree.roots(), key=lambda c: tree.mass[c])
        res = partition.graph_piece_partition(tree, root, cache, b=0.4,
                                              eps=0.05)
        outs.append((sorted((code, tuple(idx))
                            for code, idx in res.coding.pieces.items()),
                     res.uncovered_area, res.cover_cutoff))
    assert outs[0] == outs[1]


def test_verify_pieces_plane_and_fiber():
    plane_piece = np.column_stack([np.zeros(5), np.arange(5.0),
                                   np.ones(5)])
    w = core.as_point(0, 0.5, 0.25)
    fiber_pair = np.array([core.mul(w, [0.3, 0, 0]), core.mul(w, [-0.2, 0, 0])])
    reports = partition.verify_pieces(
        np.vstack([plane_piece, fiber_pair]),
        {"plane": np.arange(5), "fiber": np.array([5, 6])})
    by_code = {r.code: r for r in reports}
    assert by_code["plane"].aperture == np.inf
    assert by_code["plane"].graph_ok
    assert by_code["fiber"].aperture == 0.0
    assert not by_code["fiber"].graph_ok


def test_verify_pieces_affine_matches_lipschitz(affine_tree):
    _, _, ps = affine_tree
    idx = np.arange(0, len(ps.points), 7)
    reports = partition.verify_pieces(ps.points, {"all": idx})
    lhat = graphs.lipschitz_constant(ps.points[idx])
    assert reports[0].aperture >= 1.0 / lhat - 1e-9


@pytest.mark.parametrize("n", [2500, 1500])
def test_verify_pieces_rejects_shared_fibre_pair(n):
    """Sample 1 of affine n=50 moved into sample 0's fibre.  The whole
    cloud used to pass through pair subsampling (aperture 2.0), the
    first 1,500 samples through an exact-zero test on ||d_W|| (aperture
    3.0e-8)."""
    _, ps = cli.build_scenario("affine", params={"n": 50})
    pts = ps.points.copy()
    pts[1] = core.mul(pts[0], np.array([0.3, 0.0, 0.0]))
    report, = partition.verify_pieces(pts[:n], {"": np.arange(n)})
    assert report.aperture == 0.0
    assert not report.graph_ok
    assert graphs.lipschitz_constant(pts[:n]) == np.inf
