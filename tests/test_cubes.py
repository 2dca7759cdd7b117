import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from heisrect import beta, burgers, core, cubes, graphs

RNG = np.random.default_rng(61)


def plane_cloud(n=400, rng=None):
    rng = rng or RNG
    ys = rng.uniform(-1, 1, n)
    ts = rng.uniform(-1, 1, n)
    pts = np.column_stack([np.zeros(n), ys, ts])
    return pts, np.ones(n)


@pytest.fixture(scope="module")
def plane_tree():
    pts, masses = plane_cloud(400, np.random.default_rng(2))
    return cubes.build_cubes(pts, masses, j_min=-3, j_max=2), pts, masses


def test_single_point_degenerates():
    tree = cubes.build_cubes(np.array([[1.0, 2.0, 3.0]]), np.array([2.0]),
                             j_min=-2, j_max=1)
    for j in range(-2, 2):
        assert len(tree.at_level(j)) == 1
        cid = tree.at_level(j)[0]
        assert tree.mass[cid] == 2.0
        assert list(tree.samples(cid)) == [0]


def test_invariants_and_inner_ball(plane_tree):
    tree, _, _ = plane_tree
    inner_c = cubes.check_tree_invariants(tree)
    assert inner_c > 0



def test_invariants_reject_foreign_label(plane_tree):
    bad = copy.deepcopy(plane_tree[0])
    bad.label[bad.j_min][0] = bad.roots()[0]
    with pytest.raises(AssertionError, match="not an exact partition"):
        cubes.check_tree_invariants(bad)


def test_invariants_reject_wrong_parent(plane_tree):
    bad = copy.deepcopy(plane_tree[0])
    cid = bad.at_level(bad.j_min)[0]
    bad.parent[cid] = next(c for c in bad.at_level(bad.j_min + 1)
                           if c != bad.parent[cid])
    with pytest.raises(AssertionError, match="nesting violated"):
        cubes.check_tree_invariants(bad)


def test_invariants_reject_far_sample(plane_tree):
    tree = plane_tree[0]
    bad = copy.deepcopy(tree)
    # a sample that leaves no cube empty, moved with its whole ancestor
    # chain into the finest cube farthest from it: only the diameter breaks
    s = next(s for s in range(len(tree.points))
             if len(tree.samples(tree.label[tree.j_min][s])) > 1)
    finest = tree.at_level(tree.j_min)
    far = max(finest, key=lambda c: float(core.dist(tree.center(c),
                                                    tree.points[s])))
    assert core.dist(tree.center(far), tree.points[s]) > 2.0 ** tree.j_min
    for j in range(tree.j_min, tree.j_max + 1):
        bad.label[j][s] = far
        far = bad.parent[far]
    with pytest.raises(AssertionError, match="diameter bound violated"):
        cubes.check_tree_invariants(bad)


@st.composite
def small_clouds(draw):
    """Up to 60 grid points in [-2, 2]^3, some rows exact duplicates."""
    n = draw(st.integers(1, 60))
    grid = st.integers(-16, 16)
    pts = np.array(draw(st.lists(st.tuples(grid, grid, grid),
                                 min_size=n, max_size=n)), float) / 8.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=n // 2)):
        pts[dst] = pts[src]
    masses = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n,
                                    max_size=n)))
    return pts, masses


@settings(deadline=None)
@given(small_clouds())
def test_tree_properties_random_clouds(cloud):
    pts, masses = cloud
    tree = cubes.build_cubes(pts, masses)
    cubes.check_tree_invariants(tree)
    total = masses.sum()
    for j in range(tree.j_min, tree.j_max + 1):
        owners = [[] for _ in pts]
        for cid in tree.at_level(j):
            for s in tree.samples(cid):
                owners[s].append(cid)
        assert owners == [[cubes.containing_cube(tree, s, j)]
                          for s in range(len(pts))]
        assert abs(tree.mass[tree.level == j].sum() - total) <= 1e-12 * total
    for cid in range(len(tree)):
        assert tree.center_index[cid] in tree.samples(cid)
        assert all(tree.parent[ch] == cid for ch in tree.children(cid))
        if tree.parent[cid] >= 0:
            assert cid in tree.children(tree.parent[cid])


# blocked all-pairs oracles: the scans the local kernels replace

def blocked_rows(points, others):
    for s in range(0, len(points), 512):
        yield s, core.dist(points[s:s + 512, None, :], others[None, :, :])


def blocked_nearest(points, targets):
    out = np.empty(len(points), dtype=int)
    for s, d in blocked_rows(points, targets):
        out[s:s + len(d)] = np.argmin(d, axis=1)
    return out


def blocked_median_nn(points):
    n = len(points)
    if n < 2:
        return 0.0
    nn = np.full(n, np.inf)
    for s, d in blocked_rows(points, points):
        d[np.arange(len(d)), np.arange(s, s + len(d))] = np.inf
        nn[s:s + len(d)] = d.min(axis=1)
    return float(np.median(nn))


def blocked_diameter(points):
    return max(float(d.max()) for _, d in blocked_rows(points, points))


def blocked_top_level(points):
    diam = blocked_diameter(points)
    return max(0, math.ceil(math.log2(diam)) + 2) if diam > 0 else 0


def blocked_invariants(tree):
    inner_c = np.inf
    for j in range(tree.j_min, tree.j_max + 1):
        lab = tree.label[j]
        ids = tree.at_level(j)
        if not np.array_equal(np.unique(lab), ids):
            raise AssertionError(f"level {j} is not an exact partition")
        up = tree.label[j + 1] if j < tree.j_max else -1
        if np.any(tree.parent[lab] != up):
            raise AssertionError(f"nesting violated at level {j}")
        for cid in ids:
            inside = lab == cid
            if blocked_diameter(tree.points[inside]) > 2.0 ** j:
                raise AssertionError(f"diameter bound violated at level {j}")
            if not inside.all():
                gap = core.dist(tree.points[~inside], tree.center(cid)).min()
                inner_c = min(inner_c, gap / 2.0 ** j)
    return float(inner_c)


@st.composite
def offset_clouds(draw):
    """small_clouds moved far from the origin, some dilated so that their
    diameter sits at, just above or just below a power of two."""
    pts, masses = draw(small_clouds())
    a, b = draw(st.sampled_from([(0.0, 0.0), (300.0, -200.0), (1e3, 1e3)]))
    pts = core.mul(np.array([a, b, draw(st.sampled_from([0.0, 1e3, -1e5]))]),
                   pts)
    diam = blocked_diameter(pts)
    rel = draw(st.sampled_from([None, 0.0, 1e-12, -1e-12, 1e-7, -1e-7]))
    if rel is not None and diam > 0:
        target = 2.0 ** round(math.log2(diam)) * (1 + rel)
        pts = core.dilate(target / diam, pts)
    return pts, masses


@settings(deadline=None, max_examples=60)
@given(offset_clouds())
def test_local_kernels_match_blocked_oracles(cloud):
    pts, masses = cloud
    tol = core.dist_error(pts)
    assert cubes.median_nn_distance(pts) == blocked_median_nn(pts)
    top = blocked_top_level(pts)
    assert cubes._top_level(pts, tol) == top
    diam = blocked_diameter(pts)
    for j in (top - 3, top - 2, top - 1):
        assert cubes._dominates(pts, tol, j) == (2.0 ** j >= diam)
    if 2.0 ** (top - 3) < diam:
        with pytest.raises(ValueError, match="must dominate"):
            cubes.build_cubes(pts, masses, j_max=top - 3)
    tree = cubes.build_cubes(pts, masses)
    assert tree.j_max == top
    # centre assignment, both uses: samples to the finest net, and the
    # centres of one level to the net above
    for j in (tree.j_min, tree.j_min + 1):
        fine = cubes.farthest_point_net(pts, 2.0 ** (j - 2))
        coarse = cubes.farthest_point_net(pts, 2.0 ** (j - 1), fine)
        assert np.array_equal(
            cubes._nearest(pts, pts[fine], 2.0 ** (j - 2), tol),
            blocked_nearest(pts, pts[fine]))
        assert np.array_equal(
            cubes._nearest(pts[fine], pts[coarse], 2.0 ** (j - 1), tol),
            blocked_nearest(pts[fine], pts[coarse]))
    got = cubes.check_tree_invariants(tree)
    want = blocked_invariants(tree)
    assert got == want or (np.isinf(got) and np.isinf(want))
    for cid in range(len(tree)):
        j = tree.level[cid]
        assert np.array_equal(tree.samples(cid),
                              np.flatnonzero(tree.label[j] == cid))
        assert tree.children(cid) == np.flatnonzero(tree.parent == cid).tolist()


def full_rescan_net(points, radius, candidates=None):
    """The greedy net with every distance rescanned at every step."""
    idx = np.arange(len(points)) if candidates is None else np.asarray(candidates)
    pts = points[idx]
    chosen = [0]
    d = core.dist(pts, pts[0])
    while True:
        far = int(np.argmax(d))
        if d[far] < radius:
            break
        chosen.append(far)
        d = np.minimum(d, core.dist(pts, pts[far]))
    return idx[np.array(sorted(chosen))]


@st.composite
def translated_clouds(draw):
    """small_clouds left-translated by one of a few group elements."""
    pts, masses = draw(small_clouds())
    shift = draw(st.sampled_from([(0.0, 0.0, 0.0), (300.0, -200.0, 0.0),
                                  (0.0, 0.0, 1e3)]))
    return core.mul(np.array(shift), pts), masses


@settings(deadline=None, max_examples=80)
@given(translated_clouds(), st.data())
def test_box_query_holds_every_ball_pair(cloud, data):
    pts = cloud[0]
    n = len(pts)
    centers = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                          max_size=n)))
    ends = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                       min_size=len(centers),
                                       max_size=len(centers))))
    # radii equal to sample distances put samples on the sphere
    radii = core.dist(pts[centers], pts[ends])
    got = []
    for rows, cols in cubes._box_query(cKDTree(pts), pts[centers], radii,
                                       core.dist_error(pts)):
        # rows ascending, then cols ascending, no pair twice
        assert np.all(np.diff(rows * n + cols) > 0)
        got += zip(rows.tolist(), cols.tolist())
    assert len(got) == len(set(got))
    ball = ((core.dist(pts[centers][:, None], pts[None]) <= radii[:, None])
            | (core.dist(pts[None], pts[centers][:, None]) <= radii[:, None]))
    assert set(zip(*np.nonzero(ball))) <= set(got)


@settings(deadline=None, max_examples=80)
@given(offset_clouds(), st.integers(-7, 3), st.booleans())
def test_local_net_matches_full_rescan(cloud, k, subset):
    pts = cloud[0]
    cand = np.arange(0, len(pts), 2) if subset else None
    # an exact sample distance as the radius makes ties at the cut
    for radius in {2.0 ** k, float(core.dist(pts[0], pts[-1]))} - {0.0}:
        assert np.array_equal(cubes.farthest_point_net(pts, radius, cand),
                              full_rescan_net(pts, radius, cand))


def json_dump_tree(tree, path):
    """The tree file as json.dump writes it."""
    rows = zip(tree.level.tolist(), tree.center_index.tolist(),
               tree.parent.tolist(), tree.mass.tolist())
    nodes = [{"id": cid, "level": j, "center_index": c,
              "parent": p if p >= 0 else None, "mass": m,
              "samples": tree.samples(cid).tolist()}
             for cid, (j, c, p, m) in enumerate(rows)]
    with open(path, "w") as fh:
        json.dump({"j_min": tree.j_min, "j_max": tree.j_max, "nodes": nodes},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


@settings(deadline=None, max_examples=40)
@given(small_clouds(), st.lists(st.sampled_from(
    [0.1, 1e-300, 1e22, 1.0, 2.5, math.inf, math.nan]), min_size=60,
    max_size=60), st.integers(-3, 2))
def test_save_tree_matches_json_dump(tmp_path_factory, cloud, masses, j_min):
    pts = cloud[0]
    tree = cubes.build_cubes(pts, masses[:len(pts)], j_min=j_min, j_max=3)
    out = tmp_path_factory.mktemp("tree")
    cubes.save_tree(tree, out / "fast.json")
    json_dump_tree(tree, out / "oracle.json")
    assert (out / "fast.json").read_bytes() == (out / "oracle.json").read_bytes()


def test_top_level_falls_back_at_a_power_of_two(monkeypatch):
    calls = []
    diameter = cubes._diameter
    monkeypatch.setattr(cubes, "_diameter",
                        lambda p: calls.append(len(p)) or diameter(p))
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
    tol = core.dist_error(pts)
    assert cubes._top_level(pts, tol) == blocked_top_level(pts) == 2
    assert cubes._dominates(pts, tol, 0)
    assert calls == [3, 3]
    with pytest.raises(ValueError, match="must dominate"):
        cubes.build_cubes(pts, np.ones(3), j_max=-1)


@pytest.mark.parametrize("budget", [50, 7 * 101, graphs.PAIR_BUDGET])
def test_diameter_blocks_by_pair_budget(monkeypatch, budget):
    # blocks of 1, 7 and all 101 rows; 101 is no multiple of 7, and the
    # farthest pair sits in the last, partial block
    pts = np.random.default_rng(7).uniform(-1, 1, (101, 3))
    pts[-1] = [40.0, -3.0, 5.0]
    monkeypatch.setattr(graphs, "PAIR_BUDGET", budget)
    assert cubes._diameter(pts) == blocked_diameter(pts)


def test_inner_ball_without_outside_neighbours():
    # two far clusters of 20 samples: at the level that splits them no
    # center has an outside sample among its 8 Euclidean neighbours
    rng = np.random.default_rng(3)
    blob = rng.uniform(-0.05, 0.05, (20, 3))
    pts = np.vstack([blob, core.mul(np.array([8.0, 0.0, 0.0]), blob)])
    tree = cubes.build_cubes(pts, np.ones(40), j_min=1)
    assert len(tree.at_level(1)) == 2
    assert cubes.check_tree_invariants(tree) == blocked_invariants(tree)


def test_mass_conservation(plane_tree):
    tree, _, masses = plane_tree
    total = masses.sum()
    for j in range(tree.j_min, tree.j_max + 1):
        level = sum(tree.mass[c] for c in tree.at_level(j))
        assert abs(level - total) <= 1e-12 * total


def test_three_regular_mass_scaling(plane_tree):
    tree, _, _ = plane_tree
    # plane patches: cube masses scale like 2^(3j) within two-sided bounds
    ratios = []
    for j in range(tree.j_min + 1, tree.j_max):
        masses_j = [tree.mass[c] for c in tree.at_level(j)
                    if len(tree.samples(c)) > 5]
        if masses_j:
            ratios.append(np.median(masses_j) / 2.0 ** (3 * j))
    assert len(ratios) >= 2
    assert max(ratios) / min(ratios) < 64  # bounded two-sided constant


def test_sibling_pairs(plane_tree):
    tree, pts, _ = plane_tree
    rng = np.random.default_rng(5)
    n_checked = 0
    for _ in range(300):
        i1, i2 = rng.integers(0, len(pts), 2)
        if i1 == i2:
            continue
        d = float(core.dist(pts[i1], pts[i2]))
        if d < 2.0 ** (tree.j_min + 1) or d > 2.0 ** tree.j_max:
            continue
        j, c1, c2 = cubes.sibling_pair(tree, i1, i2)
        assert c1 != c2
        assert 2.0 ** j <= d < 2.0 ** (j + 1)
        # each cube sits inside the 4x ball of the other's center
        assert core.dist(tree.points[tree.samples(c2)],
                         tree.center(c1)).max() <= 4 * 2.0 ** j
        assert core.dist(tree.points[tree.samples(c1)],
                         tree.center(c2)).max() <= 4 * 2.0 ** j
        n_checked += 1
    assert n_checked > 50


def test_carleson_zero_for_plane(plane_tree):
    tree, _, _ = plane_tree
    cache = cubes.cube_beta_cache(tree)
    report = cubes.carleson_sum(tree, cache, [0.01, 0.1, 0.5])
    assert all(k == 0 for k in report.sup_k)


def test_carleson_monotone_in_epsilon():
    g = burgers.grid_from_function(lambda y, t: 0.5 * y + 0.2 * np.sin(3 * y),
                                   (-1, 1), (-1, 1), 21, 21)
    ps = graphs.point_set(g)
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-3, j_max=2)
    cache = cubes.cube_beta_cache(tree)
    report = cubes.carleson_sum(tree, cache, [0.01, 0.03, 0.1, 0.3])
    for ks in report.per_root.values():
        assert all(ks[i] >= ks[i + 1] - 1e-15 for i in range(len(ks) - 1))


def test_wgl_estimate_zero_for_plane(plane_tree):
    _, pts, masses = plane_tree
    for eps in (0.01, 0.1):
        est = cubes.wgl_integral_estimate(pts, masses, [eps], pts[0], 2.0,
                                          sample_stride=8)[0]
        assert est == 0.0


def test_wgl_estimate_scaling():
    g = burgers.grid_from_function(lambda y, t: np.abs(y), (-1, 1), (-1, 1),
                                   15, 15)
    ps = graphs.point_set(g)
    eps, R = 0.05, 1.5
    base = cubes.wgl_integral_estimate(ps.points, ps.masses, [eps],
                                       np.zeros(3), R, n_shells=3)[0]
    scaled = cubes.wgl_integral_estimate(core.dilate(2.0, ps.points),
                                         8.0 * ps.masses, [eps],
                                         np.zeros(3), 2 * R, n_shells=3)[0]
    assert base > 0
    assert abs(scaled - 8.0 * base) <= 0.1 * 8.0 * base


def test_wgl_multi_threshold_matches_single_calls():
    g = burgers.grid_from_function(lambda y, t: np.abs(y), (-1, 1), (-1, 1),
                                   15, 15)
    ps = graphs.point_set(g)
    args = (ps.points, ps.masses)
    both = cubes.wgl_integral_estimate(*args, [0.05, 0.2], np.zeros(3), 1.5,
                                       sample_stride=2)
    singles = [cubes.wgl_integral_estimate(*args, [e], np.zeros(3), 1.5,
                                           sample_stride=2)[0]
               for e in (0.05, 0.2)]
    assert both == singles
    assert both[0] > both[1] > 0


def test_wgl_consistent_with_carleson():
    g = burgers.grid_from_function(lambda y, t: np.abs(y), (-1, 1), (-1, 1),
                                   15, 15)
    ps = graphs.point_set(g)
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-3, j_max=2)
    cache = cubes.cube_beta_cache(tree)
    epsilons = [0.05, 0.2, 0.5, 0.9]
    report = cubes.carleson_sum(tree, cache, epsilons)
    root = max(tree.roots(), key=lambda c: tree.mass[c])
    ests = cubes.wgl_integral_estimate(ps.points, ps.masses, epsilons,
                                       tree.center(root), 4.0, n_shells=4)
    ks = report.per_root[root]
    # both vanish together; otherwise their ratio is the reported constant
    for est, k in zip(ests, ks):
        assert (est > 0) == (k > 0)
        if est > 0:
            assert est / (k * tree.mass[root]) < 50
    assert all(a >= b for a, b in zip(ests, ests[1:]))
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert ests[0] > 0 and ests[-1] == 0


def test_refine_predyadic_disjoint_unchanged():
    pts = RNG.uniform(-1, 1, (200, 3))
    masses = np.ones(200)
    balls = [beta.Ball(np.array([4.0 * k, 0.0, 0.0]), 1.0) for k in range(3)]
    entries = [(b, 2.0, []) for b in balls]
    kept, report = cubes.refine_predyadic(entries, pts, masses, delta=0.5)
    assert len(kept) == 3
    assert report["dyadic"]


def test_refine_predyadic_overlap_drops_one():
    pts = np.vstack([RNG.uniform(-1, 1, (300, 3)),
                     RNG.uniform(-1, 1, (300, 3)) + np.array([0.3, 0, 0])])
    masses = np.ones(600)
    b1 = beta.Ball(np.zeros(3), 1.0)
    b2 = beta.Ball(np.array([0.3, 0.0, 0.0]), 1.0)
    kept, report = cubes.refine_predyadic([(b1, 2.0, []), (b2, 2.0, [])],
                                          pts, masses, delta=0.5)
    assert len(kept) == 1
    assert report["kept_fraction"] > 0.3


def test_refine_predyadic_parity_bands():
    pts = RNG.uniform(-8, 8, (500, 3))
    masses = np.ones(500)
    entries = []
    for k, r in enumerate([0.25, 1.0, 4.0]):
        entries.append((beta.Ball(np.array([3.0 * k - 3, 0.0, 0.0]), r),
                        2.0, []))
    kept, report = cubes.refine_predyadic(entries, pts, masses, delta=0.5)
    base = report["band_base"]
    bands = sorted({int(np.floor(np.log(2 * e.ball.radius) / np.log(base)))
                    for e in kept})
    assert all(b % 2 == bands[0] % 2 for b in bands)
    assert report["dyadic"]


def test_corona_all_members_single_tree(plane_tree):
    tree, _, _ = plane_tree
    root = tree.roots()[0]
    coronas = cubes.corona_partition(tree, root, lambda cid: True)
    assert len(coronas) == 1
    assert coronas[0].root == root
    assert coronas[0].root_alias == root
    leaves = [cid for cid in tree.descendants(root)
              if not tree.children(cid)]
    assert sorted(coronas[0].stop) == sorted(leaves)
    cubes.check_corona_axioms(tree, coronas, lambda cid: True)


def test_corona_level_threshold(plane_tree):
    tree, _, _ = plane_tree
    root = tree.roots()[0]
    j_star = tree.j_min + 2
    member = lambda cid: tree.level[cid] >= j_star
    coronas = cubes.corona_partition(tree, root, member)
    assert len(coronas) == 1
    stops = {tree.level[cid] for cid in coronas[0].stop}
    assert stops == {j_star}
    cubes.check_corona_axioms(tree, coronas, member)


def test_corona_checkerboard(plane_tree):
    tree, _, _ = plane_tree
    root = tree.roots()[0]
    member = lambda cid: (tree.level[cid] % 2 == 0)
    coronas = cubes.corona_partition(tree, root, member)
    cubes.check_corona_axioms(tree, coronas, member)
    claimed = {cid for ct in coronas for cid in ct.members}
    wanted = {cid for cid in tree.descendants(root) if member(cid)}
    assert claimed == wanted
    # every root is maximal within the membership class
    for ct in coronas:
        parent = tree.parent[ct.root]
        while parent >= 0:
            assert not (member(parent) and parent not in claimed)
            parent = tree.parent[parent]
    # a cube serves as alias only for its children or siblings
    branching = max(len(tree.children(c)) for c in range(len(tree)))
    assert cubes.alias_multiplicity(coronas) <= 2 * branching - 1


def loop_corona_partition(tree, root_id, membership):
    """Oracle: rounds that rescan every cube for maximal unassigned
    members, walking each cube's ancestors on every scan."""
    scope = tree.descendants(root_id)
    member = {cid: bool(membership(cid)) if callable(membership)
              else bool(membership[cid]) for cid in scope}
    level, parent = tree.level.tolist(), tree.parent.tolist()
    assigned = set()
    trees = []
    by_depth = sorted(scope, key=lambda c: (-level[c], c))
    while True:
        maximal = []
        for cid in by_depth:
            if not member[cid] or cid in assigned:
                continue
            p = parent[cid]
            covered = False
            while p in member:
                if member[p] and p not in assigned:
                    covered = True
                    break
                p = parent[p]
            if not covered:
                maximal.append(cid)
        if not maximal:
            break
        for root in maximal:
            if root in assigned:
                continue
            members, stop = [], []
            queue = [root]
            while queue:
                cid = queue.pop(0)
                members.append(cid)
                assigned.add(cid)
                children = tree.children(cid)
                if children and all(member.get(ch, False) for ch in children):
                    queue.extend(children)
                else:
                    stop.append(cid)
            alias = root
            if root != root_id:
                up = parent[root]
                if not member.get(up, True):
                    alias = up
                else:
                    sibs = [s for s in tree.children(up)
                            if s != root and not member.get(s, True)]
                    alias = min(sibs) if sibs else up
            trees.append(cubes.CoronaTree(root, members, stop, alias))
    return trees


@st.composite
def corona_cases(draw):
    """A tree over 5 to 120 random samples, one of its roots and a
    membership drawn per cube, as a callable or as a dict."""
    n = draw(st.integers(5, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(-2, 2, (n, 3))
    tree = cubes.build_cubes(pts, np.ones(n))
    root = draw(st.sampled_from(tree.roots()))
    flags = rng.random(len(tree)) < draw(st.sampled_from([0.3, 0.7, 0.95]))
    if draw(st.booleans()):
        return tree, root, lambda cid: flags[cid]
    return tree, root, dict(enumerate(flags.tolist()))


@settings(deadline=None, max_examples=60)
@given(corona_cases())
def test_corona_matches_round_oracle(case):
    tree, root, membership = case
    got = cubes.corona_partition(tree, root, membership)
    want = loop_corona_partition(tree, root, membership)

    def trees(coronas):
        return {(ct.root, tuple(ct.members), tuple(ct.stop), ct.root_alias)
                for ct in coronas}

    assert len(got) == len(want)
    assert trees(got) == trees(want)
    keys = [(-tree.level[ct.root], ct.root) for ct in got]
    assert keys == sorted(keys)
    cubes.check_corona_axioms(tree, got, membership)


def test_carleson_with_integral():
    g = burgers.grid_from_function(lambda y, t: np.abs(y), (-1, 1), (-1, 1),
                                   15, 15)
    ps = graphs.point_set(g)
    tree = cubes.build_cubes(ps.points, ps.masses, j_min=-3, j_max=2)
    cache = cubes.cube_beta_cache(tree)
    report = cubes.carleson_with_integral(tree, cache, [0.05, 0.2])
    assert report.integral_estimate is not None
    assert report.integral_estimate >= 0


def test_tree_serialization(tmp_path, plane_tree):
    tree, _, _ = plane_tree
    path = tmp_path / "tree.json"
    cubes.save_tree(tree, path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["j_min"] == tree.j_min
    assert len(payload["nodes"]) == len(tree)
    cache = cubes.cube_beta_cache(tree)
    report = cubes.carleson_sum(tree, cache, [0.1])
    cpath = tmp_path / "carleson.csv"
    cubes.save_carleson(report, cpath)
    with open(cpath) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "root_id,epsilon,K"
    assert len(lines) == 1 + len(report.per_root)
