"""Splitting a cloud into intrinsic graph pieces.

Given a cube hierarchy with cached flatness numbers, the pipeline
removes the cubes with thin vertical projections and the samples buried
under too many high-flatness balls, then codes the remaining samples
with finite 0/1 strings so that nearby samples straddling a
high-flatness cube always land in different pieces.  Each piece then
satisfies the cone condition with a measured positive aperture, i.e. is
a graph over the (y, t)-plane W = {x = 0}.  Areas are rasters of the
chart planes.project_chart(points, planes.subgroup_y_t()), and every
cube ball B_Q comes from CubeTree.balls.
"""

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import beta as beta_mod
from . import graphs, planes
from .cubes import CubeTree


def median_projected_spacing(chart):
    """Median nearest-neighbour gap of the distinct chart projections.

    Coincident projections (distinct samples in one fiber, plus float
    dust) are skipped so the raster cell reflects actual structure.  A
    sample sees its 16 nearest neighbours first; one that finds no
    distinct projection among them asks again with twice as many, up to
    every sample.  Raises ValueError when every sample shares one
    projection.
    """
    chart = np.asarray(chart, float).reshape(-1, 2)
    n = len(chart)
    gap = np.full(n, np.nan)
    if n > 1:
        scale = max(np.ptp(chart, axis=0).max(), 1e-30)
        kd = cKDTree(chart)
        rows, k = np.arange(n), 16
        while len(rows):
            d, _ = kd.query(chart[rows], k=min(n, k))
            beyond = d > 1e-9 * scale
            hit = beyond.any(axis=1)
            gap[rows[hit]] = d[hit, beyond[hit].argmax(axis=1)]
            rows = rows[~hit]
            if k >= n:
                break
            k *= 2
    if np.isnan(gap).all():
        raise ValueError("no sample has a distinct chart projection")
    return float(np.median(gap[~np.isnan(gap)]))


def projection_area(chart_rows, cell):
    """Raster area of chart points: covered cells of side `cell` times
    the cell area."""
    if len(chart_rows) == 0:
        raise ValueError("empty region")
    cells = np.floor(np.asarray(chart_rows, float) / cell).tolist()
    return len(set(map(tuple, cells))) * cell * cell


def classify_cubes(tree: CubeTree, root_id, chart, b, cell):
    """Maximal cubes below a root whose projected area falls below
    (b/2) times their mass, sorted by id."""
    area_violators = []
    stack = [root_id]
    while stack:
        cid = stack.pop()
        if projection_area(chart[tree.samples(cid)], cell) \
                < 0.5 * b * tree.mass[cid]:
            area_violators.append(cid)
        else:
            stack.extend(tree.children(cid))
    return sorted(area_violators)


def flatness_violators(tree: CubeTree, root_id, beta_of, eps):
    """Cubes below a root whose cached flatness (BetaRecord) exceeds eps."""
    return [cid for cid in tree.descendants(root_id) if beta_of[cid].beta > eps]


# Ball-sample pairs per membership chunk of cover_counts and the coding
# pass.  On the crossing-patches benchmark cloud (seed 1, in-process,
# 2-core Xeon, three alternating rounds of medians of 21 calls) the
# coding pass peaked at 0.93 MB of tracemalloc at 2^14 against 2.03 MB
# at 2^16, while its times (14.8-17.4 against 13.7-19.1 ms) and those of
# cover_counts (5.4-6.2 against 4.2-5.8 ms) did not tell the sizes
# apart.  beta.CHUNK_PAIRS stays 2^16: the flatness batch shares one
# hull pass among the balls of a chunk that hold the same samples.
MASK_PAIRS = 2 ** 14


def cover_counts(tree: CubeTree, flat_violators):
    """Per sample, how many violator balls B_Q contain it.

    The balls go through the membership kernel of the flatness batch in
    chunks of at most MASK_PAIRS ball-sample pairs.
    """
    centers, radii = tree.balls(flat_violators)
    xyt = np.ascontiguousarray(tree.points.T)
    counts = np.zeros(len(tree.points), dtype=int)
    for _, inside in beta_mod.membership_chunks(xyt, centers, radii,
                                                MASK_PAIRS):
        counts += inside.sum(axis=0)
    return counts


def choose_cover_cutoff(tree: CubeTree, root_id, counts, root_area, b):
    """Smallest cutoff N whose removals project to area below (b/2) mass.

    Removing the samples under >= N violator balls (counts from
    cover_counts) must cost at most b/(2C) of the root mass, C the
    root's projected area per mass; the minimal such N is read off the
    cover-count histogram.
    """
    root_mass = float(tree.mass[root_id])
    if root_mass <= 0:
        raise ValueError("the root cube has no mass, so its area "
                         "per mass is undefined")
    target = b / (2.0 * max(root_area / root_mass, 1e-12)) * root_mass
    idx = tree.samples(root_id)
    c_root = counts[idx]
    m_root = tree.masses[idx]
    for n in range(1, int(c_root.max()) + 2):
        if m_root[c_root >= n].sum() <= target:
            return n
    return int(c_root.max()) + 1


@dataclass
class CodingResult:
    sigma: dict             # sample index -> code string (kept samples)
    pieces: dict            # code string -> sorted sample indices
    cube_sigma: dict        # cube id -> final code string
    bits_per_generation: int
    max_changes: int
    kept: np.ndarray


def _prefix_ranges(codes):
    """Prefix relations of 0/1 strings as ranges of sorted ranks.

    Returns rank, the rank of each string among the sorted distinct
    strings, and end, per rank the end of the run of ranks that start
    with that string: the strings with prefix c are exactly c and the
    ones between c + "0" and c + "2", so they sort next to each other.
    Strings of ranks a <= b are one a prefix of the other exactly when
    b < end[a].
    """
    distinct = sorted(set(codes))
    rank = {code: k for k, code in enumerate(distinct)}
    end = np.array([bisect.bisect_left(distinct, code + "2")
                    for code in distinct])
    return np.array([rank[code] for code in codes]), end


def coding_partition(tree: CubeTree, root_id, flat_violators,
                     removed) -> CodingResult:
    """Generation-by-generation 0/1 coding of the cubes below a root.

    Every cube starts from its parent's string.  At each generation,
    every flatness violator Q is paired with each same-generation cube
    inside its ball B_Q (processing order: level descending, violator
    id ascending, partner id ascending):

    * equal lengths and equal strings: Q gains "0", the partner "1";
    * unequal lengths with the shorter a prefix of the longer: the
      shorter gains the bit that breaks the prefix relation.

    Pairs whose strings are already mutually non-prefix are left alone:
    a mismatch below both lengths survives every later extension, so
    the separation property is unaffected while the piece count stays
    proportional to the violator geometry.  Kept samples inherit the
    string of their finest cube; pieces are the level sets of the
    string map.

    Per generation the root's samples are sorted by cube once, and the
    violator balls go through the membership kernel of the flatness
    batch in chunks of at most MASK_PAIRS ball-sample pairs; a cube is
    inside B_Q when the logical and over its samples holds.
    Strings only grow within a generation, so a pair whose strings are
    mutually non-prefix at its start stays so and never changes a
    string: one vectorized compare of sorted ranks (_prefix_ranges)
    drops those pairs before the string logic visits the rest in order.
    """
    violators = np.asarray(flat_violators, dtype=int)
    parent = tree.parent.tolist()
    flip = {"0": "1", "1": "0"}
    sigma = {root_id: ""}
    changes = {root_id: 0}
    max_bits = 0
    scope = tree.samples(root_id)
    for level in range(int(tree.level[root_id]) - 1, tree.j_min - 1, -1):
        labels = tree.label[level][scope]
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], labels[1:] != labels[:-1])))
        gen_ids = labels[starts]
        gen = gen_ids.tolist()
        for cid in gen:
            sigma[cid] = sigma[parent[cid]]
        qs = np.flatnonzero(np.isin(gen_ids, violators))
        rank, end = _prefix_ranges([sigma[cid] for cid in gen])
        xyt = np.ascontiguousarray(tree.points[scope[order]].T)
        centers, radii = tree.balls(gen_ids[qs])
        for first, inside in beta_mod.membership_chunks(xyt, centers, radii,
                                                        MASK_PAIRS):
            partner = np.logical_and.reduceat(inside, starts, axis=1)
            block = qs[first:first + len(inside)]
            partner[np.arange(len(block)), block] = False
            v, p = np.nonzero(partner)
            rv, rp = rank[block[v]], rank[p]
            related = np.maximum(rv, rp) < end[np.minimum(rv, rp)]
            for q, q1 in zip(gen_ids[block[v[related]]].tolist(),
                             gen_ids[p[related]].tolist()):
                s_q, s_q1 = sigma[q], sigma[q1]
                if s_q == s_q1:
                    sigma[q], sigma[q1] = s_q + "0", s_q1 + "1"
                elif s_q.startswith(s_q1):
                    sigma[q1] = s_q1 + flip[s_q[len(s_q1)]]
                elif s_q1.startswith(s_q):
                    sigma[q] = s_q + flip[s_q1[len(s_q)]]
        for cid in gen:
            up = parent[cid]
            changes[cid] = changes[up] + (sigma[cid] != sigma[up])
            max_bits = max(max_bits, len(sigma[cid]) - len(sigma[up]))
    kept = scope[~np.isin(scope, removed)]
    finest = tree.label[tree.j_min][kept].tolist()
    sample_sigma = {s: sigma[cid] for s, cid in zip(kept.tolist(), finest)}
    pieces = {}
    for s, code in sample_sigma.items():
        pieces.setdefault(code, []).append(s)
    pieces = {code: np.array(idx, dtype=int) for code, idx in pieces.items()}
    max_changes = max((changes[cid] for cid in finest), default=0)
    return CodingResult(sample_sigma, pieces, sigma, max_bits, max_changes,
                        kept)


@dataclass
class PieceReport:
    code: str
    indices: np.ndarray
    aperture: float
    graph_ok: bool


def verify_pieces(points, pieces):
    """Cone aperture and projection-injectivity check per piece.

    aperture is the exact infimum over every ordered pair of the piece
    of the cone quotient (see graphs.cone_aperture); a positive value
    certifies that every translated cone of that aperture meets the
    piece only at its vertex.  graph_ok fails exactly when two samples
    share a vertical projection up to the piece's rounding bound
    core.dist_error.
    """
    points = np.asarray(points, float).reshape(-1, 3)
    out = []
    for code in sorted(pieces):
        idx = pieces[code]
        alpha = graphs.cone_aperture(points[idx])
        out.append(PieceReport(code, idx, alpha, bool(alpha > 0)))
    return out


@dataclass
class PipelineResult:
    flat_violators: list    # every cube above the flatness threshold
    coding: CodingResult
    piece_reports: list
    uncovered_area: float
    root_mass: float
    root_area: float
    cover_cutoff: int
    cell: float             # raster cell of every projected area


def graph_piece_partition(tree: CubeTree, root_id, beta_of, b,
                          eps) -> PipelineResult:
    """End-to-end pipeline from a cube tree to verified graph pieces.

    Removes the samples under area violators (classify_cubes) and those
    met by at least cover_cutoff violator balls, the cutoff chosen from
    the root's area-to-mass constant so the cover removals project to
    area at most b times the root mass.  The raster cell is twice the
    median projected spacing of the whole cloud.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if b <= 0:
        raise ValueError("b must be positive")
    chart = planes.project_chart(tree.points, planes.subgroup_y_t())
    root_samples = tree.samples(root_id)
    root_mass = float(tree.mass[root_id])
    cell = 2.0 * median_projected_spacing(chart)
    root_area = projection_area(chart[root_samples], cell)
    flat = sorted(flatness_violators(tree, root_id, beta_of, eps))
    counts = cover_counts(tree, flat)
    cover_cutoff = choose_cover_cutoff(tree, root_id, counts, root_area, b)
    area_violators = classify_cubes(tree, root_id, chart, b, cell)
    removed = np.union1d(
        np.concatenate([tree.samples(cid) for cid in area_violators]
                       or [np.array([], dtype=int)]),
        np.nonzero(counts >= cover_cutoff)[0])
    coding = coding_partition(tree, root_id, flat, removed)
    reports = verify_pieces(tree.points, coding.pieces)
    covered = np.concatenate([r.indices for r in reports]
                             or [np.array([], dtype=int)])
    uncovered = np.setdiff1d(root_samples, covered)
    uncovered_area = 0.0
    if len(uncovered) > 0:
        uncovered_area = projection_area(chart[uncovered], cell)
    return PipelineResult(flat, coding, reports, uncovered_area, root_mass,
                          root_area, cover_cutoff, cell)
