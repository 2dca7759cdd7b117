"""Experiment drivers: deterministic scenario generation, sweeps, reports.

Every subcommand writes CSV/JSON artifacts into --out and is exactly
reproducible from (subcommand, config, seed).  Exit codes: 0 ok,
2 config error, 3 numerical failure (e.g. crossing characteristics),
4 invariant-suite failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import beta as beta_mod
from . import burgers, core, cubes, graphs, partition, planes


class ConfigError(Exception):
    pass


def build_scenario(name, seed=0, params=None):
    """Deterministic sample data for a named scenario.

    Returns (GridGraph or None, GraphPointSet).
    """
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    n = int(params.get("n", 41))
    if name == "affine":
        c = float(params.get("c", 0.5))
        d = float(params.get("d", 0.0))
        g = burgers.grid_from_function(lambda y, t: c * y + d,
                                       (-1, 1), (-1, 1), n, n)
    elif name == "burgers_cg":
        spec = burgers.linear_spec(float(params.get("c", 0.0)),
                                   float(params.get("slope", 1.0)),
                                   (-0.5, 0.5), (-0.3, 0.3))
        g = burgers.solve_cg(spec, n, n)
    elif name == "example_tys":
        g = burgers.grid_from_function(burgers.zero_gradient_kinked,
                                       (-0.45, 0.45), (-0.4, 0.4), n, n)
    elif name == "perturbed":
        amp = float(params.get("amplitude", 0.05))
        freq = float(params.get("frequency", 4.0))
        g = burgers.grid_from_function(
            lambda y, t: 0.5 * y + amp * np.sin(freq * y),
            (-1, 1), (-1, 1), n, n)
    elif name == "two_patch_union":
        # a wide, metrically thin window keeps the crossing visible only
        # in a scale-proportional strip around the shared axis
        slope = float(params.get("slope", 1.0))
        ny = int(params.get("ny", 121))
        nt = int(params.get("nt", 9))
        y_ext = float(params.get("y_extent", 3.0))
        t_ext = float(params.get("t_extent", 0.2))
        patches = [burgers.grid_from_function(lambda y, t, s=s: s * y,
                                              (-y_ext, y_ext),
                                              (-t_ext, t_ext), ny, nt)
                   for s in (slope, -slope)]
        pts = np.vstack([graphs.all_graph_points(g).reshape(-1, 3)
                         for g in patches])
        masses = np.concatenate([g.mass.ravel() for g in patches])
        pts, keep = np.unique(np.round(pts, 12), axis=0, return_index=True)
        return None, graphs.GraphPointSet(pts, masses[keep],
                                          "two crossing graph patches")
    elif name == "custom_file":
        path = params.get("path")
        if not path:
            raise ConfigError("custom_file scenario needs params.path")
        if os.path.exists(str(path) + ".json"):
            g = graphs.load_grid_graph(path)
        else:
            return None, graphs.load_point_set(path)
    else:
        raise ConfigError(f"unknown scenario {name!r}")
    if params.get("jitter"):
        g = graphs.GridGraph(g.y0, g.t0, g.dy, g.dt,
                             g.phi + float(params["jitter"])
                             * rng.standard_normal(g.phi.shape))
    return g, graphs.point_set(g, provenance=name)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail(code, kind, detail):
    json.dump({"error": {"kind": kind, "detail": detail}}, sys.stderr)
    sys.stderr.write("\n")
    return code


def cmd_generate(args, params):
    g, ps = build_scenario(args.scenario, args.seed, params)
    os.makedirs(args.out, exist_ok=True)
    if g is not None:
        graphs.save_grid_graph(g, os.path.join(args.out, "graph"))
    graphs.save_point_set(ps, os.path.join(args.out, "points.csv"))
    print(f"generate: {len(ps.points)} samples -> {args.out}")
    return 0


def cmd_beta(args, params):
    _, ps = build_scenario(args.scenario, args.seed, params)
    os.makedirs(args.out, exist_ok=True)
    centers = int(params.get("centers", 25))
    if centers < 1:
        raise ConfigError("centers must be at least 1")
    stride = max(1, len(ps.points) // centers)
    lo, hi = args.scales
    if lo is None:
        lo, hi = -2, 0
    radii = [2.0 ** j for j in range(lo, hi + 1)]
    balls = [beta_mod.Ball(center, r)
             for center in ps.points[::stride] for r in radii]
    records = [rec for rec in beta_mod.beta_vertical_batch(ps.points, balls)
               if rec is not None]
    path = os.path.join(args.out, "beta_records.csv")
    beta_mod.save_beta_records(records, path)
    print(f"beta: {len(records)} records -> {path}")
    return 0


def cmd_cubes(args, params):
    _, ps = build_scenario(args.scenario, args.seed, params)
    os.makedirs(args.out, exist_ok=True)
    tree = cubes.build_cubes(ps.points, ps.masses,
                             j_min=args.scales[0], j_max=args.scales[1])
    inner_c = cubes.check_tree_invariants(tree)
    cache = cubes.cube_beta_cache(tree)
    report = cubes.carleson_sum(tree, cache, args.epsilons)
    cubes.save_tree(tree, os.path.join(args.out, "cubes.json"))
    cubes.save_carleson(report, os.path.join(args.out, "carleson.csv"))
    _write_json(os.path.join(args.out, "cubes_summary.json"),
                {"inner_ball_constant": inner_c,
                 "levels": [tree.j_min, tree.j_max],
                 "cube_count": len(tree),
                 "sup_K": dict(zip(map(str, report.epsilons), report.sup_k))})
    print(f"cubes: {len(tree)} cubes, sup K = {report.sup_k}")
    return 0


def cmd_wgl(args, params):
    _, ps = build_scenario(args.scenario, args.seed, params)
    os.makedirs(args.out, exist_ok=True)
    center = ps.points[int(np.argmin(core.dist(ps.points,
                                               np.median(ps.points, axis=0))))]
    radius = float(core.dist(ps.points, center).max())
    if not radius > 0:
        raise ValueError("wgl needs two distinct samples")
    ests = cubes.wgl_integral_estimate(
        ps.points, ps.masses, args.epsilons, center, radius,
        sample_stride=int(params.get("stride", 4)))
    rows = [[eps, radius, est, est / radius ** 3]
            for eps, est in zip(args.epsilons, ests)]
    path = os.path.join(args.out, "wgl.csv")
    graphs.write_csv(path, ["epsilon", "R", "estimate", "normalized"], rows)
    print(f"wgl: {len(rows)} estimates -> {path}")
    return 0


def cmd_burgers(args, params):
    os.makedirs(args.out, exist_ok=True)
    if "spec" in params:
        spec = burgers.load_spec(params["spec"])
        c, slope = spec.c, spec.g_lipschitz()
    else:
        c = float(params.get("c", 0.0))
        slope = float(params.get("slope", 1.0))
        ranges = (params.get("y_range", (-0.5, 0.5)),
                  params.get("t_range", (-0.3, 0.3)))
        if any(np.shape(r) != (2,) or np.asarray(r).dtype.kind not in "if"
               for r in ranges):
            raise ConfigError("y_range and t_range must be pairs of numbers")
        spec = burgers.linear_spec(c, slope, *map(tuple, ranges))
    n = int(params.get("n", 81))
    g = burgers.solve_cg(spec, n, n)
    residual = burgers.verify_along_characteristics(g, spec)
    graphs.save_grid_graph(g, os.path.join(args.out, "cg_graph"))
    burgers.save_spec(spec, os.path.join(args.out, "cg_spec.json"))
    grad = graphs.intrinsic_gradient(g)
    payload = {"c": c, "slope": slope, "residual": residual,
               "grid": [n, n],
               "gradient_range": [float(grad.min()), float(grad.max())]}
    try:
        cfit, dfit, resid = burgers.entire_cg_plane_fit(g, spread_tol=0.05)
        payload["plane_fit"] = {"c": cfit, "d": dfit, "residual": resid}
    except burgers.NotConstantGradient:
        payload["plane_fit"] = None
    _write_json(os.path.join(args.out, "burgers_report.json"), payload)
    print(f"burgers: residual {residual:.2e}")
    return 0


def cmd_partition(args, params):
    _, ps = build_scenario(args.scenario, args.seed, params)
    os.makedirs(args.out, exist_ok=True)
    tree = cubes.build_cubes(ps.points, ps.masses,
                             j_min=args.scales[0], j_max=args.scales[1])
    cache = cubes.cube_beta_cache(tree)
    root = max(tree.roots(), key=lambda cid: tree.mass[cid])
    result = partition.graph_piece_partition(
        tree, root, cache,
        b=float(params.get("b", 0.4)), eps=float(params.get("eps", 0.05)))
    graphs.write_csv(
        os.path.join(args.out, "pieces.csv"),
        ["piece", "sigma", "x", "y", "t", "mass"],
        ([k, rep.code or "-", *ps.points[idx], ps.masses[idx]]
         for k, rep in enumerate(result.piece_reports) for idx in rep.indices))
    covered_mass = float(sum(ps.masses[rep.indices].sum()
                             for rep in result.piece_reports))
    _write_json(os.path.join(args.out, "partition_summary.json"), {
        "pieces": len(result.piece_reports),
        "apertures": [rep.aperture if np.isfinite(rep.aperture) else "inf"
                      for rep in result.piece_reports],
        "graph_ok": [rep.graph_ok for rep in result.piece_reports],
        "uncovered_area": result.uncovered_area,
        "covered_mass_fraction": covered_mass / result.root_mass,
        "root_mass": result.root_mass,
        "root_area": result.root_area,
        "cover_cutoff": result.cover_cutoff,
        "bits_per_generation": result.coding.bits_per_generation,
        "max_changes": result.coding.max_changes,
    })
    ok = all(rep.graph_ok for rep in result.piece_reports)
    print(f"partition: {len(result.piece_reports)} pieces, graph_ok={ok}")
    return 0 if ok else 4


def cmd_verify(args, params):
    rng = np.random.default_rng(args.seed)
    checks = {}

    p, q, r = (rng.uniform(-10, 10, (20000, 3)) for _ in range(3))
    lhs = core.mul(core.mul(p, q), r)
    rhs = core.mul(p, core.mul(q, r))
    checks["associativity"] = bool(
        np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(p).max()))
    d0 = core.dist(q, r)
    checks["left_invariance"] = bool(np.max(np.abs(
        core.dist(core.mul(p, q), core.mul(p, r)) - d0)
        / np.maximum(d0, 1e-30)) <= 1e-9)
    pw, pv = planes.split(p, planes.subgroup_y_t())
    checks["recomposition"] = bool(np.abs(core.mul(pw, pv) - p).max() <= 1e-10)
    tri = core.dist(p, q) + core.dist(q, r) - core.dist(p, r)
    checks["triangle"] = bool(tri.min() >= -1e-12 * (1 + np.abs(p).max()))

    worst = 0.0
    for k in range(5):
        cloud = np.random.default_rng(500 + k).uniform(-2, 2, (40, 3))
        ball = beta_mod.Ball(cloud[0], 4.0)
        cal = beta_mod.beta_vertical(cloud, ball).beta
        inside = cloud[core.dist(cloud, ball.center) <= ball.radius]
        bru = 0.5 * beta_mod.brute_min_width(inside[:, :2])[0] / ball.radius
        worst = max(worst, abs(cal - bru))
    checks["beta_oracle"] = bool(worst <= 1e-3)

    plane_err = 0.0
    for k in range(5):
        prng = np.random.default_rng(600 + k)
        pt = prng.uniform(-2, 2, 3)
        plane = planes.VerticalPlane(
            planes.VerticalSubgroup(prng.uniform(0, np.pi)),
            prng.uniform(-1, 1))
        closed = float(planes.dist_to_plane(pt, plane))
        sub = plane.subgroup
        base = plane.offset * sub.normal
        v_hat = (pt[:2] - base) @ sub.direction
        foot = np.array([base[0] + v_hat * sub.direction[0],
                         base[1] + v_hat * sub.direction[1], 0.0])
        t_hat = core.mul(core.inv(foot), pt)[2]
        vs = np.arange(v_hat - 2.0, v_hat + 2.0, 0.05)
        ts = np.arange(t_hat - 0.4, t_hat + 0.4, 0.001)
        V, T = np.meshgrid(vs, ts, indexing="ij")
        grid = np.stack([base[0] + V * sub.direction[0],
                         base[1] + V * sub.direction[1], T], axis=-1)
        plane_err = max(plane_err,
                        abs(float(core.dist(grid.reshape(-1, 3), pt).min())
                            - closed))
    checks["plane_distance_oracle"] = bool(plane_err <= 0.1)

    g, ps = build_scenario(args.scenario, args.seed, params)
    if g is not None:
        grad = graphs.intrinsic_gradient(g)
        lhat = graphs.lipschitz_constant(ps.points[::7])
        checks["gradient_bound"] = bool(
            np.abs(grad).max() <= lhat + 5 * np.sqrt(g.dy) + 10 * g.dy)
    tree = cubes.build_cubes(ps.points[::3], ps.masses[::3],
                             j_min=args.scales[0], j_max=args.scales[1])
    try:
        cubes.check_tree_invariants(tree)
        checks["cube_invariants"] = True
    except AssertionError:
        checks["cube_invariants"] = False
    level_mass = [sum(tree.mass[tree.level == j].tolist())
                  for j in range(tree.j_min, tree.j_max + 1)]
    total = ps.masses[::3].sum()
    checks["mass_conservation"] = bool(
        max(abs(m - total) for m in level_mass) <= 1e-12 * total)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "verify_report.json"), checks)
    for name, ok in sorted(checks.items()):
        print(f"verify {name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 4


COMMANDS = {"generate": cmd_generate, "beta": cmd_beta, "cubes": cmd_cubes,
            "wgl": cmd_wgl, "burgers": cmd_burgers,
            "partition": cmd_partition, "verify": cmd_verify}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="heisrect",
        description="Heisenberg-group quantitative rectifiability experiments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="JSON parameter file")
    parser.add_argument("--out", default="out")
    parser.add_argument("--scenario", default="affine")
    parser.add_argument("--epsilons", default="0.02,0.05,0.1,0.2",
                        help="comma-separated thresholds")
    parser.add_argument("--scales", default="auto",
                        help="jmin:jmax, or auto to fit the data")
    args = parser.parse_args(argv)
    try:
        args.epsilons = [float(v) for v in args.epsilons.split(",") if v]
        if args.scales == "auto":
            args.scales = (None, None)
        else:
            lo, hi = args.scales.split(":")
            args.scales = (int(lo), int(hi))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
        params = {}
        if args.config:
            with open(args.config) as fh:
                try:
                    params = json.load(fh)
                except ValueError as err:  # JSONDecodeError, bad encoding
                    raise ConfigError(f"malformed config: {err}") from err
        if not isinstance(params, dict):
            raise ConfigError("config must be a JSON object")
        return COMMANDS[args.command](args, params)
    except ConfigError as err:
        return _fail(2, "config", str(err))
    except burgers.CrossingDetected as err:
        return _fail(3, "crossing", str(err))
    except (ValueError, burgers.NotConstantGradient) as err:
        return _fail(3, "numerical", str(err))
    except OSError as err:
        return _fail(2, "io", str(err))


if __name__ == "__main__":
    sys.exit(main())
