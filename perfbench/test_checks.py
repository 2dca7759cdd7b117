"""The benchmark's output checks accept real artifacts and reject corrupted ones.

Run with ``python3 -m pytest perfbench/test_checks.py`` from the
repository root.  Each test runs a small CLI command in-process, checks
its artifacts, then edits one artifact and expects ``CheckFailed``.
"""

import csv
import json
import os
import sys

import numpy as np
import pytest

import checks
import run

sys.path.insert(0, run.SRC)
from heisrect import cli  # noqa: E402


def _cli(tmp_path, argv, scenario_params, translate=True):
    spec = {"translate": translate, **scenario_params}
    n, sha = run.make_input(spec, 7, str(tmp_path / "input.csv"))
    _, sha_again = run.make_input(spec, 7, str(tmp_path / "again.csv"))
    assert sha == sha_again, "the same seed must give the same input"
    with open(tmp_path / "config.json", "w") as fh:
        json.dump({"path": str(tmp_path / "input.csv"), "stride": 4}, fh)
    out = tmp_path / "out"
    rc = cli.main(argv + ["--scenario", "custom_file", "--config",
                          str(tmp_path / "config.json"), "--out", str(out)])
    assert rc == 0
    points, masses = checks.load_cloud(tmp_path / "input.csv")
    assert len(points) == n
    return str(out), points, masses


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_partition_check(tmp_path):
    out, points, masses = _cli(
        tmp_path, ["partition", "--scales=-3:5"],
        {"scenario": "two_patch_union", "params": {"ny": 15, "nt": 5}},
        translate=False)
    info = checks.check_partition(out, points, masses)
    assert info["pieces"] > 0
    path = os.path.join(out, "pieces.csv")
    rows = _rows(path)
    # move a sample into a piece that holds its twin on the other patch
    chart = np.column_stack([points[:, 1],
                             points[:, 2] + 0.5 * points[:, 0] * points[:, 1]])
    tol = 1e-9 * float(np.ptp(chart, axis=0).max())
    index = {tuple(p): k for k, p in enumerate(points.tolist())}
    piece_of = {index[tuple(float(v) for v in r[2:5])]: r[0] for r in rows[1:]}
    moved = None
    for i, piece in piece_of.items():
        twins = np.nonzero(np.all(np.abs(chart - chart[i]) <= tol, axis=1))[0]
        for j in twins:
            if j != i and piece_of.get(int(j)) not in (None, piece):
                moved = (int(j), piece)
                break
        if moved:
            break
    assert moved is not None
    corrupt = [r[:] for r in rows]
    for r in corrupt[1:]:
        if index[tuple(float(v) for v in r[2:5])] == moved[0]:
            r[0] = moved[1]
    _write_rows(path, corrupt)
    with pytest.raises(checks.CheckFailed, match="share a projection"):
        checks.check_partition(out, points, masses)
    # a sample listed twice
    _write_rows(path, rows + [rows[1][:1] + rows[2][1:]])
    with pytest.raises(checks.CheckFailed, match="two pieces"):
        checks.check_partition(out, points, masses)


def test_cubes_check(tmp_path):
    out, points, masses = _cli(tmp_path, ["cubes"],
                               {"scenario": "perturbed", "params": {"n": 12}})
    checks.check_cubes(out, points, masses)
    path = os.path.join(out, "carleson.csv")
    rows = _rows(path)
    rows[1][2] = repr(float(rows[1][2]) + 0.25)
    _write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_cubes(out, points, masses)

    out, points, masses = _cli(tmp_path, ["cubes"],
                               {"scenario": "perturbed", "params": {"n": 12}})
    path = os.path.join(out, "cubes.json")
    with open(path) as fh:
        tree = json.load(fh)
    finest = [n for n in tree["nodes"] if n["level"] == tree["j_min"]]
    finest[0]["samples"].append(finest[1]["samples"][0])
    with open(path, "w") as fh:
        json.dump(tree, fh)
    with pytest.raises(checks.CheckFailed, match="two cubes"):
        checks.check_cubes(out, points, masses)


def test_wgl_check(tmp_path):
    eps = [0.4, 0.5]
    out, points, masses = _cli(
        tmp_path, ["wgl", "--epsilons=0.4,0.5"],
        {"scenario": "example_tys", "params": {"n": 15}})
    checks.check_wgl(out, points, masses, eps, 4)
    path = os.path.join(out, "wgl.csv")
    rows = _rows(path)
    est = float(rows[1][2])
    rows[1][2] = repr(est * 1.01 + 1e-6)
    rows[1][3] = repr(float(rows[1][2]) / float(rows[1][1]) ** 3)
    _write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_wgl(out, points, masses, eps, 4)


def test_min_width_matches_oracle():
    from heisrect.beta import brute_min_width

    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 10, 200):
        xy = rng.normal(size=(n, 2)) * [1.0, 0.2]
        extent = np.hypot(*np.ptp(xy, axis=0))
        grid_error = extent * np.sin(np.pi / (2 * checks.ORACLE_DIRS))
        oracle = brute_min_width(xy, checks.ORACLE_DIRS)[0]
        assert oracle - grid_error - 1e-12 <= checks.min_width(xy) <= oracle + 1e-12
    line = np.column_stack([np.linspace(0, 1, 9), np.linspace(0, 2, 9)])
    assert checks.min_width(line) <= 1e-12


def test_tracer_reports_absent_functions(monkeypatch):
    import heisrect
    import tracer

    monkeypatch.delattr(heisrect.cubes, "median_nn_distance")
    tr = tracer.Tracer("test")
    tr.install()
    try:
        assert tr.absent == ["cubes.median_nn_distance"]
        assert heisrect.cubes.build_cubes.__wrapped__ is not None
    finally:
        for mod, fn in tracer.SPANNED + [tracer.COUNTED]:
            wrapped = getattr(getattr(heisrect, mod), fn, None)
            if hasattr(wrapped, "__wrapped__"):
                setattr(getattr(heisrect, mod), fn, wrapped.__wrapped__)


def test_summarize_self_times():
    import tracer

    names = ["a.outer", "b.inner"]
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; 7 dist calls
    trace = {"names": names, "counters": {}, "distinct_balls": 0,
             "dist": {"calls": 7, "s": 0.5},
             "spans": [[0, 0.0, 10.0, -1, 2], [1, 1.0, 4.0, 0, 4],
                       [1, 5.0, 6.0, 0, 1]]}
    out = tracer.summarize(trace)
    assert out["a.outer.s"] == 10.0 and out["a.outer.self_s"] == 6.0
    assert out["b.inner.calls"] == 2 and out["b.inner.s"] == 4.0
    assert out["a.outer.dist_calls"] == 7 and out["b.inner.dist_calls"] == 5
    assert out["core.dist.calls"] == 7


def test_reference_loop_rate(tmp_path):
    import time

    import reference

    loop = reference.ReferenceLoop(str(tmp_path / "counters.bin"))
    try:
        before = loop.read()
        time.sleep(0.3)
        after = loop.read()
    finally:
        loop.close()
    assert after[0] > before[0] and after[1] > before[1]
    assert reference.rate(before, after) > 0
    assert loop.proc.returncode is not None
    with pytest.raises(RuntimeError):
        reference.rate(after, after)
