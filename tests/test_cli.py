import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from heisrect import cli


def digest_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_generate_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["generate", "--scenario", "affine",
                       "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert digest_dir(out1) == digest_dir(out2)


def test_beta_subcommand(tmp_path):
    rc = cli.main(["beta", "--scenario", "affine", "--out", str(tmp_path),
                   "--scales=-2:0"])
    assert rc == 0
    with open(tmp_path / "beta_records.csv") as fh:
        header = fh.readline().strip()
    assert header == "cx,cy,ct,r,beta,theta,offset"


def test_cubes_subcommand_affine_all_zero(tmp_path):
    rc = cli.main(["cubes", "--scenario", "affine", "--out", str(tmp_path),
                   "--scales=-2:2", "--epsilons", "0.01,0.1"])
    assert rc == 0
    with open(tmp_path / "cubes_summary.json") as fh:
        summary = json.load(fh)
    assert all(v == 0 for v in summary["sup_K"].values())
    assert summary["inner_ball_constant"] > 0


def test_burgers_subcommand(tmp_path):
    rc = cli.main(["burgers", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "burgers_report.json") as fh:
        report = json.load(fh)
    assert report["residual"] <= 1e-8


def test_burgers_crossing_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"slope": -1.0, "y_range": [-0.5, 1.5]}))
    rc = cli.main(["burgers", "--config", str(cfg), "--out",
                   str(tmp_path / "out")])
    assert rc == 3


def test_partition_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ny": 61, "nt": 7}))
    rc = cli.main(["partition", "--scenario", "two_patch_union",
                   "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "partition_summary.json") as fh:
        summary = json.load(fh)
    assert summary["pieces"] >= 2
    assert all(summary["graph_ok"])


def test_verify_subcommand(tmp_path):
    rc = cli.main(["verify", "--scenario", "affine", "--out", str(tmp_path),
                   "--scales=-2:2"])
    assert rc == 0
    with open(tmp_path / "verify_report.json") as fh:
        checks = json.load(fh)
    assert all(checks.values())


def test_config_error_exit_code(tmp_path, capsys):
    rc = cli.main(["generate", "--scenario", "nonsense",
                   "--out", str(tmp_path)])
    assert rc == 2
    rc = cli.main(["generate", "--scales", "bad", "--out", str(tmp_path)])
    assert rc == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc = cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "config"


def test_burgers_spec_file_roundtrip(tmp_path):
    from heisrect import burgers
    spec = burgers.linear_spec(0.2, 0.5, (-0.4, 0.4), (-0.2, 0.2))
    burgers.save_spec(spec, tmp_path / "spec.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": str(tmp_path / "spec.json"), "n": 21}))
    rc = cli.main(["burgers", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    loaded = burgers.load_spec(tmp_path / "out" / "cg_spec.json")
    assert loaded.c == spec.c


def test_custom_file_scenario(tmp_path):
    rc = cli.main(["generate", "--scenario", "affine",
                   "--out", str(tmp_path)])
    assert rc == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"path": str(tmp_path / "graph")}))
    _, ps = cli.build_scenario("custom_file", 0,
                               {"path": str(tmp_path / "graph")})
    assert len(ps.points) > 0
    _, ps2 = cli.build_scenario("custom_file", 0,
                                {"path": str(tmp_path / "points.csv")})
    assert np.allclose(ps.points, ps2.points)


def run_custom_points(tmp_path, capsys, text):
    """Run `cubes` on a point CSV; returns (exit code, error JSON)."""
    path = tmp_path / "points.csv"
    path.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"path": str(path)}))
    capsys.readouterr()
    rc = cli.main(["cubes", "--scenario", "custom_file", "--config",
                   str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    return rc, json.loads(err.splitlines()[-1]) if err else None


def test_custom_file_rejects_non_finite_masses(tmp_path, capsys):
    rows = "".join(f"{0.1 * k},{0.2 * k},0.0,1.0\n" for k in range(8))
    for bad in ("nan", "inf", "-inf"):
        rc, err = run_custom_points(
            tmp_path, capsys, "x,y,t,mass\n" + rows + f"0.5,0.5,0.0,{bad}\n")
        assert rc == 3
        assert err["error"]["kind"] == "numerical"
        assert "finite" in err["error"]["detail"]


def test_custom_file_empty_and_truncated(tmp_path, capsys):
    for text, detail in (
            ("x,y,t,mass\n", "no samples"),
            ("", "no samples"),
            ("x,y,t,mass\n0,0,0,1\n1,1,0\n", "row 2 has 3 fields, expected 4")):
        rc, err = run_custom_points(tmp_path, capsys, text)
        assert rc == 3
        assert err["error"]["kind"] == "numerical"
        assert err["error"]["detail"].endswith(detail)


def run_custom_grid(tmp_path, capsys, edit):
    """Run `cubes` on an affine n=9 grid graph whose CSV lines pass edit."""
    rc = cli.main(["generate", "--scenario", "affine", "--config",
                   str(write_config(tmp_path, {"n": 9})),
                   "--out", str(tmp_path / "gen")])
    assert rc == 0
    lines = (tmp_path / "gen" / "graph.csv").read_text().splitlines(True)
    assert len(lines) == 1 + 81
    (tmp_path / "gen" / "graph.csv").write_text("".join(edit(lines)))
    cfg = write_config(tmp_path, {"path": str(tmp_path / "gen" / "graph")})
    capsys.readouterr()
    rc = cli.main(["cubes", "--scenario", "custom_file", "--config",
                   str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    return rc, json.loads(err.splitlines()[-1]) if err else None


def write_config(tmp_path, params):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(params))
    return path


def nan_phi(lines):
    y, t, _, m = lines[5].split(",")
    return lines[:5] + [f"{y},{t},nan,{m}"] + lines[6:]


@pytest.mark.parametrize("edit, detail", [
    (lambda lines: lines[:40], "39 rows, expected ny * nt = 81"),
    (lambda lines: lines + lines[1:3], "83 rows, expected ny * nt = 81"),
    (nan_phi, "row 5 has a non-finite phi or mass"),
    (lambda lines: lines[:1] + lines[:0:-1],
     "row 1 has (y, t) = (1.0, 1.0), expected grid node (0, 0) at "
     "(-1.0, -1.0)"),
    (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
     "row 2 has (y, t) = (-1.0, -0.5), expected grid node (0, 1) at "
     "(-1.0, -0.75)"),
], ids=["short", "long", "nan", "reversed", "swapped"])
def test_custom_grid_rejects_bad_rows(tmp_path, capsys, edit, detail):
    rc, err = run_custom_grid(tmp_path, capsys, edit)
    assert rc == 3
    assert err["error"]["kind"] == "numerical"
    assert err["error"]["detail"].endswith("graph.csv: " + detail)


def run_partition(tmp_path, capsys, scenario, params, command="partition"):
    """Run `partition` (or `command`); returns (exit code, error JSON)."""
    cfg = write_config(tmp_path, params)
    capsys.readouterr()
    rc = cli.main([command, "--scenario", scenario, "--config",
                   str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    return rc, json.loads(err.splitlines()[-1]) if err else None


def run_partition_on_points(tmp_path, capsys, rows, command="partition"):
    path = tmp_path / "points.csv"
    path.write_text("x,y,t,mass\n" + "".join(rows))
    return run_partition(tmp_path, capsys, "custom_file", {"path": str(path)},
                         command)


def test_partition_rejects_massless_cloud(tmp_path, capsys):
    rc, err = run_partition_on_points(tmp_path, capsys, (
        f"{0.1 * k},{0.05 * k * k},{0.01 * k},0.0\n" for k in range(12)))
    assert rc == 3
    assert err["error"]["kind"] == "numerical"
    assert "no mass" in err["error"]["detail"]


def test_cubes_rejects_massless_cloud(tmp_path, capsys):
    """A cloud of no mass has no packing sums, not sums of 0."""
    rc, err = run_partition_on_points(tmp_path, capsys, (
        f"{0.1 * k},{0.05 * k * k},{0.01 * k},0.0\n" for k in range(12)),
        "cubes")
    assert rc == 3
    assert err["error"]["kind"] == "numerical"
    assert "has no mass" in err["error"]["detail"]
    assert not (tmp_path / "out" / "carleson.csv").exists()


@pytest.mark.parametrize("rows", [
    ["0.1,0.2,0.3,1.0\n"],
    ["0.1,0.2,0.3,1.0\n"] * 2,
], ids=["one", "two_copies"])
def test_wgl_rejects_fewer_than_two_distinct_samples(tmp_path, capsys, rows):
    rc, err = run_partition_on_points(tmp_path, capsys, rows, "wgl")
    assert rc == 3
    assert err["error"] == {"kind": "numerical",
                            "detail": "wgl needs two distinct samples"}


def test_partition_rejects_single_projection_cloud(tmp_path, capsys):
    """Three copies of one point leave no spacing to size the raster cell."""
    rc, err = run_partition_on_points(tmp_path, capsys,
                                      ["0.1,0.2,0.3,1.0\n"] * 3)
    assert rc == 3
    assert err["error"]["kind"] == "numerical"
    assert "chart projection" in err["error"]["detail"]


@pytest.mark.parametrize("params, detail", [
    ({"b": 0}, "b must be positive"),
    ({"eps": 0}, "eps must be positive"),
], ids=["b", "eps"])
def test_partition_rejects_nonpositive_thresholds(tmp_path, capsys, params,
                                                  detail):
    rc, err = run_partition(tmp_path, capsys, "affine", params)
    assert rc == 3
    assert err["error"] == {"kind": "numerical", "detail": detail}


@pytest.mark.parametrize("command, scenario, params, code", [
    ("beta", "affine", {"centers": 0}, 2),
    ("beta", "affine", {"n": 0}, 3),
    ("wgl", "affine", {"n": 1}, 3),
    ("beta", "two_patch_union", {"ny": 1}, 3),
    ("beta", "two_patch_union", {"nt": 1}, 3),
    ("burgers", "affine", {"y_range": 5}, 2),
], ids=["centers", "n0", "n1", "ny", "nt", "y_range"])
def test_bad_config_values_exit_with_error_json(tmp_path, capsys, command,
                                                scenario, params, code):
    cfg = write_config(tmp_path, params)
    capsys.readouterr()
    rc = cli.main([command, "--scenario", scenario, "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    assert rc == code
    assert list(json.loads(err.splitlines()[-1])) == ["error"]


def test_cubes_rerun_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli.main(["cubes", "--scenario", "affine", "--out", str(out),
                       "--scales=-2:2"])
        assert rc == 0
        outs.append(digest_dir(out))
    assert outs[0] == outs[1]


def test_wgl_subcommand(tmp_path):
    rc = cli.main(["wgl", "--scenario", "affine", "--out", str(tmp_path),
                   "--epsilons", "0.05"])
    assert rc == 0
    with open(tmp_path / "wgl.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "epsilon,R,estimate,normalized"
    assert float(lines[1].split(",")[2]) == 0.0


GOLDEN = {
    ("cubes", "perturbed", '{"n": 15}', ()): {
        "cubes.json": "dfd7ffc2754e38c5eef4ac69a90802b2"
                      "dee134d4a859e13206350dde4ea76cd6",
        "carleson.csv": "b02238a5d104738f247b97bf2b269826"
                        "71d75c634bfde3f05016c78de54c2ae2",
    },
    ("partition", "two_patch_union", '{"ny": 41, "nt": 5}', ("--scales=-1:5",)): {
        "pieces.csv": "eb1d75731acd76c367abe777e6e15262"
                      "e81ce289361a5af97ca4c98bde94ed27",
        "partition_summary.json": "a9f80df82fd8d1501f74cf772f7a5ab7"
                                  "3cf8e25a0e823b6a029fac8183d4e68c",
    },
    ("wgl", "example_tys", '{"n": 21}', ("--epsilons", "0.4,0.5")): {
        "wgl.csv": "a205f98467e4538305c6ea00f38d6b7e"
                   "e872ab0e12478390f51cef4488343d93",
    },
    ("beta", "perturbed", '{}', ()): {
        "beta_records.csv": "c940362ca730bc48ed87f6d5ec37088f"
                            "aaa042918f07f94a879249f0ded99f84",
    },
    ("beta", "example_tys", '{"n": 21}', ()): {
        "beta_records.csv": "6bcdf98bdd57c50369408d38c6aaca5a"
                            "f458ddb633545a0d38629be216e3245b",
    },
    ("beta", "two_patch_union", '{"ny": 27}', ()): {
        "beta_records.csv": "7aac3fc0fab14a239b26122edbd137b4"
                            "e9705e61aefaaacae4fd6ecf7909b88e",
    },
    ("cubes", "perturbed", '{"n": 36}', ()): {
        "cubes.json": "e7d2bce980a2edaf47cb29afcf70d426"
                      "a20959916a6d25cbc60e0f7ac40aeebc",
        "carleson.csv": "25de9da631a8e40d99bd3297178d289f"
                        "3cdbe66f833e505db1e7cdd74cacad1b",
        "cubes_summary.json": "7d61d235dbc56d8303de5e27b12d5890"
                              "ba5f57f8a1d0b6802443049d3ec3ba7c",
    },
    # one piece with a finite aperture over all 1,296 samples
    ("partition", "perturbed", '{"n": 36}', ()): {
        "pieces.csv": "4e671c93f30c070c45ee1fcd9e2165de"
                      "4c3aa9f1c35f012a0930422c3040c46d",
        "partition_summary.json": "953d8d9f7c18a517ff01fd3b5b29b601"
                                  "747e69cb2cf0a6b8fcf70ff4b33ecac9",
    },
    # the partition_crossing benchmark configuration
    ("partition", "two_patch_union", '{"ny": 27}', ("--scales=-3:5",)): {
        "pieces.csv": "7e663b167c4dbb434bc78bcb01b98d4e"
                      "25d0c71979f8e72b3c2ce3f4fb77c7e7",
        "partition_summary.json": "e8f780236ab2a2826bc1611387b0dac0"
                                  "9c8ca53e7feb00bc6d3da0bc3edfc50e",
    },
}


def test_golden_artifact_digests(tmp_path):
    """Pinned artifact bytes: refactors must not change any output."""
    for (command, scenario, config, extra), want in GOLDEN.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(config)
        out = tmp_path / command
        rc = cli.main([command, "--scenario", scenario, "--config", str(cfg),
                       "--out", str(out), *extra])
        assert rc == 0
        got = digest_dir(out)
        assert {name: got[name] for name in want} == want


def test_cli_import_loads_no_scipy_optimize():
    """Start-up stays light: no CLI command needs scipy.optimize."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, heisrect.cli; "
            "print(sorted(m for m in sys.modules if 'scipy.optimize' in m))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
