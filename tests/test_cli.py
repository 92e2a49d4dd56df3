import csv
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from simplexfold import cli


def run(args):
    return cli.main(args)


class TestTables:
    def test_json_format(self, tmp_path):
        out = tmp_path / "t"
        assert run(["tables", "--out-dir", str(out), "--seed", "0"]) == 0
        files = sorted(p.name for p in out.glob("*.json"))
        assert "cheb_2.json" in files and "tri_f9.json" in files
        report = json.loads((out / "verification.json").read_text())
        assert report["failures"] == []
        assert (out / "manifest.json").exists()

    def test_csv_format_parseable(self, tmp_path):
        out = tmp_path / "t"
        assert run(["tables", "--out-dir", str(out), "--format", "csv",
                    "--seed", "0"]) == 0
        with open(out / "tri_f2.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["component"] for r in rows} == {"1", "2", "3"}

    def test_corrupted_catalog_nonzero_exit(self, tmp_path, monkeypatch):
        from simplexfold import folding
        good = folding.catalog_factors

        def corrupt(name):
            fac = good(name)
            if name == "tri:f2":
                return folding.FoldFactors(fac.l, fac.q,
                                           (fac.m[0] + 1,) + fac.m[1:])
            return fac

        monkeypatch.setattr(cli.folding, "catalog_factors", corrupt)
        assert run(["tables", "--out-dir", str(tmp_path / "t"),
                    "--seed", "0"]) == 1


class TestConeBuild:
    def test_small_cone(self, tmp_path):
        out = tmp_path / "cone.json"
        assert run(["cone-build", "--n", "1", "--k", "1", "--N", "0",
                    "--out", str(out), "--seed", "0"]) == 0
        data = json.loads(out.read_text())
        assert sorted(data["rays"]) == [["0/1", "1/1"], ["1/1", "-1/1"]]

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only dependency: a process where scipy cannot be
        # imported still maximises a cubic and scales a k = 3 cone
        out = tmp_path / "cone.json"
        script = textwrap.dedent(f"""
            import sys
            sys.modules["scipy"] = None
            from simplexfold import cli, simplex
            from simplexfold.polynomial import FLOAT, MultiPoly
            x, y = MultiPoly.variables(2, FLOAT)
            val, _ = simplex.max_on_simplex(27 * x * y * (1 - x - y))
            assert abs(val - 1) < 1e-9, val
            sys.exit(cli.main(["cone-build", "--n", "1", "--k", "3", "--N", "2",
                               "--out", {str(out)!r}, "--seed", "0"]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["scaled_rays"]


class TestSolveFold:
    def test_builtin_interval(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve-fold", "--builtin", "interval:2",
                    "--out", str(out), "--seed", "0"]) == 0
        data = json.loads(out.read_text())
        assert len(data["solutions"]) == 1
        assert data["solutions"][0]["params"]["m1"] == "4"

    def test_template_json(self, tmp_path):
        from simplexfold import folding
        tpl_path = tmp_path / "tpl.json"
        tpl_path.write_text(json.dumps(folding.interval_fold_template(1).to_json()))
        out = tmp_path / "sol.json"
        assert run(["solve-fold", "--template", str(tpl_path),
                    "--out", str(out), "--seed", "0"]) == 0
        data = json.loads(out.read_text())
        assert len(data["solutions"]) == 1

    def test_non_square_builtin_fails(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert run(["solve-fold", "--builtin", "ninefold2d",
                    "--out", str(out), "--seed", "0"]) != 0
        assert "55 equations in 63 unknowns" in capsys.readouterr().err
        assert not out.exists()


    # sha256 of the solve-fold JSON: the solver's floats are rounded to
    # rationals and re-verified exactly, so a change to the numerics must
    # leave these bytes alone
    @pytest.mark.parametrize("name, digest", [
        ("interval:1", "c102ab22a94279ff1f4441f91d0b6dbb3e7210539b81d38d3e9b70e646cb1419"),
        ("interval:2", "e44f3ea399f6a9ecd4fa821bbad378042479bf90f284bbf259f21ddab26186ce"),
        ("interval:3", "3f090c9bf711df5ab8e3062632b6641d32d1d1f41493c10baf427a21e893faa5"),
        ("interval:4", "4ce74455529320fdcc5168c720d92e98d7216df1d78c932a6d74d2c6b0b21253"),
        ("interval:5", "f731b46c033b85ed90d87e11b65ec4d7eb5e667367102a43044446a654059f15"),
        ("interval:6", "978d9e20d1059b31d7c55a3126b045516dc83898725e10927713b82e9533cb7b"),
        ("twofold2d", "e2265713ce7e614b83690876b0fd4fe987c1fe028f89e9a11face7cc58b8d84b"),
    ])
    def test_builtin_output_bytes_pinned(self, name, digest, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve-fold", "--builtin", name, "--out", str(out),
                    "--seed", "0"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestVerifyFold:
    def test_catalog_ok(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify-fold", "--catalog", "cheb:4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(v["ok"] for v in data.values())

    def test_map_file(self, tmp_path):
        from simplexfold import folding
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(folding.catalog("tri:f2").to_json()))
        assert run(["verify-fold", "--map", str(mp)]) == 0


class TestFig6:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "f6"
        assert run(["fig6", "--count", "2", "--seed", "5", "--N", "2",
                    "--window", "200", "--burn-in", "20",
                    "--out-dir", str(out)]) == 0
        with open(out / "fig6.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # prepended fold row + 2 deformations
        assert rows[0]["index"] == "0" and rows[0]["l2_distance"] == "0"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "period_boundary_convention" in manifest["metadata"]

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["fig6", "--count", "2", "--seed", "9", "--N", "2",
                 "--window", "100", "--burn-in", "10", "--out-dir", str(out)])
        assert (a / "fig6.csv").read_bytes() == (b / "fig6.csv").read_bytes()

    def test_cone_file_replays(self, tmp_path):
        # without --cone, with --cone building the file, and with --cone
        # loading it: the scaled generators, and so the rows, are the same
        cone_path = tmp_path / "cone.json"
        outs = []
        for tag, extra in [("none", []), ("build", ["--cone", str(cone_path)]),
                           ("load", ["--cone", str(cone_path)])]:
            outs.append(tmp_path / tag)
            assert run(["fig6", "--count", "4", "--seed", "1", "--N", "4",
                        "--window", "100", "--burn-in", "10",
                        "--out-dir", str(outs[-1]), *extra]) == 0
        a, b, c = ((out / "fig6.csv").read_bytes() for out in outs)
        assert a == b == c

    @pytest.mark.parametrize("built, message", [
        (["--N", "1"], "is (2,2,1), not (2,2,2)"),
        (["--N", "2", "--no-scale"], "has no scaled generators"),
    ])
    def test_unsuitable_cone_refused(self, built, message, tmp_path, capsys):
        cone_path = tmp_path / "cone" / "cone.json"
        assert run(["cone-build", "--n", "2", "--k", "2", *built,
                    "--out", str(cone_path), "--seed", "0"]) == 0
        capsys.readouterr()
        out = tmp_path / "f6"
        assert run(["fig6", "--count", "2", "--seed", "5", "--N", "2",
                    "--cone", str(cone_path), "--window", "100", "--burn-in", "10",
                    "--out-dir", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and message in stderr
        assert not out.exists()


class TestDeformSample:
    def test_sample_directory(self, tmp_path):
        from simplexfold import folding
        cone_path = tmp_path / "cone.json"
        run(["cone-build", "--n", "2", "--k", "2", "--N", "1",
             "--out", str(cone_path), "--seed", "0"])
        map_path = tmp_path / "f2.json"
        map_path.write_text(json.dumps(folding.catalog("tri:f2").to_json()))
        out = tmp_path / "defs"
        assert run(["deform-sample", "--map", str(map_path),
                    "--cone", str(cone_path), "--eps", "0.05",
                    "--count", "4", "--seed", "1", "--out", str(out)]) == 0
        from simplexfold import simplex
        from simplexfold.maps import SimplexMap
        f2 = folding.catalog("tri:f2")
        files = sorted(out.glob("deform_*.json"))
        assert len(files) == 4
        for p in files:
            g = SimplexMap.from_json(json.loads(p.read_text()))
            assert simplex.l2_distance(f2, g) <= 0.05 + 1e-9


class TestFig7:
    def test_small_run(self, tmp_path):
        out = tmp_path / "f7"
        assert run(["fig7", "--count", "10", "--seed", "4",
                    "--out-dir", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["low_sample"] is True
        assert fit["absorbed"] + fit["unabsorbed"] == 10
        with open(out / "fixation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == fit["absorbed"]
        assert {r["vertex"] for r in rows} <= {"0", "1", "2"}

    def test_seed_recorded_when_drawn(self, tmp_path):
        out = tmp_path / "f7"
        run(["fig7", "--count", "5", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["master_seed"], int)


class TestMeasureTest:
    def test_orders(self, tmp_path):
        out = tmp_path / "ks.json"
        assert run(["measure-test", "--d", "1,2", "--samples", "20000",
                    "--seed", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"1", "2"}
        assert all(v < 0.05 for v in data.values())


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_outside_range_rejected(self, seed, tmp_path, capsys):
        # make_rng keys on seed mod 2^64, so such a seed would alias another
        with pytest.raises(SystemExit) as exit_:
            run(["measure-test", "--d", "1", "--samples", "100", "--seed", str(seed),
                 "--out", str(tmp_path / "ks.json")])
        assert exit_.value.code == 2
        assert f"seed {seed} outside [0, 2^64)" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "ks.json"
        assert run(["measure-test", "--d", "1", "--samples", "100",
                    "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["master_seed"] == 2**64 - 1


class TestPreimageCount:
    def test_cheb3(self, tmp_path):
        out = tmp_path / "pre.json"
        assert run(["preimage-count", "--catalog", "cheb:3", "--target", "0.37",
                    "--seed", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["count"] == 3

    @pytest.mark.parametrize("name, target, message", [
        ("tri:f2", "0.3", "1 coordinate(s), the map has 2"),
        ("cheb:2", "0.3,0.2", "2 coordinate(s), the map has 1"),
        ("tri:f2", "0.3,abc", "could not convert"),
    ])
    def test_bad_target_fails(self, name, target, message, tmp_path, capsys):
        out = tmp_path / "pre.json"
        assert run(["preimage-count", "--catalog", name, "--target", target,
                    "--seed", "0", "--out", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and message in stderr
        assert list(tmp_path.iterdir()) == []


class TestBadArguments:
    @pytest.mark.parametrize("argv, message", [
        (["fig6", "--eps", "0"], "eps 0.0 outside (0, inf)"),
        (["fig6", "--eps", "-0.05"], "eps -0.05 outside (0, inf)"),
        (["fig6", "--trials", "0"], "integer 0 outside [1, inf)"),
        (["deform-sample", "--map", "m.json", "--cone", "c.json", "--out", "d",
          "--eps", "0"], "eps 0.0 outside (0, inf)"),
        (["fig7", "--region", "0.6"], "region 0.6 outside (0, 1/2]"),
        (["fig7", "--region", "0"], "region 0.0 outside (0, 1/2]"),
        (["measure-test", "--d", "2,0"], "integer 0 outside [1, inf)"),
        (["measure-test", "--d", "2.5"], "invalid _orders value: '2.5'"),
        (["measure-test", "--samples", "0"], "integer 0 outside [1, inf)"),
        (["fig6", "--window", "0"], "integer 0 outside [1, inf)"),
        (["fig6", "--burn-in", "-1"], "integer -1 outside [0, inf)"),
        (["fig6", "--count", "-3"], "integer -3 outside [0, inf)"),
        (["deform-sample", "--map", "m.json", "--cone", "c.json", "--out", "d",
          "--count", "-1"], "integer -1 outside [0, inf)"),
        (["fig7", "--count", "0"], "integer 0 outside [1, inf)"),
        (["fig7", "--max-iters", "-1"], "integer -1 outside [0, inf)"),
    ])
    def test_argument_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            run([*argv, "--seed", "0"])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["deform-sample", "--map", "missing.json", "--cone", "missing.json",
          "--out", "out/defs"], "No such file or directory: 'missing.json'"),
        (["solve-fold", "--template", "missing.json", "--out", "out/sol.json"],
         "No such file or directory: 'missing.json'"),
        (["cone-build", "--n", "2", "--k", "2", "--N", "-1", "--out", "out/cone.json"],
         "N must be non-negative"),
        (["verify-fold", "--map", "missing.json", "--out", "out/v.json"],
         "No such file or directory: 'missing.json'"),
        (["verify-fold", "--catalog", "tri:f7", "--out", "out/v.json"],
         "verify-fold: unknown catalog entry 'tri:f7'"),
        (["preimage-count", "--map", "missing.json", "--target", "0.3,0.3",
          "--out", "out/p.json"], "No such file or directory: 'missing.json'"),
        (["preimage-count", "--catalog", "tri:f7", "--target", "0.3,0.3",
          "--out", "out/p.json"], "preimage-count: unknown catalog entry 'tri:f7'"),
        (["fig6", "--N", "-1", "--out-dir", "out"], "fig6: N must be non-negative"),
        (["fig6", "--N", "1", "--cone", "nodir/c.json", "--out-dir", "out"],
         "No such file or directory: 'nodir/c.json'"),
        (["cone-build", "--n", "0", "--k", "2", "--N", "1", "--out", "out/cone.json"],
         "cone-build: n must be at least 1"),
        (["cone-build", "--n", "2", "--k", "-1", "--N", "1", "--out", "out/cone.json"],
         "cone-build: k must be non-negative"),
    ])
    def test_bad_input_writes_nothing(self, argv, message, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--seed", "0"]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and message in stderr and stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, drop, message", [
        (["verify-fold", "--map", "in.json", "--out", "out/v.json"], ("k", "P"),
         "verify-fold: map JSON lacks required field(s) 'k', 'P'"),
        (["solve-fold", "--template", "in.json", "--out", "out/sol.json"],
         ("facet_assignment",),
         "solve-fold: template JSON lacks required field(s) 'facet_assignment'"),
    ])
    def test_json_missing_field(self, argv, drop, message, tmp_path, monkeypatch,
                                capsys):
        from simplexfold import folding
        data = (folding.catalog("tri:f2") if argv[0] == "verify-fold"
                else folding.BUILTIN_TEMPLATES["interval:2"]()).to_json()
        for key in drop:
            del data[key]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(data))
        assert run([*argv, "--seed", "0"]) == 1
        assert capsys.readouterr() == ("", message + "\n")
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


def test_manifest_hashes_outputs(tmp_path):
    out = tmp_path / "t"
    run(["tables", "--out-dir", str(out), "--seed", "0"])
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
