"""Command-line contract tests: exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from nullfoliate import cli

from conftest import plant_shear


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as err:  # argparse rejections also exit 2
        return err.code


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared dataset + foliation for the read-only commands."""
    root = tmp_path_factory.mktemp("cli")
    ds = str(root / "ds")
    fol = str(root / "fol")
    assert run(["generate", "--model", "minkowski", "--lmax", "8",
                "--n-s", "24", "--out", ds]) == 0
    assert run(["solve", "--data", ds, "--out", fol,
                "--dv", str(1.0 / 32.0)]) == 0
    return root, ds, fol


def test_import_loads_no_executor():
    """The solver is serial: importing the CLI loads no concurrent.futures."""
    code = ("import sys, nullfoliate.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_schwarzschild_stages_import_no_numpy_polynomial(tmp_path):
    """The grid computes its own Gauss-Legendre rule, so a Schwarzschild
    generate, solve, verify and norms in one process never import
    numpy.polynomial, whose leggauss runs LAPACK's eigensolver."""
    code = (
        "import sys\n"
        "from nullfoliate import cli\n"
        "d, fol = sys.argv[1] + '/ds', sys.argv[1] + '/fol'\n"
        "for argv in (['generate', '--model', 'schwarzschild', '--lmax',\n"
        "              '8', '--n-s', '24', '--out', d],\n"
        "             ['solve', '--data', d, '--out', fol, '--dv',\n"
        "              '0.0625', '--v-end', '1.5'],\n"
        "             ['verify', '--data', d, '--foliation', fol, '--out',\n"
        "              sys.argv[1] + '/verify'],\n"
        "             ['norms', '--data', d, '--foliation', fol, '--out',\n"
        "              sys.argv[1] + '/norms']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "sys.exit(3 if 'numpy.polynomial' in sys.modules else 0)\n")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "norms").is_dir()


class TestGenerate:
    def test_schwarzschild_dataset(self, tmp_path):
        out = str(tmp_path / "ds")
        assert run(["generate", "--model", "schwarzschild", "--mass", "0.1",
                    "--lmax", "8", "--n-s", "24", "--out", out]) == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["kind"] == "geodesic_data"
        rho = np.fromfile(tmp_path / "ds" / "rho.bin", dtype="<f8")
        assert rho.min() < 0.0  # -2M/s^3 is negative

    def test_bad_model_exits_2(self, tmp_path):
        assert run(["generate", "--model", "kerr",
                    "--out", str(tmp_path / "x")]) == 2

    def test_bad_mass_exits_2(self, tmp_path):
        assert run(["generate", "--model", "schwarzschild", "--mass", "0.4",
                    "--lmax", "8", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("model", ["minkowski", "schwarzschild"])
    def test_one_s_node_exits_2(self, model, tmp_path, capsys):
        """The generators need two CGL nodes at least."""
        assert run(["generate", "--model", model, "--lmax", "8", "--n-s",
                    "1", "--out", str(tmp_path / "x")]) == 2
        assert "n_s must be at least 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSolve:
    def test_breakdown_exit_code_and_finite_files(self, tmp_path):
        """A slab truncated at s* = 1.2 breaks down near v = 1.2 with exit 3
        and only finite values in the emitted report."""
        ds = str(tmp_path / "ds")
        out = str(tmp_path / "fol")
        assert run(["generate", "--model", "minkowski", "--lmax", "8",
                    "--n-s", "24", "--s-star", "1.2", "--out", ds]) == 0
        assert run(["solve", "--data", ds, "--out", out,
                    "--dv", str(1.0 / 32.0)]) == 3
        report = json.loads((tmp_path / "fol" / "breakdown.json").read_text())
        assert abs(float(report["last_good_v"]) - 1.2) < 0.1
        for name in os.listdir(out):
            if name.endswith(".bin"):
                arr = np.fromfile(os.path.join(out, name), dtype="<f8")
                assert np.all(np.isfinite(arr))

    def test_breakdown_leaves_no_earlier_foliation(self, workspace, tmp_path):
        """A breakdown in a directory that held a foliation leaves nothing
        loadable there: verify exits 5, not with the old foliation."""
        root, ds, _ = workspace
        out = str(tmp_path / "fol")
        assert run(["solve", "--data", ds, "--out", out, "--v-end", "1.5",
                    "--dv", str(1.0 / 32.0)]) == 0
        cut = str(tmp_path / "cut")
        assert run(["generate", "--model", "minkowski", "--lmax", "8",
                    "--n-s", "24", "--s-star", "1.2", "--out", cut]) == 0
        assert run(["solve", "--data", cut, "--out", out,
                    "--dv", str(1.0 / 32.0)]) == 3
        names = set(os.listdir(out))
        assert "breakdown.json" in names
        assert not names & {"manifest.json", "trace.csv"}
        assert run(["verify", "--data", ds, "--foliation", out,
                    "--out", str(tmp_path / "rep")]) == 5
        # a later good solve does not keep the stale breakdown report
        assert run(["solve", "--data", ds, "--out", out, "--v-end", "1.5",
                    "--dv", str(1.0 / 32.0)]) == 0
        assert "breakdown.json" not in os.listdir(out)

    def test_non_finite_iterate_exits_3(self, tmp_path, monkeypatch):
        """A dataset whose lapse turns NaN is a solver failure, not a
        converged foliation."""
        from nullfoliate import geodesic
        data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=24)
        data.rho[5, 3, 4] = np.nan
        monkeypatch.setattr(cli.geodesic, "load", lambda path: data)
        out = tmp_path / "fol"
        assert run(["solve", "--data", "unused", "--out", str(out),
                    "--dv", str(1.0 / 16.0)]) == 3
        assert not (out / "manifest.json").exists()

    def test_non_finite_lapse_writes_breakdown_json(self, tmp_path, capsys):
        """A finite dataset whose lapse overflows (rho' = 1e307 at one point)
        breaks down like any other solve: exit 3 and a breakdown.json that
        names the non-finite lapse."""
        from nullfoliate import geodesic
        data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=24)
        data.rho[5, 3, 4] = 1e307
        geodesic.save(data, str(tmp_path / "ds"))
        out = tmp_path / "fol"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["solve", "--data", str(tmp_path / "ds"), "--out",
                        str(out), "--dv", "0.0625", "--v-end", "1.5"]) == 3
        report = json.loads((out / "breakdown.json").read_text())
        assert "non-finite lapse iterate" in report["reason"]
        assert report["last_good_v"] == "1"
        assert "solver breakdown: last good v = 1.000000" \
            in capsys.readouterr().err

    def test_v_end_off_the_grid_exits_2(self, tmp_path, monkeypatch):
        from nullfoliate import geodesic
        data = geodesic.gen_schwarzschild(0.1, Lmax=6, n_s=24)
        monkeypatch.setattr(cli.geodesic, "load", lambda path: data)
        assert run(["solve", "--data", "unused", "--out",
                    str(tmp_path / "fol"), "--delta", "0.3",
                    "--dv", "0.03"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_bad_thread_count_exits_2(self, workspace, tmp_path, monkeypatch,
                                      threads):
        _, ds, _ = workspace
        out = tmp_path / "fol"
        assert run(["solve", "--data", ds, "--out", str(out),
                    "--threads", threads]) == 2
        monkeypatch.setenv("NULLFOLIATE_THREADS", threads)
        assert run(["solve", "--data", ds, "--out", str(out)]) == 2
        assert not out.exists()

    def test_no_iterations_exits_2(self, workspace, tmp_path, capsys):
        _, ds, _ = workspace
        out = tmp_path / "fol"
        assert run(["solve", "--data", ds, "--out", str(out),
                    "--max-iter", "0"]) == 2
        assert "max_iter must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_trailing_bytes_in_a_field_exit_5(self, tmp_path, capsys):
        """A partial value after the last one is a malformed file, not
        padding to ignore."""
        ds = tmp_path / "schw"
        assert run(["generate", "--model", "schwarzschild", "--lmax", "8",
                    "--n-s", "24", "--out", str(ds)]) == 0
        with open(ds / "psi.bin", "ab") as fh:
            fh.write(b"abc")
        assert run(["solve", "--data", str(ds),
                    "--out", str(tmp_path / "fol")]) == 5
        assert "field 'psi': expected" in capsys.readouterr().err

    def test_missing_dataset_exits_5(self, tmp_path):
        assert run(["solve", "--data", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "fol")]) == 5

    def test_nan_in_an_unread_field_exits_5(self, tmp_path, capsys):
        """Every field is validated on load, also one the solve never reads:
        an MMS solve reads psi and forcing_F1, not sigma."""
        ds = tmp_path / "mms"
        assert run(["generate", "--model", "mms", "--epsilon", "1e-2",
                    "--lmax", "8", "--n-s", "24", "--out", str(ds)]) == 0
        with open(ds / "sigma.bin", "r+b") as fh:
            fh.seek(8 * 100)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        assert run(["solve", "--data", str(ds),
                    "--out", str(tmp_path / "fol")]) == 5
        assert "field 'sigma' contains non-finite values" \
            in capsys.readouterr().err

    def test_planted_shear_exits_5(self, tmp_path, capsys):
        path = plant_shear(tmp_path / "ds")
        assert run(["solve", "--data", str(path),
                    "--out", str(tmp_path / "fol")]) == 5
        assert "'chihat'" in capsys.readouterr().err


class TestVerifyAndNorms:
    def test_minkowski_trace_kappa_column(self, workspace):
        root, ds, fol = workspace
        lines = (root / "fol" / "trace.csv").read_text().splitlines()
        kappas = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(k <= 1e-12 for k in kappas)

    def test_mms_solve_prints_sidecar_error(self, tmp_path, capsys):
        ds = str(tmp_path / "mms")
        out = str(tmp_path / "fol")
        assert run(["generate", "--model", "mms", "--epsilon", "1e-2",
                    "--lmax", "12", "--n-s", "32", "--out", ds]) == 0
        assert run(["solve", "--data", ds, "--out", out,
                    "--dv", str(1.0 / 16.0)]) == 0
        captured = capsys.readouterr().out
        assert "exact sidecar" in captured

    def test_verify_writes_reports(self, workspace, tmp_path):
        root, ds, fol = workspace
        out = str(tmp_path / "rep")
        assert run(["verify", "--data", ds, "--foliation", fol,
                    "--out", out, "--strict"]) == 0
        lines = (tmp_path / "rep" / "constraint_residuals.csv") \
            .read_text().splitlines()
        assert lines[0] == "name,v,max_norm,L2_norm,pass"
        summary = json.loads(
            (tmp_path / "rep" / "verify_summary.json").read_text())
        assert all(summary["constraint"]["pass"].values())

    def test_csv_writes_every_number_by_fmt(self, tmp_path):
        """A number of any type is written with 17 significant digits; str
        and int cells are written as they are."""
        from nullfoliate.reports import _fmt, write_csv
        x = 0.1 + 0.2
        path = tmp_path / "cells.csv"
        write_csv(path, ("a", "b"), [(x, np.float64(x)),
                                     (np.array(x), np.float32(x)),
                                     ("", 7)])
        lines = path.read_text().splitlines()
        assert lines == ["a,b", f"{_fmt(x)},{_fmt(x)}",
                         f"{_fmt(x)},{_fmt(np.float32(x))}", ",7"]
        assert _fmt(x) == "0.30000000000000004"

    def test_strict_failure_exits_4(self, workspace, tmp_path):
        """Corrupting the stored lapse must trip --strict verification."""
        from nullfoliate import geodesic, solver
        root, ds, fol = workspace
        data = geodesic.load(ds)
        f = solver.Foliation.load(fol, data)
        f.logOmega = f.logOmega + 1e-3
        bad = str(tmp_path / "belly")
        f.save(bad)
        out = str(tmp_path / "rep2")
        assert run(["verify", "--data", ds, "--foliation", bad,
                    "--out", out, "--strict"]) == 4
        assert run(["verify", "--data", ds, "--foliation", bad,
                    "--out", out]) == 0  # non-strict only reports

    def test_strict_from_config_exits_4(self, workspace, tmp_path):
        """`strict = yes` in [verify] trips on a corrupted lapse as --strict
        does."""
        from nullfoliate import geodesic, solver
        _, ds, fol = workspace
        f = solver.Foliation.load(fol, geodesic.load(ds))
        f.logOmega = f.logOmega + 1e-3
        bad = str(tmp_path / "belly")
        f.save(bad)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[verify]\nstrict = yes\n")
        assert run(["--config", str(cfg), "verify", "--data", ds,
                    "--foliation", bad, "--out", str(tmp_path / "rep")]) == 4

    def test_one_reconstruction_per_run(self, workspace, tmp_path,
                                        monkeypatch):
        """verify and norms each reconstruct every level once and hand
        that one reconstruction to all the suites they run."""
        from nullfoliate import diagnostics
        _, ds, fol = workspace
        real = diagnostics.reconstruct
        levels = []

        def counting(data, s, logOmega, v):
            levels.append(len(v))
            return real(data, s, logOmega, v)

        monkeypatch.setattr(diagnostics, "reconstruct", counting)
        for command in ("verify", "norms"):
            levels.clear()
            assert run([command, "--data", ds, "--foliation", fol,
                        "--out", str(tmp_path / command)]) == 0
            assert levels == [33], command  # dv = 1/32 over v in [1, 2]

    def test_norms_reconstructs_after_the_geodesic_side(
            self, workspace, tmp_path, monkeypatch):
        """norms measures the geodesic slab first and reconstructs only
        once the slab is gone, so the two are never resident together."""
        from nullfoliate import diagnostics, geodesic
        _, ds, fol = workspace
        real_slab, real_reconstruct = (geodesic.GeodesicNullData.slab,
                                       diagnostics.reconstruct)
        events, slabs = [], []

        def slab(data):
            geo = real_slab(data)
            events.append("slab")
            slabs.append(weakref.ref(geo))
            return geo

        def reconstruct(*args):
            events.append("reconstruct")
            assert all(ref() is None for ref in slabs), "slab still held"
            return real_reconstruct(*args)

        monkeypatch.setattr(geodesic.GeodesicNullData, "slab", slab)
        monkeypatch.setattr(diagnostics, "reconstruct", reconstruct)
        assert run(["norms", "--data", ds, "--foliation", fol,
                    "--out", str(tmp_path / "norms")]) == 0
        assert events == ["slab", "reconstruct"]

    @pytest.mark.parametrize("bend", ["one_level", "two_levels",
                                      "moved_node", "descending"])
    def test_bad_v_grid_exits_5(self, workspace, tmp_path, bend):
        """A foliation whose v-grid is not uniform and ascending with at
        least 3 nodes is refused at load by verify and norms (exit 5)."""
        from nullfoliate import geodesic, solver
        _, ds, fol = workspace
        f = solver.Foliation.load(fol, geodesic.load(ds))
        v, s, logom = f.v_nodes.copy(), f.s, f.logOmega
        if bend == "one_level":
            v, s, logom = v[:1], s[:1], logom[:1]
        elif bend == "two_levels":
            v, s, logom = v[:2], s[:2], logom[:2]
        elif bend == "moved_node":
            v[5] += 0.004
        else:
            v, s, logom = v[::-1], s[::-1], logom[::-1]
        bad = str(tmp_path / "bad")
        solver.Foliation(f.data, v, s, logom).save(bad)
        for command in ("verify", "norms"):
            assert run([command, "--data", ds, "--foliation", bad,
                        "--out", str(tmp_path / command)]) == 5

    def test_norms_deterministic(self, workspace, tmp_path):
        root, ds, fol = workspace
        out1 = str(tmp_path / "n1")
        out2 = str(tmp_path / "n2")
        assert run(["norms", "--data", ds, "--foliation", fol,
                    "--out", out1]) == 0
        assert run(["norms", "--data", ds, "--foliation", fol,
                    "--out", out2]) == 0
        b1 = (tmp_path / "n1" / "norms.csv").read_bytes()
        b2 = (tmp_path / "n2" / "norms.csv").read_bytes()
        assert b1 == b2
        j1 = (tmp_path / "n1" / "norms.json").read_bytes()
        assert j1 == (tmp_path / "n2" / "norms.json").read_bytes()


class TestConfigFile:
    def test_section_defaults_and_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[generate]\nmodel = minkowski\nlmax = 8\n"
                       "n-s = 24\nout = fromcfg\n")
        monkeypatch.chdir(tmp_path)
        assert run(["--config", str(cfg), "generate"]) == 0
        assert (tmp_path / "fromcfg" / "manifest.json").exists()
        # command-line flag wins over the config value
        assert run(["--config", str(cfg), "generate",
                    "--out", str(tmp_path / "cliwins")]) == 0
        assert (tmp_path / "cliwins" / "manifest.json").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[generate]\nwarp_factor = 9\n")
        assert run(["--config", str(cfg), "generate"]) == 2

    @pytest.mark.parametrize("second", ["n-s", "n_s"])
    def test_option_named_twice_exits_2(self, second, tmp_path, capsys):
        """An option keyed twice in one section, with a dash or as written,
        is refused, naming both keys; neither value wins."""
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("[generate]\nmodel = minkowski\nlmax = 8\n"
                       f"n_s = 24\n{second} = 30\n")
        out = tmp_path / "ds"
        assert run(["--config", str(cfg), "generate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'n_s'" in err and f"'{second}'" in err
        assert not out.exists()

    def test_threads_deprecated_and_ignored(self, workspace, tmp_path,
                                            monkeypatch, capsys):
        """--threads, NULLFOLIATE_THREADS and the config key each print one
        deprecation line on stderr and change nothing the solve writes."""
        _, ds, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[solve]\nthreads = 2\n")
        monkeypatch.delenv("NULLFOLIATE_THREADS", raising=False)

        def solve(name, top=(), extra=()):
            out = tmp_path / name
            assert run([*top, "solve", "--data", ds, "--out", str(out),
                        "--dv", str(1.0 / 16.0), *extra]) == 0
            files = [(out / f).read_bytes() for f in ("s.bin", "logOmega.bin")]
            return files, capsys.readouterr().err.splitlines()

        plain, err = solve("plain")
        assert err == []
        runs = [solve("flag", extra=("--threads", "2"))]
        monkeypatch.setenv("NULLFOLIATE_THREADS", "2")
        runs.append(solve("env"))
        monkeypatch.delenv("NULLFOLIATE_THREADS")
        runs.append(solve("ini", top=("--config", str(cfg))))
        for files, err in runs:
            assert files == plain
            assert len(err) == 1 and "deprecated" in err[0]


# per option type: a config value and its cast, a config value the flag must
# beat, the flag's arguments and its value, and a config value the type
# refuses (any string is a valid str)
SAMPLES = {
    int: ("7", 7, "8", ["9"], 9, "7.5"),
    float: ("0.375", 0.375, "0.25", ["0.5"], 0.5, "half"),
    str: ("here", "here", "there", ["elsewhere"], "elsewhere", None),
    cli.boolean: ("yes", True, "no", [], True, "maybe"),
}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, (_, _, options) in cli.COMMANDS.items()
    for key in options])
def test_every_option_resolves(command, key, tmp_path, capsys):
    """With neither flag nor config an option takes its table default; a
    config value, keyed with dashes, is cast by the option's type; the flag
    beats the config value; a config value the type refuses exits 2 and
    names the key."""
    cast, default, *_ = cli.COMMANDS[command][2][key]
    raw, value, rival, flag_args, flag_value, bad = SAMPLES[cast]
    name = key.replace("_", "-")

    def resolve(argv, config):
        args = cli._build_parser().parse_args([command, *argv])
        return getattr(cli._resolve(args, config), key)

    assert resolve([], {}) == default
    assert resolve([], {name: raw}) == value
    assert resolve(["--" + name, *flag_args], {name: rival}) == flag_value
    if bad is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{command}]\n{name} = {bad}\n")
        assert run(["--config", str(cfg), command]) == 2
        assert f"config value {name} = {bad!r}" in capsys.readouterr().err


# a numeric option set to NaN, infinity or a value out of its range: each
# exits 2 with a message that names the option
REFUSED = {
    "solve --dv nan": (["solve", "--dv", "nan"], "dv must be positive"),
    "solve --v-end nan": (["solve", "--v-end", "nan"], "v_end - 1 = nan"),
    "solve --v-end inf": (["solve", "--v-end", "inf"], "v_end - 1 = inf"),
    "solve --tol nan": (["solve", "--tol", "nan"], "tol must be positive"),
    "solve --tol inf": (["solve", "--tol", "inf"], "tol must be positive"),
    "generate --epsilon nan": (["generate", "--model", "mms", "--epsilon",
                                "nan"], "epsilon must be non-negative"),
    "convergence --dv0 nan": (["convergence", "--dv0", "nan"],
                              "dv must be positive"),
    "verify --tol-constraint nan": (["verify", "--tol-constraint", "nan"],
                                    "tol_constraint must be positive"),
    "verify --tol-constraint -1": (["verify", "--tol-constraint", "-1"],
                                   "tol_constraint must be positive"),
    "verify --tol-transport nan": (["verify", "--tol-transport", "nan"],
                                   "tol_transport must be positive"),
}
# refused the same way before NaN was checked for everywhere
REFUSED_BEFORE = {
    "generate --mass nan": (["generate", "--model", "schwarzschild",
                             "--mass", "nan"], "mass M must satisfy"),
    "generate --s-star nan": (["generate", "--s-star", "nan"],
                              "s_star must lie in"),
    "solve --delta nan": (["solve", "--delta", "nan"], "delta must lie in"),
    "solve --delta inf": (["solve", "--delta", "inf"], "delta must lie in"),
}


@pytest.mark.parametrize("argv,message",
                         [*REFUSED.values(), *REFUSED_BEFORE.values()],
                         ids=[*REFUSED, *REFUSED_BEFORE])
def test_bad_number_exits_2(argv, message, workspace, tmp_path, capsys):
    """Every comparison that checks a number is written so that NaN fails
    it; the commands run at L = 8."""
    _, ds, fol = workspace
    command, *options = argv
    common = {"generate": ["--lmax", "8", "--n-s", "24"],
              "convergence": ["--levels", "2", "--lmax", "8", "--n-s", "24"],
              "solve": ["--data", ds],
              "verify": ["--data", ds, "--foliation", fol]}[command]
    assert run([command, *common, "--out", str(tmp_path / "out"),
                *options]) == 2
    assert message in capsys.readouterr().err


class TestConvergence:
    def test_small_study(self, tmp_path):
        out = str(tmp_path / "conv")
        assert run(["convergence", "--levels", "2", "--lmax", "12",
                    "--n-s", "32", "--dv0", str(1.0 / 8.0),
                    "--out", out]) == 0
        lines = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "dv,error,order"
        order = float(lines[2].split(",")[2])
        assert 3.0 < order < 5.0

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_fewer_than_two_levels_exit_2(self, levels, tmp_path, capsys):
        """An order needs two resolutions; one fits a line through a
        single point."""
        assert run(["convergence", "--levels", levels, "--lmax", "8",
                    "--n-s", "24", "--out", str(tmp_path / "conv")]) == 2
        assert f"needs at least 2 levels, got {levels}" \
            in capsys.readouterr().err
        assert not (tmp_path / "conv").exists()

    def test_threads_deprecated_and_ignored(self, tmp_path, capsys):
        """--threads on convergence warns once and changes no number; a
        count below 1 still exits 2."""
        study = ["convergence", "--levels", "2", "--lmax", "8", "--n-s", "24",
                 "--dv0", "0.25", "--v-end", "1.5"]
        assert run(study + ["--threads", "0",
                            "--out", str(tmp_path / "bad")]) == 2
        assert not (tmp_path / "bad").exists()
        capsys.readouterr()
        csv = []
        for name, extra in (("plain", []), ("flag", ["--threads", "2"])):
            assert run(study + extra + ["--out", str(tmp_path / name)]) == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == len(extra) // 2
            assert all("deprecated" in line for line in err)
            csv.append((tmp_path / name / "convergence.csv").read_bytes())
        assert csv[0] == csv[1]
