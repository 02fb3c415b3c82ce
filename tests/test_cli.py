import hashlib
import warnings
from dataclasses import fields

import numpy as np
import pytest

from dtnfem import analytic, cli, harness
from dtnfem.solve import SingularSystemError, evaluate_field


def run(args):
    return cli.main(args)


def test_convergence_writes_csv_with_orders(tmp_path):
    out = tmp_path / "conv.csv"
    code = run(["convergence", "--k", "1", "--levels", "3",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,N,k,dofs,err_h0,err_h1,seconds"
    rows = [ln for ln in lines if not ln.startswith("#") and ln != lines[0]]
    assert len(rows) == 3
    footer = [ln for ln in lines if ln.startswith("#")]
    assert any("fitted_order_h0" in ln for ln in footer)


def test_truncation_small_sweep(tmp_path, capsys):
    out = tmp_path / "trunc.csv"
    code = run(["truncation", "--k", "1", "--levels", "1", "--n-max", "4",
                "--output", str(out)])
    assert code == 0
    rows = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 4
    assert "plateau_N=" in capsys.readouterr().out


def test_solve_summary_and_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run.csv"
    grid = tmp_path / "fields.csv"
    code = run(["solve", "--k", "1", "--level", "1", "--output", str(out),
                "--grid", "6", "--grid-path", str(grid)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "err_h0=" in stdout and "residual=" in stdout
    assert out.exists()
    rows = grid.read_text().splitlines()
    assert rows[0].startswith("region,x,y,")
    assert any(ln.startswith("solid,") for ln in rows)
    assert any(ln.startswith("fluid,") for ln in rows)


def test_field_grid_rows_are_the_fe_and_oracle_magnitudes(tmp_path):
    """Each row holds |evaluate_field| and the oracle magnitude at its
    printed point in its region's columns, nan in the other region's."""
    cfg = harness.StudyConfig(d=(0.6, 0.8))
    _, sol, exact = harness.run_single(cfg, 1.0, cfg.N, 1)
    n = 5
    path = tmp_path / "fields.csv"
    cli._write_field_grid(path, sol, exact, n)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 4 * n * n
    apothem = np.cos(np.pi / 32)      # 32 interface edges at level 1
    nan = [np.nan] * 3
    want = []
    for region, r_lo, r_hi in (("solid", 0.0, apothem * 0.999),
                               ("fluid", 1.001, 2.0 * apothem * 0.999)):
        radii = r_lo + (r_hi - r_lo) * (np.arange(n) + 0.5) / n
        thetas = np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False)
        r, th = (a.ravel() for a in np.meshgrid(radii, thetas, indexing="ij"))
        if region == "solid":
            ue = analytic.eval_displacement(exact, r, th)
        else:
            pe = analytic.eval_pressure(exact, r, th)
        for i in range(r.size):
            x, y = r[i] * np.cos(th[i]), r[i] * np.sin(th[i])
            if region == "solid":
                u = evaluate_field(sol, (x, y), "u")
                vals = [abs(u[0]), abs(u[1]), np.nan,
                        abs(ue[i, 0]), abs(ue[i, 1]), np.nan]
            else:
                p = evaluate_field(sol, (x, y), "p")
                vals = nan[:2] + [abs(p)] + nan[:2] + [abs(pe[i])]
            want.append(f"{region},{x:.8g},{y:.8g}," +
                        ",".join(f"{v:.8g}" for v in vals))
    assert rows == want


@pytest.mark.parametrize("argv", [
    ["solve", "--level", "7"], ["mesh-dump", "--refine", "7"],
    ["convergence", "--n-angular", "32", "--levels", "6"],
    ["truncation", "--n-angular", "32", "--levels", "6", "--n-max", "2"]])
def test_level_over_the_memory_cap_builds_no_mesh(argv, tmp_path, capsys,
                                                  monkeypatch):
    """The triangle cap is checked before any mesh is built; a study checks
    its finest level before it solves its first."""
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    for name in ("build_disc_mesh", "build_annulus_mesh"):
        monkeypatch.setattr(harness, name, no_mesh)
    if argv[0] in ("convergence", "truncation"):
        monkeypatch.setattr(harness, "build_mesh_pair", no_mesh)
    out = tmp_path / "out.txt"
    assert run([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: mesh pair of" in err
    assert "exceeds the cap of 720896" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["convergence", "truncation"])
@pytest.mark.parametrize("line", ["levels = 1,1", "k = 1,1"])
def test_repeated_sweep_value_is_a_configuration_error(command, line,
                                                       tmp_path, capsys):
    """A repeated level would fit an order through two equal h, a repeated
    k would repeat every row: both are refused before any work."""
    config = tmp_path / "sweep.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--config", str(config), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "must not repeat" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["truncation", "--levels", "1", "--n-max", "170"],
    ["solve", "--level", "0", "--order", "170"],
    ["convergence", "--levels", "1", "--order", "170"]])
def test_order_past_the_impedance_overflow_builds_no_mesh(argv, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    """At k = 1, R = 2 the impedance z_170 overflows: the order is refused
    as a configuration error, named, before any mesh is built."""
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_mesh_pair", no_mesh)
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: truncation order 170" in err
    assert "z_170" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--level", "0", "--order", "-1"],
    ["convergence", "--levels", "1", "--order", "-1"]])
def test_negative_order_is_refused_before_any_oracle(argv, tmp_path, capsys,
                                                     monkeypatch):
    """A negative order is the order check's configuration error, raised
    before the oracle of any k is solved."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle was solved")

    monkeypatch.setattr(analytic, "solve_modes", no_oracle)
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "order must be a non-negative integer, got -1" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [["--n-max", "169"],
                                  ["--n-max", "170", "--k", "2"]])
def test_largest_buildable_order_runs(argv, tmp_path):
    """The refusal follows kR: z_169 is finite at k = 1 and z_170 at k = 2."""
    out = tmp_path / "trunc.csv"
    assert run(["truncation", "--levels", "1", *argv,
                "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + int(argv[1]) + 1


@pytest.mark.parametrize("grid", ["-2", "100000"])
def test_grid_is_checked_before_the_solve(grid, tmp_path, capsys):
    """A negative grid, or one of more than MAX_GRID_POINTS points, is
    refused before anything is solved or allocated."""
    path = tmp_path / "fields.csv"
    assert run(["solve", "--level", "0", "--grid", grid,
                "--grid-path", str(path)]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err
    assert "solve k=" not in captured.out
    assert not path.exists()


def test_oracle_fluid_point(capsys):
    assert run(["oracle", "--k", "1", "--point", "1.5", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "p  =" in out
    assert "ux" not in out


def test_oracle_solid_point(capsys):
    assert run(["oracle", "--k", "1", "--point", "0.3", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "ux =" in out and "uy =" in out


def test_oracle_header_reports_the_modes_kept(capsys):
    """The mode budget (--modes) is an upper bound on the modes kept; by
    default the tail stop alone decides, at k = 43 too."""
    for k, extra, kept in (("1", [], 17), ("1", ["--modes", "40"], 17),
                           ("1", ["--modes", "12"], 12), ("10", [], 38),
                           ("16", [], 48), ("43", [], 85)):
        assert run(["oracle", "--k", k, *extra, "--point", "1.5", "0"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"oracle k={k} modes={kept} point=(1.5, 0) r=1.5"


def test_mesh_dump_roundtrip(tmp_path):
    out = tmp_path / "mesh.txt"
    code = run(["mesh-dump", "--region", "annulus", "--refine", "1",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split()
    assert header[2:4] == ["triangles", str(4 * 96)]
    tags = {line.split()[-1] for line in lines[-int(header[5]):]}
    assert tags == {"GAMMA", "GAMMA_R"}


def test_missing_config_file_names_path(capsys):
    code = run(["solve", "--config", "/no/such/config.txt"])
    assert code == 1
    assert "/no/such/config.txt" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    assert run(["solve", "--config", str(bad)]) == 1
    assert "key = value" in capsys.readouterr().err


def test_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 3\n")
    assert run(["solve", "--config", str(bad)]) == 1


def test_every_config_key_but_n_max_names_a_study_field():
    """``_study_config`` hands every parsed value to StudyConfig unfiltered,
    once N_max has been popped into n_values."""
    dests = {dest for dest, _ in cli._CONFIG_KEYS.values()}
    assert dests - {f.name for f in fields(harness.StudyConfig)} == {"N_max"}


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--frobnicate"])
    assert exc.value.code == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# physical setup
k = 2.0
N = 5
lambda = 1.0
""")
    assert run(["oracle", "--config", str(cfg), "--point", "1.5", "0.0"]) == 0
    assert "k=2" in capsys.readouterr().out
    assert run(["oracle", "--config", str(cfg), "--k", "1",
                "--point", "1.5", "0.0"]) == 0
    assert "k=1" in capsys.readouterr().out


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SingularSystemError("resonant configuration")

    monkeypatch.setattr(cli, "run_single", boom)
    assert run(["solve", "--k", "1"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--k", "inf")])
def test_non_finite_physics_is_a_configuration_error(flag, value, capsys):
    assert run(["solve", flag, value, "--level", "0"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


def test_overflow_is_a_numerical_failure(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "run_single", overflow)
    assert run(["solve", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("d", ["1", ",", "1,0,5"])
def test_incident_direction_needs_two_components(d, capsys):
    assert run(["oracle", f"--d={d}", "--point", "1.5", "0"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


def test_underflowing_radius_is_a_numerical_failure(capsys):
    assert run(["oracle", "--R0", "1e-300", "--point", "1.5", "0"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("point", [("1e300", "0"), ("1e308", "1e308")])
def test_non_finite_oracle_value_is_a_numerical_failure(point, capsys):
    assert run(["oracle", "--point", *point]) == 2
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert "nan" not in captured.out and "inf" not in captured.out


@pytest.mark.parametrize("point,shown", [
    (("-1e-5", "0.5"), "point=(-1e-05, 0.5)"),
    (("0.5", "-1E-5"), "point=(0.5, -1e-05)"),
    (("-1.5e0", "-0"), "point=(-1.5, -0)"),
])
def test_negative_exponent_notation_is_a_value(point, shown, capsys):
    assert run(["oracle", "--point", *point]) == 0
    assert shown in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--level", "-1"], ["solve", "--level", "8"],
    ["mesh-dump", "--refine", "-3"], ["mesh-dump", "--refine", "30"],
    ["mesh-dump", "--R0", "1e-9"], ["mesh-dump", "--R", "inf"]])
def test_mesh_beyond_the_cap_is_a_configuration_error(argv, tmp_path,
                                                      capsys):
    out = tmp_path / "out.txt"
    assert run([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_inverted_refinement_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    code = run(["mesh-dump", "--region", "annulus", "--R", "1.05",
                "--refine", "2", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: refinement level 2 inverts" in err
    assert "--n-angular" in err and "Traceback" not in err
    assert not out.exists()


def test_subnormal_radius_is_refused_like_any_oversized_mesh(tmp_path,
                                                             capsys):
    """R0 = 5e-324 underflows the interface chord to 0: refused with exit 1
    like R0 = 1e-300, not a divide-by-zero warning and an overflow."""
    out = tmp_path / "out.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["mesh-dump", "--R0", "5e-324", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--rho-f", "1e300", "--omega", "1e5"],
                                   ["--rho-f", "1e-300", "--omega", "1e-5"]])
def test_fluid_scale_out_of_range_is_a_configuration_error(flags, tmp_path,
                                                           capsys):
    """rho_f omega^2 that overflows to inf or underflows below the smallest
    normal float is refused with exit 1, before any RuntimeWarning."""
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["solve", "--level", "1", *flags, "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: rho_f omega^2" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_overflowing_omega_squared_is_named(tmp_path, capsys):
    """rho_f omega^2 = 1e20 is in range, but the assembly squares omega
    first, and omega^2 overflows: the refusal names omega^2 and omega."""
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["solve", "--level", "0", "--omega", "1e160",
                    "--rho-f", "1e-300", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: omega^2 = inf for omega = 1e+160" in err
    assert "rho_f" not in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--level", "0", "--omega=7.5e-87"],
    ["convergence", "--levels=1", "--order=4", "--k=1e-150"]])
def test_overflowing_mode_is_a_numerical_failure_without_warnings(
        argv, tmp_path, capsys):
    """A mode matrix or residual that overflows is refused as a failed
    mode, with no RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--output", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: mode " in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("region, digest", [
    ("disc", "996956e464a351343cf569d82ed33f5045183c5e25a4afb0d697d2ee0b96ff55"),
    ("annulus",
     "1957a8f496fa7512fde44f10dfee7a50b9ec938b7380bd9d90484d3b2c7836b7")])
def test_mesh_dump_bytes_are_pinned(tmp_path, region, digest):
    """The dump of the default pair at level 2 is byte for byte what it was
    before meshes carried a rotation table: the table is not written."""
    out = tmp_path / "mesh.txt"
    assert run(["mesh-dump", "--region", region, "--refine", "2",
                "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
