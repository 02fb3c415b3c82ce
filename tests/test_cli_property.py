"""Property tests of the CLI exit-code contract on the ``oracle``,
``solve``, ``mesh-dump``, ``convergence`` and ``truncation`` subcommands.

For any argument vector: the exit code is 0, 1 or 2 and stderr holds no
traceback.  A successful ``oracle`` prints only finite numbers; a successful
``solve`` or ``mesh-dump`` ran a refinement level of 0 or 1, the only
accepted ones among the drawn levels, so every example stays cheap.  A
successful study ran level 1 only (``--levels 1``) at a DtN order of at most
4; a truncation study of several orders goes through the low-rank sweep and,
where it fails, its direct fallback.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from dtnfem import cli

_FLOAT_FLAGS = ("--k", "--R0", "--R", "--mu", "--lam", "--rho", "--rho-f",
                "--omega")
_PHYSICS_FLAGS = tuple(f for f in _FLOAT_FLAGS if f not in ("--R0", "--R"))

# any float (nan, +-inf and subnormals included), ordinary sizes, and
# extremes whose squares or products under- or overflow
_EXTREMES = [5e-324, 1e-300, 1e-160, 1e-9, 1e16, 1e160, 1e300,
             1.7976931348623157e308]
_values = st.one_of(st.floats(), st.floats(min_value=0.05, max_value=20.0),
                    st.sampled_from(_EXTREMES + [-v for v in _EXTREMES]))


def _text(v: float) -> str:
    # positional digits, so that argparse reads a negative value as a number
    return np.format_float_positional(v, trim="-")


@st.composite
def oracle_argv(draw):
    argv = ["oracle"]
    flags = st.lists(st.sampled_from(_FLOAT_FLAGS), unique=True, max_size=4)
    for flag in draw(flags):
        argv.append(f"{flag}={_text(draw(_values))}")
    if draw(st.booleans()):
        argv.append(f"--modes={draw(st.integers(-5, 10 ** 6))}")
    if draw(st.booleans()):
        d = draw(st.lists(_values, max_size=3))
        argv.append("--d=" + ",".join(_text(v) for v in d))
    point = draw(st.tuples(_values, _values))
    argv += ["--point", *(_text(v) for v in point)]
    return argv


# refinement levels around the accepted range [0, 7]; radii and angular
# counts that either give a small coarse pair or are refused before any
# mesh is built
_LEVELS = [-1, 0, 1, 8, 10 ** 6]
_radii = st.one_of(st.sampled_from([0.5, 3.0]),
                   st.sampled_from(_EXTREMES + [-v for v in _EXTREMES]
                                   + [0.0, np.nan, np.inf, -np.inf]))
_N_ANGULAR = [-16, 0, 7, 8, 16, 10 ** 6]
# study sweeps, accepted values first: --levels L runs levels 1..L;
# --order / --n-max
_STUDY_LEVELS = [1, -1, 0, 8]
_STUDY_ORDERS = [4, 1, 0, -1]


@st.composite
def mesh_flags(draw, level_flag):
    level = draw(st.sampled_from(_LEVELS))
    argv = [f"{level_flag}={level}"]
    for flag in draw(st.lists(st.sampled_from(("--R0", "--R")), unique=True)):
        argv.append(f"{flag}={_text(draw(_radii))}")
    if draw(st.booleans()):
        argv.append(f"--n-angular={draw(st.sampled_from(_N_ANGULAR))}")
    flags = st.lists(st.sampled_from(_PHYSICS_FLAGS), unique=True, max_size=2)
    for flag in draw(flags):
        argv.append(f"{flag}={_text(draw(_values))}")
    return level, argv


@st.composite
def solve_argv(draw):
    level, argv = draw(mesh_flags("--level"))
    for flag in ("--order", "--modes"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.integers(-5, 10 ** 6))}")
    return level, ["solve", *argv]


@st.composite
def mesh_dump_argv(draw):
    level, argv = draw(mesh_flags("--refine"))
    region = draw(st.sampled_from(("disc", "annulus")))
    return level, ["mesh-dump", f"--region={region}", *argv]


@st.composite
def study_argv(draw, command, order_flag):
    level = draw(st.sampled_from(_STUDY_LEVELS))
    order = draw(st.sampled_from(_STUDY_ORDERS))
    argv = [command, f"--levels={level}", f"{order_flag}={order}"]
    # at most one radius and one physics value, so that some of the
    # examples are accepted and solved
    if draw(st.booleans()):
        flag = draw(st.sampled_from(("--R0", "--R")))
        argv.append(f"{flag}={_text(draw(_radii))}")
    if draw(st.booleans()):
        flag = draw(st.sampled_from(_PHYSICS_FLAGS))
        argv.append(f"{flag}={_text(draw(_values))}")
    return level, order, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _printed_numbers(stdout):
    for line in stdout.splitlines():
        name, _, rest = line.partition("=")
        if name.strip() in ("p", "ux", "uy"):
            yield from (float(v.rstrip("j")) for v in rest.split())
        elif line.startswith("oracle "):
            yield float(line.rsplit("r=", 1)[1])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(oracle_argv())
def test_oracle_exit_code_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        numbers = list(_printed_numbers(out))
        assert numbers and np.all(np.isfinite(numbers)), (argv, out)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(solve_argv())
def test_solve_exit_code_contract(case):
    level, argv = case
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert level in (0, 1) and "err_h0=" in out, (argv, out)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(mesh_dump_argv())
def test_mesh_dump_exit_code_contract(case):
    level, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        code, out, err = _run([*argv, f"--output={path}"])
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if code == 0:
            assert level in (0, 1) and os.path.exists(path), (argv, out)


def _run_study(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "study.csv")
        code, out, err = _run([*argv, f"--output={path}"])
        rows = None
        if os.path.exists(path):
            with open(path) as fh:
                rows = [ln for ln in fh.read().splitlines()[1:]
                        if not ln.startswith("#")]
    return code, out, err, rows


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(study_argv("convergence", "--order"))
def test_convergence_exit_code_contract(case):
    level, order, argv = case
    code, out, err, rows = _run_study(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert level == 1 and order >= 0 and len(rows) == 1, (argv, out)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(study_argv("truncation", "--n-max"))
def test_truncation_exit_code_contract(case):
    level, n_max, argv = case
    code, out, err, rows = _run_study(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert level == 1 and n_max >= 1 and len(rows) == n_max, (argv, out)
