"""Command-line front end: solve, convergence, truncation, oracle, mesh-dump.

Configuration comes from built-in defaults, overridden by an optional
key=value config file (# comments allowed), overridden by command-line flags.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import analytic
from .harness import (StudyConfig, build_mesh_pair, convergence_study,
                      run_single, truncation_study, write_csv)
from .mesh import mesh_size, save_mesh
from .solve import SingularSystemError, evaluate_field

_CONFIG_KEYS = {
    "lambda": ("lam", float),
    "mu": ("mu", float),
    "rho": ("rho", float),
    "rho_f": ("rho_f", float),
    "omega": ("omega", float),
    "R0": ("R0", float),
    "R": ("R", float),
    "k": ("k_values", "floats"),
    "N": ("N", int),
    "N_max": ("N_max", int),
    "d": ("d", "floats"),
    "n_angular": ("n_angular", int),
    "levels": ("levels", "ints"),
    "modes": ("modes", int),
    "output": ("output", str),
}


# The field grid costs 34-37 us a point at levels 0-2 and 53-57 us at level
# 4 (README): the largest grid takes about 9 s and 14 s.
MAX_GRID_POINTS = 250_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the interface contract wants 1.  A
    negative number in exponent notation, such as -1e-5, is a value: the
    stock pattern takes it for an option.  Subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_list(text, cast):
    return tuple(cast(part) for part in str(text).split(",") if part != "")


def read_config_file(path) -> dict:
    """Flat key = value text, '#' comments; keys set StudyConfig fields."""
    values = {}
    try:
        fh = open(path)
    except OSError:
        raise ValueError(f"config file not found: {path}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            dest, kind = _CONFIG_KEYS[key]
            try:
                if kind == "floats":
                    values[dest] = _parse_list(val, float)
                elif kind == "ints":
                    values[dest] = _parse_list(val, int)
                else:
                    values[dest] = kind(val)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad value {val!r} for {key}") from None
    return values


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--output", help="CSV output path")
    sub.add_argument("--lam", "--lambda", dest="lam", type=float)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--rho", type=float)
    sub.add_argument("--rho-f", dest="rho_f", type=float)
    sub.add_argument("--omega", type=float)
    sub.add_argument("--R0", type=float)
    sub.add_argument("--R", type=float)
    sub.add_argument("--d", help="incident direction, e.g. '1,0'")
    sub.add_argument("--n-angular", dest="n_angular", type=int)
    sub.add_argument("--modes", type=int, help="upper bound on oracle modes")


def _study_config(args) -> StudyConfig:
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for name in ("lam", "mu", "rho", "rho_f", "omega", "R0", "R",
                 "n_angular", "modes", "output"):
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    if getattr(args, "d", None) is not None:
        values["d"] = _parse_list(args.d, float)
    if getattr(args, "k", None) is not None:
        values["k_values"] = (args.k,)
    if getattr(args, "order", None) is not None:
        values["N"] = args.order
    if getattr(args, "levels", None) is not None:
        values["levels"] = tuple(range(1, args.levels + 1))
    n_max = values.pop("N_max", None)
    if getattr(args, "n_max", None) is not None:
        n_max = args.n_max
    if n_max is not None:
        values["n_values"] = tuple(range(1, n_max + 1))
    return StudyConfig(**values)


def _print(line):
    print(line, flush=True)


def cmd_solve(args) -> int:
    if args.grid < 0 or 4 * args.grid ** 2 > MAX_GRID_POINTS:
        raise ValueError(f"--grid {args.grid}: the field grid has 4*grid^2 "
                         f"points, which must be 0 to {MAX_GRID_POINTS}")
    cfg = _study_config(args)
    k = cfg.k_values[0]
    report, sol, exact = run_single(cfg, k, cfg.N, args.level)
    _print(f"solve k={k:g} N={cfg.N} h={report.h:.6g} dofs={report.dofs} "
           f"err_h0={report.err_h0:.6e} err_h1={report.err_h1:.6e} "
           f"residual={sol.residual:.3e} ({report.seconds:.2f}s)")
    if cfg.output:
        write_csv(cfg.output, [report])
    if args.grid:
        _write_field_grid(args.grid_path, sol, exact, args.grid)
        _print(f"field grid -> {args.grid_path}")
    return 0


def _write_field_grid(path, sol, exact, n_radial):
    """Point-value dump of |u_x|, |u_y|, |p| for the FE and oracle fields."""
    cfg = sol.config
    # sample points must stay inside the polygonal meshes (apothem < radius)
    sectors = len(sol.disc_mesh.boundary_tags)
    apothem = np.cos(np.pi / max(8, sectors))
    rows = ["region,x,y,abs_ux_fem,abs_uy_fem,abs_p_fem,"
            "abs_ux_exact,abs_uy_exact,abs_p_exact"]
    thetas = np.linspace(0.0, 2 * np.pi, 2 * n_radial, endpoint=False)
    # FE and oracle magnitudes fill the region's columns, the rest stay nan
    for region, field, cols, oracle, r_lo, r_hi in (
            ("solid", "u", [0, 1], analytic.eval_displacement, 0.0,
             cfg.R0 * apothem * 0.999),
            ("fluid", "p", [2], analytic.eval_pressure, cfg.R0 * 1.001,
             cfg.R * apothem * 0.999)):
        radii = r_lo + (r_hi - r_lo) * (np.arange(n_radial) + 0.5) / n_radial
        r, th = (a.ravel() for a in np.meshgrid(radii, thetas, indexing="ij"))
        exact_abs = np.abs(oracle(exact, r, th)).reshape(r.size, -1)
        for i in range(r.size):
            x, y = r[i] * np.cos(th[i]), r[i] * np.sin(th[i])
            vals = np.full(6, np.nan)
            vals[cols] = np.abs(evaluate_field(sol, (x, y), field))
            vals[[c + 3 for c in cols]] = exact_abs[i]
            rows.append(f"{region},{x:.8g},{y:.8g}," +
                        ",".join(f"{v:.8g}" for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def cmd_convergence(args) -> int:
    cfg = _study_config(args)
    result = convergence_study(cfg)
    out = cfg.output or "convergence.csv"
    write_csv(out, result.reports, result.footer())
    for k, (o0, o1) in result.orders.items():
        _print(f"convergence k={k:g} levels={len(cfg.levels)} "
               f"order_h0={o0:.3f} order_h1={o1:.3f} -> {out}")
    if not result.orders:
        _print(f"convergence single level -> {out}")
    return 0


def cmd_truncation(args) -> int:
    cfg = _study_config(args)
    result = truncation_study(cfg)
    out = cfg.output or "truncation.csv"
    write_csv(out, result.reports, result.footer())
    for p in result.plateaus:
        _print(f"truncation k={p.k:g} h={p.h:.4g} plateau_N={p.n_star} "
               f"plateau_err_h0={p.plateau_err:.6e} -> {out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _study_config(args)
    k = cfg.k_values[0]
    x, y = args.point
    if not np.all(np.isfinite(args.point)):
        raise ValueError("point coordinates must be finite")
    exact = analytic.solve_modes(cfg.physical(k), n_modes=cfg.modes)
    r, th = float(np.hypot(x, y)), float(np.arctan2(y, x))
    values = {}
    if r >= cfg.R0 * (1 - 1e-12):
        values["p "] = analytic.eval_pressure(exact, r, th)
    if r <= cfg.R0 * (1 + 1e-12):
        values["ux"], values["uy"] = analytic.eval_displacement(exact, r, th)
    if not values:
        raise ValueError(f"point ({x:g}, {y:g}) lies in neither region")
    if not np.all(np.isfinite([r, *values.values()])):
        raise FloatingPointError(f"oracle value at ({x:g}, {y:g}) is not "
                                 "finite")
    _print(f"oracle k={k:g} modes={exact.n_modes} point=({x:g}, {y:g}) "
           f"r={r:.6g}")
    for name, v in values.items():
        _print(f"  {name} = {v.real:+.12e} {v.imag:+.12e}j")
    return 0


def cmd_mesh_dump(args) -> int:
    cfg = _study_config(args)
    disc, annulus = build_mesh_pair(cfg.R0, cfg.R, cfg.n_angular, args.refine)
    mesh = disc if args.region == "disc" else annulus
    out = cfg.output or "mesh.txt"
    save_mesh(mesh, out)
    _print(f"mesh region={args.region} nodes={mesh.num_nodes} "
           f"triangles={mesh.num_triangles} h={mesh_size(mesh):.6g} -> {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dtnfem",
                     description="Fluid-solid scattering solver with a "
                                 "truncated DtN absorbing boundary")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="single solve + errors")
    _add_common(sub)
    sub.add_argument("--k", type=float)
    sub.add_argument("--order", type=int, help="DtN truncation order N")
    sub.add_argument("--level", type=int, default=2,
                     help="refinements of the coarse mesh pair")
    sub.add_argument("--grid", type=int, default=0,
                     help="also dump an n x 2n polar field grid")
    sub.add_argument("--grid-path", default="fields.csv")
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("convergence", help="h-refinement study")
    _add_common(sub)
    sub.add_argument("--k", type=float)
    sub.add_argument("--order", type=int, help="fixed DtN order N")
    sub.add_argument("--levels", type=int, help="number of refinement levels")
    sub.set_defaults(func=cmd_convergence)

    sub = subs.add_parser("truncation", help="DtN order study")
    _add_common(sub)
    sub.add_argument("--k", type=float)
    sub.add_argument("--levels", type=int)
    sub.add_argument("--n-max", dest="n_max", type=int,
                     help="sweep N = 1..n_max")
    sub.set_defaults(func=cmd_truncation)

    sub = subs.add_parser("oracle", help="evaluate the analytic solution")
    _add_common(sub)
    sub.add_argument("--k", type=float)
    sub.add_argument("--point", type=float, nargs=2, required=True,
                     metavar=("X", "Y"))
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("mesh-dump", help="write a mesh in text format")
    _add_common(sub)
    sub.add_argument("--region", choices=("disc", "annulus"), default="disc")
    sub.add_argument("--refine", type=int, default=0)
    sub.set_defaults(func=cmd_mesh_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"dtnfem: configuration error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, analytic.SingularModeError,
            ArithmeticError) as exc:
        print(f"dtnfem: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
