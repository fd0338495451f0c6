"""Batch driver: convergence studies, preconditioner comparisons, mesh info.

Subcommands: converge, precond, info, solve. All results go to CSV on
stdout or to --out; every CSV starts with a comment line embedding the
full configuration, and identical configurations (including the seed)
produce byte-identical output; precond --out adds <out>.history.csv.
Exit codes: 0 success, 1 usage error or a file that cannot be read or
written, 2 numerical failure or out of memory; errors are one stderr line.

Option precedence: command-line flags > --config file > the flags'
defaults. Each key=value line of the config file is read as the flag
--key=value, ahead of the command line's flags, and argparse keeps the last
value of a flag; so config keys get the flags' types, choices and range
checks (tau, nu and tol positive and finite, counts at least 1, the seed
non-negative, a valid --parts spec) and accept the same prefixes.
converge, precond and solve share their problem flags and one set-up
path (_solved).
"""

import argparse
import math
import sys

import numpy as np

from . import krylov, mesh, schwarz, system, verify
from .fem_space import FIXES, build_dof_map
from .verify import CASE_BC


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, rule):
    """argparse type: convert, then reject values that break rule."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # a non-number reads "invalid int value"
    return parse


_at_least_one = _checked(int, lambda v: v >= 1, "at least 1")
_non_negative = _checked(int, lambda v: v >= 0, "non-negative")
_positive = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")


def _parts(text):
    try:
        schwarz.parse_strategy(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _build_parser():
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--case", choices=sorted(CASE_BC))
    problem.add_argument("--eps", type=int, choices=[-1, 1], default=-1)
    problem.add_argument("--tau", type=_positive, default=6.0)
    problem.add_argument("--nu", type=_positive, default=1.0)
    problem.add_argument("--out")
    problem.add_argument("--config")
    bc = argparse.ArgumentParser(add_help=False)
    bc.add_argument("--bc", choices=list(FIXES))

    p = _Parser(prog="hdgstokes")
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("converge", parents=[problem, bc],
                       description="manufactured-solution convergence study")
    c.add_argument("--n0", type=_at_least_one, default=8)
    c.add_argument("--levels", type=_at_least_one, default=4)

    q = sub.add_parser("precond", parents=[problem, bc],
                       description="GMRES preconditioner comparison")
    q.add_argument("--n", type=_at_least_one)
    q.add_argument("--parts", type=_parts, default="uniform:2x2")
    q.add_argument("--overlap", type=_at_least_one, default=1)
    q.add_argument("--precond", choices=["ras", *(f"mras-{k}" for k in FIXES), "none"],
                   default="ras")
    q.add_argument("--tol", type=_positive, default=1e-6)
    q.add_argument("--max-iter", type=_at_least_one, default=400)
    q.add_argument("--seed", type=_non_negative, default=0)
    q.add_argument("--guess", choices=["random", "zero"], default="random")

    i = sub.add_parser("info", description="mesh and dof statistics")
    i.add_argument("--domain", choices=["unit_square", "t_shape"], default="unit_square")
    i.add_argument("--n", type=_at_least_one, required=True)
    i.add_argument("--bc", choices=list(FIXES), default="tvnf")

    s = sub.add_parser("solve", parents=[problem], description="solve one case, export fields")
    s.add_argument("--domain", choices=["unit_square"], default="unit_square")
    s.add_argument("--n", type=_at_least_one)
    return p


def _read_config(path):
    """The lines of a key=value config file as --key=value flags."""
    with open(path) as f:
        lines = f.read().splitlines()
    flags = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: bad config line {line!r}")
        k, _, v = line.partition("=")
        flags.append(f"--{k.strip().replace('_', '-')}={v.strip()}")
    return flags


def _paired(args):
    """args with bc set by the case, if one is given; another bc is a UsageError."""
    bc = CASE_BC.get(getattr(args, "case", None))
    if bc is not None:
        if getattr(args, "bc", None) not in (None, bc):
            raise UsageError(f"case {args.case} pairs with {bc.upper()} boundary "
                             f"conditions, not {args.bc}")
        args.bc = bc
    return args


def _parse(parser, argv):
    """The options of argv as a dict: flags > config file > defaults. The
    config flags are parsed (and paired) alone first, so that an error names
    the file. --case and --n are required where a subcommand has them."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):  # info has no --config
        flags = _read_config(args.config)
        try:
            if _paired(parser.parse_args([args.command, *flags])).config is not None:
                raise UsageError("a config file cannot name another one")
        except UsageError as err:
            raise UsageError(f"{args.config}: {err}") from None
        args = parser.parse_args([args.command, *flags, *argv[1:]])
    for key in ("n", "case"):
        if getattr(args, key, 0) is None:
            raise UsageError(f"--{key} is required")
    return vars(_paired(args))


def _fmt(x):
    return repr(float(x))


def _config_comment(cmd, cfg):
    body = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)
                    if k not in ("out", "config"))
    return f"# config: command={cmd} {body}\n"


def _emit(text, out):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _solved(cfg, T):
    """(exact, sysm, x_ref): cfg's manufactured case, its system assembled
    on T and the reference solve."""
    exact = verify.catalogue(cfg["case"], nu=cfg["nu"])
    dm = build_dof_map(T, cfg["bc"])
    sysm = system.assemble(T, dm, nu=cfg["nu"], tau=cfg["tau"], eps=cfg["eps"],
                           f=exact.f, g=exact.g)
    return exact, sysm, system.solve_direct(sysm)


def run_converge(cfg):
    T = mesh.generate("unit_square", cfg["n0"])
    reports = []
    for level in range(cfg["levels"]):
        if level:
            T = mesh.refine_uniform(T)
        exact, sysm, x = _solved(cfg, T)
        reports.append(verify.error_norms(T, sysm.dofmap, x, exact, tau=cfg["tau"]))
    hs = [r.h for r in reports]
    eoc_e = verify.eoc([r.err_energy for r in reports], hs)
    eoc_u = verify.eoc([r.err_l2_u for r in reports], hs)
    lines = [_config_comment("converge", cfg),
             "h,err_energy,err_h,err_l2_u,err_l2_p,eoc_energy,eoc_l2_u\n"]
    for r, se, su in zip(reports, eoc_e, eoc_u):
        lines.append(",".join(_fmt(v) for v in
                              (r.h, r.err_energy, r.err_h, r.err_l2_u,
                               r.err_l2_p, se, su)) + "\n")
    _emit("".join(lines), cfg["out"])
    return reports


def run_precond(cfg):
    T = mesh.generate("unit_square", cfg["n"])
    _, sysm, x_ref = _solved(cfg, T)

    if cfg["precond"] == "none":
        apply_M, n_parts = None, 0
    else:
        try:
            parts = schwarz.decompose(T, cfg["parts"])
        except ValueError as err:
            raise UsageError(f"--parts: {err}") from None
        dec = schwarz.build_decomposition(T, sysm.dofmap, parts, cfg["overlap"])
        n_parts = dec.n_parts
        if cfg["precond"] == "ras":
            pre = schwarz.build_ras(sysm, dec)
        else:
            pre = schwarz.build_mras(sysm, dec, cfg["precond"].split("-")[1])
        apply_M = pre.apply

    if cfg["guess"] == "random":
        rng = np.random.default_rng(cfg["seed"])
        x0 = rng.standard_normal(len(sysm.rhs))
    else:
        x0 = np.zeros(len(sysm.rhs))
    x, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0, apply_M=apply_M,
                          tol=cfg["tol"], x_ref=x_ref, max_iter=cfg["max_iter"])
    lines = [_config_comment("precond", cfg),
             "N,kind,iterations,converged\n",
             f"{n_parts},{cfg['precond']},{rep.iterations},{int(rep.converged)}\n"]
    _emit("".join(lines), cfg["out"])
    if cfg["out"]:
        hist = [f"# stop=vs_reference tol={cfg['tol']!r} seed={cfg['seed']}\n", "iter,value\n"]
        hist += (f"{i},{_fmt(v)}\n" for i, v in enumerate(rep.history, start=1))
        _emit("".join(hist), cfg["out"] + ".history.csv")
    return rep


def run_info(cfg):
    try:
        T = mesh.generate(cfg["domain"], cfg["n"])
    except ValueError as err:
        raise UsageError(str(err)) from None
    dm = build_dof_map(T, cfg["bc"])
    print(f"triangles={T.n_triangles} edges={T.n_edges} dofs={dm.n_total}")
    return T, dm


def run_solve(cfg):
    T = mesh.generate("unit_square", cfg["n"])
    _, sysm, x = _solved(cfg, T)
    dm = sysm.dofmap
    centers = T.barycenters()
    uh = verify.velocity_at(T, dm, x, centers[:, None, :])[:, 0, :]
    pres = x[dm.pres_dof(np.arange(dm.n_tris))]
    lines = [_config_comment("solve", cfg), "x,y,ux,uy,p\n"]
    for c, u, p in zip(centers, uh, pres):
        lines.append(",".join(_fmt(v) for v in (c[0], c[1], u[0], u[1], p)) + "\n")
    _emit("".join(lines), cfg["out"])


_RUN = dict(converge=run_converge, precond=run_precond, info=run_info, solve=run_solve)


def main(argv=None):
    parser = _build_parser()
    try:
        cfg = _parse(parser, sys.argv[1:] if argv is None else argv)
        _RUN[cfg.pop("command")](cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a file named by the user cannot be read or written
        print(f"error: cannot access {err.filename}: {err.strerror}", file=sys.stderr)
        return 1
    except (krylov.FactorizationError, mesh.MeshError, ValueError, MemoryError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
