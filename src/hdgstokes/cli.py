"""Batch driver: convergence studies, preconditioner comparisons, mesh info.

Subcommands: converge, precond, info, solve. All results go to CSV on
stdout or to --out; every CSV starts with a comment line embedding the
full configuration, and identical configurations (including the seed)
produce byte-identical output. Exit codes: 0 success, 1 usage error,
2 numerical failure.

Option precedence: command-line flags > --config file (key=value lines)
> defaults (tau=6, nu=1, eps=-1, tol=1e-6, overlap=1).
"""

import argparse
import sys

import numpy as np

from . import krylov, mesh, schwarz, system, verify
from .fem_space import build_dof_map
from .verify import CASE_BC


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    p = _Parser(prog="hdgstokes")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("converge", description="manufactured-solution convergence study")
    c.add_argument("--case", choices=sorted(CASE_BC))
    c.add_argument("--bc", choices=["tvnf", "nvtf"])
    c.add_argument("--eps", type=int, choices=[-1, 1])
    c.add_argument("--tau", type=float)
    c.add_argument("--nu", type=float)
    c.add_argument("--n0", type=int)
    c.add_argument("--levels", type=int)
    c.add_argument("--out")
    c.add_argument("--config")

    q = sub.add_parser("precond", description="GMRES preconditioner comparison")
    q.add_argument("--case", choices=sorted(CASE_BC))
    q.add_argument("--bc", choices=["tvnf", "nvtf"])
    q.add_argument("--eps", type=int, choices=[-1, 1])
    q.add_argument("--tau", type=float)
    q.add_argument("--nu", type=float)
    q.add_argument("--n", type=int)
    q.add_argument("--parts")
    q.add_argument("--overlap", type=int)
    q.add_argument("--precond", choices=["ras", "mras-tvnf", "mras-nvtf", "none"])
    q.add_argument("--tol", type=float)
    q.add_argument("--max-iter", type=int)
    q.add_argument("--seed", type=int)
    q.add_argument("--guess", choices=["random", "zero"])
    q.add_argument("--out")
    q.add_argument("--config")

    i = sub.add_parser("info", description="mesh and dof statistics")
    i.add_argument("--domain", choices=["unit_square", "t_shape"], default="unit_square")
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--bc", choices=["tvnf", "nvtf"], default="tvnf")

    s = sub.add_parser("solve", description="solve one case, export fields")
    s.add_argument("--case", choices=sorted(CASE_BC))
    s.add_argument("--domain")
    s.add_argument("--n", type=int)
    s.add_argument("--eps", type=int, choices=[-1, 1])
    s.add_argument("--tau", type=float)
    s.add_argument("--nu", type=float)
    s.add_argument("--out")
    s.add_argument("--config")
    return p


_DEFAULTS = dict(tau=6.0, nu=1.0, eps=-1, tol=1e-6, overlap=1, n0=8, levels=4,
                 seed=0, guess="random", max_iter=400, parts="uniform:2x2",
                 precond="ras", domain="unit_square")
_AT_LEAST_ONE = ("n", "n0", "levels", "overlap", "max_iter")
_POSITIVE = ("tau", "nu", "tol")


def _flag(key):
    return "--" + key.replace("_", "-")


def _read_config(path):
    """(key, value) pairs of a key=value config file."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err.strerror}") from None
    pairs = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}")
        k, _, v = line.partition("=")
        pairs.append((k.strip(), v.strip()))
    return pairs


def _merge(parser, args):
    """flags > config file > defaults, then _validate.

    Config values are parsed by the same argparse flags, so they get the
    flags' types and choices; an unknown key is a usage error.
    """
    keys = [k for k in vars(args) if k not in ("command", "config")]
    cfg = {}
    path = getattr(args, "config", None)
    if path:
        argv = [args.command]
        for k, v in _read_config(path):
            if k not in keys:
                raise UsageError(f"{path}: unknown key {k!r}")
            argv.append(f"{_flag(k)}={v}")
        try:
            cfg = vars(parser.parse_args(argv))
        except UsageError as err:
            raise UsageError(f"{path}: {err}") from None
    out = {}
    for key in keys:
        v = getattr(args, key)
        if v is None:
            v = cfg.get(key)
        if v is None:
            v = _DEFAULTS.get(key)
        out[key] = v
    _validate(out)
    return out


def _validate(cfg):
    """Range checks on merged options; every violation is a usage error."""
    if "n" in cfg and cfg["n"] is None:
        raise UsageError("--n is required")
    for key in _AT_LEAST_ONE:
        if cfg.get(key) is not None and cfg[key] < 1:
            raise UsageError(f"{_flag(key)} must be at least 1, got {cfg[key]}")
    for key in _POSITIVE:
        if cfg.get(key) is not None and not cfg[key] > 0:
            raise UsageError(f"{_flag(key)} must be positive, got {cfg[key]}")
    if cfg.get("parts") is not None:
        try:
            schwarz.parse_strategy(cfg["parts"])
        except ValueError as err:
            raise UsageError(f"--parts: {err}") from None


def _check_case(cfg):
    if cfg["case"] is None:
        raise UsageError("--case is required")
    bc = CASE_BC[cfg["case"]]
    if cfg.get("bc") not in (None, bc):
        raise UsageError(f"case {cfg['case']} pairs with {bc.upper()} boundary "
                         f"conditions, not {cfg['bc']}")
    cfg["bc"] = bc
    return cfg


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


def run_converge(cfg):
    cfg = _check_case(cfg)
    exact = verify.catalogue(cfg["case"], nu=cfg["nu"])
    T = mesh.generate("unit_square", cfg["n0"])
    reports = []
    for level in range(cfg["levels"]):
        if level:
            T = mesh.refine_uniform(T)
        dm = build_dof_map(T, cfg["bc"])
        sysm = system.assemble(T, dm, nu=cfg["nu"], tau=cfg["tau"], eps=cfg["eps"],
                               f=exact.f, g=exact.g)
        x = system.solve_direct(sysm)
        reports.append(verify.error_norms(T, dm, x, exact, tau=cfg["tau"]))
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
    cfg = _check_case(cfg)
    exact = verify.catalogue(cfg["case"], nu=cfg["nu"])
    T = mesh.generate("unit_square", cfg["n"])
    dm = build_dof_map(T, cfg["bc"])
    sysm = system.assemble(T, dm, nu=cfg["nu"], tau=cfg["tau"], eps=cfg["eps"],
                           f=exact.f, g=exact.g)
    x_ref = system.solve_direct(sysm)

    if cfg["precond"] == "none":
        apply_M, n_parts = None, 0
    else:
        try:
            parts = schwarz.decompose(T, cfg["parts"])
        except (OSError, ValueError) as err:
            raise UsageError(f"--parts: {err}") from None
        dec = schwarz.build_decomposition(T, dm, parts, cfg["overlap"])
        n_parts = dec.n_parts
        if cfg["precond"] == "ras":
            pre = schwarz.build_ras(sysm, dec)
        else:
            pre = schwarz.build_mras(sysm, dec, cfg["precond"].split("-")[1])
        apply_M = pre.apply

    if cfg["guess"] == "random":
        rng = np.random.default_rng(cfg["seed"])
        x0 = rng.standard_normal(dm.n_total)
    else:
        x0 = np.zeros(dm.n_total)
    x, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0, apply_M=apply_M,
                          tol=cfg["tol"], x_ref=x_ref, max_iter=cfg["max_iter"])
    lines = [_config_comment("precond", cfg),
             "N,kind,iterations,converged\n",
             f"{n_parts},{cfg['precond']},{rep.iterations},{int(rep.converged)}\n"]
    _emit("".join(lines), cfg["out"])
    if cfg["out"]:
        krylov.write_history_csv(rep, cfg["out"] + ".history.csv", seed=cfg["seed"])
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
    if cfg["domain"] != "unit_square":
        raise UsageError(
            "solve supports the unit square only: the T-shaped benchmark mixes "
            "Dirichlet inflow with TVNF outflow, which is out of scope")
    cfg = _check_case(cfg)
    exact = verify.catalogue(cfg["case"], nu=cfg["nu"])
    T = mesh.generate("unit_square", cfg["n"])
    dm = build_dof_map(T, cfg["bc"])
    sysm = system.assemble(T, dm, nu=cfg["nu"], tau=cfg["tau"], eps=cfg["eps"],
                           f=exact.f, g=exact.g)
    x = system.solve_direct(sysm)
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
        args = parser.parse_args(argv)
        _RUN[args.command](_merge(parser, args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (krylov.FactorizationError, mesh.MeshError, ValueError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
