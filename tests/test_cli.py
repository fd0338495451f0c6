import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes import fem_space, krylov, mesh, schwarz
from hdgstokes.cli import main


def test_info_output(capsys):
    assert main(["info", "--domain", "unit_square", "--n", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "triangles=2 edges=5 dofs=17"


def test_info_t_shape(capsys):
    assert main(["info", "--domain", "t_shape", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("triangles=16 ")


def test_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--case", "bubble", "--bc", "nvtf", "--n0", "2",
               "--levels", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: command=converge")
    assert "case=bubble" in lines[0]
    assert lines[1] == "h,err_energy,err_h,err_l2_u,err_l2_p,eoc_energy,eoc_l2_u"
    assert len(lines) == 4
    last = lines[3].split(",")
    assert 0.5 < float(last[5]) < 1.6  # energy order heading to 1


def test_converge_stdout_matches_out_file(tmp_path, capsys):
    args = ["converge", "--case", "bubble", "--n0", "2", "--levels", "2"]
    out = tmp_path / "c.csv"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_converge_refines_only_between_levels(monkeypatch):
    calls = []
    refine = mesh.refine_uniform
    monkeypatch.setattr(mesh, "refine_uniform", lambda T: calls.append(1) or refine(T))
    assert main(["converge", "--case", "bubble", "--n0", "2", "--levels", "3",
                 "--out", os.devnull]) == 0
    assert len(calls) == 2


def test_converge_rejects_bad_pairing(capsys):
    assert main(["converge", "--case", "bubble", "--bc", "tvnf"]) == 1
    assert "pairs with" in capsys.readouterr().err


def test_converge_requires_case(capsys):
    assert main(["converge"]) == 1


def test_usage_error_exit_code():
    assert main(["converge", "--case", "nonsense"]) == 1


def singular_stand_in(sysm, dec, i, ic):
    """A local matrix of the subdomain's size, diagonal with one 1e-16 pivot."""
    d = np.ones(len(dec.dofs[i]))
    d[1] = 1e-16
    return sp.diags(d, format="csr")


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # a singular local matrix is rejected when its factor is set up
    monkeypatch.setattr(schwarz, "mras_local_matrix", singular_stand_in)
    assert main(["precond", "--case", "bubble", "--n", "4", "--parts", "uniform:2x2",
                 "--precond", "mras-tvnf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: MRAS-tvnf subdomain 0: ")
    assert "singular to working precision" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_out_of_memory_is_numerical_failure(monkeypatch, capsys):
    def gmres(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    monkeypatch.setattr(krylov, "gmres", gmres)
    assert main(["precond", "--case", "bubble", "--n", "2", "--max-iter", "1000000"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "numerical failure: Unable to allocate 7.28 TiB for an array"


@pytest.mark.parametrize("case,kind,parts", [("bubble", "mras-tvnf", "1x4"),
                                              ("curl_trig", "mras-nvtf", "4x1")])
def test_mras_kernel_strip_is_numerical_failure(capsys, case, kind, parts):
    # a middle strip touches Gamma on two ends only, where the global kind fixes
    # the same component of a constant velocity as the interface kind
    assert main(["precond", "--case", case, "--n", "16", "--parts", f"uniform:{parts}",
                 "--precond", kind]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: MRAS-{kind[5:]} subdomain 1: ")
    assert "constant velocity" in line


@pytest.mark.parametrize("case,kind,iters", [("bubble", "mras-nvtf", (31, 31)),
                                             ("bubble", "ras", (31, 31)),
                                             ("curl_trig", "mras-tvnf", (27, 26))])
def test_sound_strip_iterations(tmp_path, case, kind, iters):
    for parts, want in zip(("1x4", "4x1"), iters):
        out = tmp_path / "p.csv"
        assert main(["precond", "--case", case, "--n", "16", "--parts", f"uniform:{parts}",
                     "--precond", kind, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == f"4,{kind},{want},1"


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_nan_reference_residual_is_numerical_failure(capsys):
    rc = main(["converge", "--case", "curl_trig", "--nu", "1e-300", "--n0", "2",
               "--levels", "1", "--out", os.devnull])
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: ") and "residual nan" in line


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_overflowing_local_factor_check_is_one_line(capsys):
    # at nu = 1e300 the set-up check of the local factors overflows to inf
    assert main(["precond", "--case", "bubble", "--n", "4", "--nu", "1e300"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "numerical failure: RAS subdomain 0: matrix is singular to working precision"


@pytest.mark.filterwarnings("error")
def test_huge_viscosity_reference_solve_is_quiet(capsys):
    # ||b||_2 overflows at nu = 1e300; the refinement test scales r and b by
    # max|b| first, so it neither warns nor compares inf <= inf
    assert main(["converge", "--case", "bubble", "--nu", "1e300", "--n0", "2",
                 "--levels", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[1] == "h,err_energy,err_h,err_l2_u,err_l2_p,eoc_energy,eoc_l2_u"
    np.testing.assert_allclose(
        [float(v) for v in lines[2].split(",")],
        [0.7071067811865476, 2.222719032545624e+149, 2.222719032545624e+149,
         0.006193782930172519, 0.408248290463863, np.nan, np.nan], rtol=1e-12)


def test_history_csv(tmp_path):
    # precond --out writes the GMRES history next to its CSV: the stop rule,
    # tol and seed, then one iter,value row per iteration
    out = tmp_path / "p.csv"
    assert main(["precond", "--case", "bubble", "--n", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2] == "4,ras,6,1"
    lines = (tmp_path / "p.csv.history.csv").read_text().splitlines()
    assert lines[:2] == ["# stop=vs_reference tol=1e-06 seed=0", "iter,value"]
    rows = [line.split(",") for line in lines[2:]]
    assert [int(i) for i, _ in rows] == list(range(1, 7))
    assert all(v == repr(float(v)) for _, v in rows)
    np.testing.assert_allclose(
        [float(v) for _, v in rows],
        [0.505379519834465, 0.024109217339675987, 0.0010394624767802213,
         6.099641311818644e-05, 3.4331907361883055e-06, 1.1979633344138928e-07], rtol=1e-6)


@pytest.mark.parametrize("parts,n_parts,precond,counts", [
    ("uniform:4x4", 16, "ras", (69, 70, 69)), ("uniform:2x2", 4, "mras-tvnf", (48, 48, 48))],
    ids=["ras-4x4", "mras-tvnf-2x2"])
def test_benchmark_iteration_counts(tmp_path, parts, n_parts, precond, counts):
    # the benchmark's two precond workloads at seeds 0, 1 and 2: a change
    # that keeps the solver's arithmetic keeps these counts exactly
    for seed, count in enumerate(counts):
        out = tmp_path / f"{seed}.csv"
        assert main(["precond", "--case", "bubble", "--n", "32", "--parts", parts,
                     "--overlap", "1", "--precond", precond, "--tol", "1e-6",
                     "--guess", "random", "--seed", str(seed), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == f"{n_parts},{precond},{count},1"


def test_precond_single_subdomain(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["precond", "--case", "poiseuille", "--n", "4", "--parts",
               "uniform:1x1", "--precond", "ras", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "N,kind,iterations,converged"
    n, kind, iters, conv = lines[2].split(",")
    assert (n, kind, conv) == ("1", "ras", "1")
    assert int(iters) <= 2
    hist = (tmp_path / "p.csv.history.csv").read_text().splitlines()
    assert hist[0].startswith("# stop=vs_reference")
    assert "seed=3" in hist[0]
    assert len(hist) == 2 + int(iters)


def test_precond_none_from_zero_guess(monkeypatch, tmp_path):
    # --precond none runs GMRES unpreconditioned and reports N = 0;
    # --guess zero starts it from x0 = 0
    seen = {}
    gmres = krylov.gmres

    def spy(apply_A, b, x0=None, apply_M=None, **kw):
        seen.update(x0=x0, apply_M=apply_M)
        return gmres(apply_A, b, x0=x0, apply_M=apply_M, **kw)

    monkeypatch.setattr(krylov, "gmres", spy)
    out = tmp_path / "p.csv"
    assert main(["precond", "--case", "bubble", "--n", "4", "--precond", "none",
                 "--guess", "zero", "--out", str(out)]) == 0
    assert seen["apply_M"] is None
    assert seen["x0"].shape == (201,) and not seen["x0"].any()
    lines = out.read_text().splitlines()
    assert "guess=zero" in lines[0]
    n, kind, iters, conv = lines[2].split(",")
    assert (n, kind, conv) == ("0", "none", "1")
    hist = (tmp_path / "p.csv.history.csv").read_text().splitlines()
    assert len(hist) == 2 + int(iters)


def test_precond_single_subdomain_factors_at_n64(tmp_path):
    # the whole n = 64 NVTF matrix is nonsingular: the residual of its set-up
    # solve grows with its conditioning (1.1e-10), its backward error does not
    out = tmp_path / "p.csv"
    assert main(["precond", "--case", "bubble", "--n", "64", "--parts", "uniform:1x1",
                 "--precond", "ras", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2] == "1,ras,1,1"


@pytest.mark.parametrize("kind", ["ras", "mras-tvnf"])
def test_precond_computes_dissection_order_once(monkeypatch, tmp_path, kind):
    # one order serves the reference factor and every Schwarz local factor
    calls = []
    original = fem_space.dissection_order

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hdgstokes") and getattr(mod, "dissection_order", None) is original:
            monkeypatch.setattr(mod, "dissection_order", counted)
    assert main(["precond", "--case", "bubble", "--n", "8", "--precond", kind,
                 "--out", str(tmp_path / "p.csv")]) == 0
    assert len(calls) == 1


def test_precond_deterministic_output(tmp_path):
    args = ["precond", "--case", "bubble", "--n", "8", "--parts", "uniform:2x2",
            "--precond", "mras-nvtf", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.history.csv").read_bytes() == \
        (tmp_path / "b.csv.history.csv").read_bytes()


def test_solve_csv_and_tshape_rejection(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["solve", "--case", "poiseuille", "--n", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x,y,ux,uy,p"
    assert len(lines) == 2 + 8
    # barycentre velocities of the poiseuille flow: ux ~ 4y(1-y), uy ~ 0
    row = lines[2].split(",")
    x, y, ux, uy, p = map(float, row)
    assert abs(ux - 4 * y * (1 - y)) < 0.3  # coarse-mesh tolerance
    assert abs(uy) < 0.05

    assert main(["solve", "--case", "poiseuille", "--n", "2",
                 "--domain", "t_shape"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"  # comments and blank lines are skipped
    cfg.write_text("# study\ncase=bubble\n\nbc=nvtf\n  # indented\nn0 = 2\n   \nlevels=3\n")
    out1 = tmp_path / "c1.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(out1.read_text().splitlines()) == 2 + 3
    out2 = tmp_path / "c2.csv"
    assert main(["converge", "--config", str(cfg), "--levels", "2",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 2 + 2
    # flag > config > default, for an int, a float, a choice and --parts
    required = {"converge": "case=bubble\nn0=2\n", "precond": "case=bubble\nn=2\n"}
    for command, key, default, in_config, flag in [
            ("converge", "levels", "4", "1", "2"),
            ("converge", "tau", "6.0", "3.0", "4.0"),
            ("precond", "precond", "ras", "mras-nvtf", "none"),
            ("precond", "parts", "uniform:2x2", "uniform:1x2", "bisect:3")]:
        for lines, flags, want in [("", [], default),
                                   (f"{key}={in_config}\n", [], in_config),
                                   (f"{key}={in_config}\n", [f"--{key}", flag], flag)]:
            cfg.write_text(required[command] + lines)
            assert main([command, "--config", str(cfg), *flags]) == 0
            words = capsys.readouterr().out.splitlines()[0].split()
            assert f"{key}={want}" in words, (command, lines, flags)


@pytest.mark.parametrize("argv,line", [
    (["converge", "--case", "bubble"],
     "# config: command=converge bc=nvtf case=bubble eps=-1 levels=4 n0=8 nu=1.0 tau=6.0"),
    (["precond", "--case", "bubble", "--n", "2"],
     "# config: command=precond bc=nvtf case=bubble eps=-1 guess=random max_iter=400 n=2 "
     "nu=1.0 overlap=1 parts=uniform:2x2 precond=ras seed=0 tau=6.0 tol=1e-06"),
    (["solve", "--case", "poiseuille", "--n", "1"],
     "# config: command=solve bc=tvnf case=poiseuille domain=unit_square eps=-1 n=1 nu=1.0 "
     "tau=6.0"),
], ids=["converge", "precond", "solve"])
def test_defaults_in_config_comment(capsys, argv, line):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


@pytest.mark.parametrize("argv,rc,err", [
    (["info", "--n", "1"], 0, ""),
    (["precond", "--case", "bubble", "--n", "4", "--parts", "foo:1"], 1, "error: "),
    (["converge", "--case", "curl_trig", "--nu", "1e-300", "--n0", "2", "--levels", "1"],
     2, "numerical failure: "),
    (["solve", "--case", "poiseuille", "--n", "1", "--out", "nodir/f.csv"],
     1, "error: cannot access nodir/f.csv: "),
], ids=["ok", "usage", "numerical", "unwritable-out"])
def test_module_entry_point(tmp_path, argv, rc, err):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "hdgstokes.cli", *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == rc
    if rc:
        [line] = proc.stderr.splitlines()
        assert line.startswith(err)
    else:
        assert proc.stdout == "triangles=2 edges=5 dofs=17\n" and not proc.stderr


PRECOND = ["precond", "--case", "bubble", "--n", "4"]


@pytest.mark.parametrize("argv,config", [
    (["precond", "--config", "CFG"], "case=bubble\nn=4\nprecond=foo\n"),
    (["precond", "--config", "CFG"], "case=bubble\nn=abc\n"),
    (["precond", "--config", "CFG"], "case=bubble\nn=4\noverlpa=2\n"),
    (["converge", "--config", "MISSING"], None),
    (PRECOND + ["--parts", "uniform:0x2"], None),
    (PRECOND + ["--parts", "bisect:0"], None),
    (PRECOND + ["--parts", "uniform:2"], None),
    (["precond", "--case", "bubble", "--n", "2", "--parts", "uniform:8x8"], None),
    (PRECOND + ["--parts", "bisect:40"], None),
    (PRECOND + ["--overlap", "0"], None),
    (["info", "--n", "0"], None),
    (["info", "--domain", "t_shape", "--n", "3"], None),
    (PRECOND + ["--parts", "file:MISSING"], None),
    (PRECOND + ["--parts", "file:CFG"], "0\n1\n"),
    (["converge", "--case", "bubble", "--levels", "0"], None),
    (["converge", "--case", "bubble", "--tau", "-1"], None),
    (["converge", "--case", "bubble", "--tau", "inf"], None),
    (PRECOND + ["--tol", "inf"], None),
    (["converge", "--config", "CFG"], "case=bubble\nnu=nan\n"),
    (["precond", "--config", "CFG"], "case=bubble\nn=4\noverlap=0\n"),
    (PRECOND + ["--seed", "-1"], None),
    (PRECOND + ["--parts", "uniform:100000000x100000000"], None),
    (PRECOND + ["--parts", "bisect:10000000000000000"], None),
    (PRECOND + ["--parts", "file:CFG"], ""),
    (PRECOND + ["--parts", "file:CFG"], "-1\n" * 32),
    (["converge", "--config", "CFG"], "case=bubble\nlevels 2\n"),
    (["converge", "--config", "CFG"], "case=bubble\nconfig=x\n"),
    (["converge", "--config", "CFG"], "case=bubble\nn=4\n"),
    (PRECOND + ["--parts", "foo:1"], None),
    (PRECOND + ["--parts", "file:"], None),
    (["converge", "--config", "CFG"], "case=bubble\nbc=tvnf\n"),
    (["converge", "--case", "bubble", "--n0", "2", "--levels", "1", "--out", "TMP/no/x.csv"],
     None),
    (["precond", "--case", "bubble", "--n", "2", "--out", "TMP"], None),
    (["solve", "--case", "poiseuille", "--n", "2", "--out", "TMP/no/f.csv"], None),
], ids=["config-bad-choice", "config-bad-int", "config-unknown-key", "config-missing",
        "parts-uniform-0", "parts-bisect-0", "parts-malformed", "parts-uniform-empty",
        "parts-bisect-empty", "overlap-0", "info-n-0",
        "info-t-shape-odd", "parts-file-missing", "parts-file-short", "levels-0",
        "tau-negative", "tau-inf", "tol-inf", "config-nu-nan", "config-overlap-0",
        "seed-negative", "parts-uniform-huge", "parts-bisect-huge", "parts-file-empty",
        "parts-file-negative", "config-no-equals", "config-key-config",
        "config-ambiguous-key", "parts-unknown", "parts-file-no-path", "config-bad-pairing",
        "out-missing-dir-converge", "out-onto-dir-precond", "out-missing-dir-solve"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, config):
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    argv = [a.replace("CFG", str(cfg)).replace("MISSING", str(tmp_path / "none.cfg"))
            .replace("TMP", str(tmp_path)) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--config" in argv:  # an error in or about the config file names it
        assert argv[argv.index("--config") + 1] in err
    if "--out" in argv:
        assert err.startswith(f"error: cannot access {argv[argv.index('--out') + 1]}: ")
    if "file:" in argv:  # no path is a malformed spec, not a file that cannot be read
        assert "malformed partition strategy 'file:'" in err
