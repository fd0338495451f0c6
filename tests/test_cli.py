import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes import fem_space, mesh, schwarz
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


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # a singular local matrix is rejected when its factor is set up
    monkeypatch.setattr(schwarz, "mras_local_matrix",
                        lambda *args: sp.csr_matrix(np.diag([1.0, 1e-16])))
    assert main(["precond", "--case", "bubble", "--n", "4", "--parts", "uniform:2x2",
                 "--precond", "mras-tvnf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: MRAS-tvnf subdomain 0: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_nan_reference_residual_is_numerical_failure(capsys):
    rc = main(["converge", "--case", "curl_trig", "--nu", "1e-300", "--n0", "2",
               "--levels", "1", "--out", os.devnull])
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: ") and "residual nan" in line


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
    assert "out of scope" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=bubble\nbc=nvtf\nn0=2\nlevels=3\n")
    out1 = tmp_path / "c1.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(out1.read_text().splitlines()) == 2 + 3
    out2 = tmp_path / "c2.csv"
    assert main(["converge", "--config", str(cfg), "--levels", "2",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 2 + 2


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
], ids=["config-bad-choice", "config-bad-int", "config-unknown-key", "config-missing",
        "parts-uniform-0", "parts-bisect-0", "parts-malformed", "parts-uniform-empty",
        "parts-bisect-empty", "overlap-0", "info-n-0",
        "info-t-shape-odd", "parts-file-missing", "parts-file-short", "levels-0",
        "tau-negative", "tau-inf", "tol-inf", "config-nu-nan", "config-overlap-0",
        "seed-negative", "parts-uniform-huge", "parts-bisect-huge", "parts-file-empty",
        "parts-file-negative"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, config):
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    argv = [a.replace("CFG", str(cfg)).replace("MISSING", str(tmp_path / "none.cfg"))
            for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
