import os
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from conftest import (cubic_critical_point, write_counting_csv,
                      write_lyapunov_csv, write_orbit_csv, write_scan_csv,
                      write_shadow_csv, write_strip_csv,
                      write_strip_points_csv, write_total_mass_csv,
                      write_xi_mass_csv)

from innerlab import (acceptance, cli, counting, distortion, lamination,
                      lyapunov, parabolic, preimage)
from innerlab.errors import BudgetError, NumericalError
from innerlab.innerfn import InnerModel
from innerlab.parabolic import HalfPlaneInner, enumerate_strip
from innerlab.preimage import enumerate_ball


@pytest.fixture
def deg2_file(tmp_path):
    path = tmp_path / "deg2.inner"
    path.write_text(InnerModel.from_zeros(0, 0.5).to_text())
    return str(path)


@pytest.fixture
def hp_file(tmp_path):
    path = tmp_path / "zminus.hp"
    path.write_text(HalfPlaneInner(beta=0.0, atoms=((0.0, 1.0),)).to_text())
    return str(path)


def data_lines(path):
    return [ln for ln in open(path).read().splitlines() if not ln.startswith("#")]


def read_rows(path):
    lines = [ln for ln in open(path).read().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestCount:
    def test_end_to_end(self, deg2_file, tmp_path):
        out = tmp_path / "run.csv"
        code = cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["R", "count", "count_over_eR", "cesaro", "target",
                          "ratio"]
        assert len(rows) == 8
        last = rows[-1]
        assert float(last[0]) == 8.0
        # Pointwise ratio near 1 at R = 8 (pilot 1.0001).
        assert 0.8 <= float(last[5]) <= 1.25
        # The tree's counters go in the `#` header only.
        tree = enumerate_ball(InnerModel.from_zeros(0, 0.5), 0.3, 8.0)
        counters = dict(ln[2:].split(" = ", 1) for ln in out.read_text().splitlines()
                        if ln.startswith("# ") and " = " in ln)
        assert int(counters["explored"]) == tree.explored
        assert float(counters["expand_radius"]) == tree.expand_radius < 8.0

    def test_cesaro_alias(self, deg2_file, tmp_path):
        out = tmp_path / "run.csv"
        assert cli.main(["cesaro", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "4", "--out", str(out)]) == 0

    def test_budget_exit_code(self, deg2_file, tmp_path, capsys):
        code = cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "10", "--node-budget", "50",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == ("innerlab: budget exhausted: node "
                                           "budget 50 exceeded at generation 5\n")

    def test_memory_set_by_the_frontier(self, deg2_file, tmp_path):
        # The R = 13 tree has 427,153 nodes, 24 bytes each as points and
        # parents; the count keeps their radii and one generation's points.
        tracemalloc.start()
        try:
            assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                             "--R", "13", "--out", str(tmp_path / "x.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    def test_precondition_exit_code(self, deg2_file, tmp_path):
        code = cli.main(["count", "--model", deg2_file, "--z", "0,0",
                         "--R", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_default_target_on_clustered_zeros(self, tmp_path):
        # The truncation z prod_{k <= 8} b_{1 - 2^-k}: the ratio with the
        # default target (Jensen's chi) is the ratio with --chi from the
        # quadrature.  The np.roots oracle read 1.1968 at R = 10 against
        # 0.9967.
        F = InnerModel.from_zeros(0, *[1 - 2.0 ** -k for k in range(1, 9)])
        path = tmp_path / "k8.inner"
        path.write_text(F.to_text())
        ratios = []
        for chi in ([], ["--chi", repr(lyapunov.chi_quadrature(F, 1e-12).value)]):
            out = tmp_path / f"run{len(chi)}.csv"
            assert cli.main(["count", "--model", str(path), "--z", "0.3,0",
                             "--R", "10", "--out", str(out)] + chi) == 0
            header, rows = read_rows(out)
            ratios.append(np.array([float(r[header.index("ratio")]) for r in rows]))
        assert len(ratios[0]) == 10
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=0, atol=1e-9)
        assert abs(ratios[0][-1] - 0.9967) < 1e-4

    @pytest.mark.parametrize("case", ["deg2", "cubic"])
    def test_critical_value_meets_the_constant(self, case, tmp_path):
        # z = F(F(c)) for a critical point c of F: the double pullback two
        # generations up is counted twice, so at R = 10 the ratio is near
        # 1, as at the generic neighbour z + 1e-6.  A tree that merged the
        # pullback read 0.6172 on deg2 and 0.7264 on the cubic.
        F, c = {"deg2": (InnerModel.from_zeros(0, 0.5), 2.0 - np.sqrt(3.0)),
                "cubic": cubic_critical_point()}[case]
        path = tmp_path / "model.inner"
        path.write_text(F.to_text())
        z = F.eval(F.eval(c))
        ratios = []
        for w in (z, z + 1e-6):
            out = tmp_path / "run.csv"
            assert cli.main(["count", "--model", str(path), "--z",
                             f"{w.real:.17g},{w.imag:.17g}", "--R", "10",
                             "--out", str(out)]) == 0
            header, rows = read_rows(out)
            ratios.append(float(rows[-1][header.index("ratio")]))
        assert 0.99 <= ratios[0] <= 1.01
        assert abs(ratios[0] - ratios[1]) < 0.005

    def test_non_finite_base_point_exit_code(self, deg2_file, tmp_path):
        with np.errstate(all="ignore"):
            code = cli.main(["count", "--model", deg2_file, "--z", "nan,0",
                             "--R", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_model_exit_code(self, tmp_path):
        code = cli.main(["count", "--model", str(tmp_path / "nope.inner"),
                         "--z", "0.3,0", "--R", "5",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestUsage:
    def test_unknown_flag_is_64(self, deg2_file, tmp_path):
        code = cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "5", "--out", str(tmp_path / "x.csv"),
                         "--frobnicate"])
        assert code == 64

    def test_unknown_subcommand_is_64(self):
        assert cli.main(["transmogrify"]) == 64

    def test_numerical_error_is_4(self, monkeypatch, deg2_file, tmp_path):
        def boom(args):
            raise NumericalError("synthetic failure")
        monkeypatch.setitem(cli.__dict__, "cmd_count", boom)
        parser_args = ["count", "--model", deg2_file, "--z", "0.3,0",
                       "--R", "5", "--out", str(tmp_path / "x.csv")]
        # Rebuild dispatch through main with the patched handler.
        monkeypatch.setattr(cli, "cmd_count", boom)
        assert cli.main(parser_args) == 4


class TestLyapunov:
    def test_all_methods_agree(self, deg2_file, tmp_path):
        out = tmp_path / "chi.csv"
        code = cli.main(["lyapunov", "--model", deg2_file, "--method", "all",
                         "--n", "20000", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["quadrature", "jensen", "birkhoff"]
        vals = {r[0]: float(r[1]) for r in rows}
        errs = {r[0]: float(r[2]) for r in rows}
        assert abs(vals["quadrature"] - vals["jensen"]) < 1e-8
        assert abs(vals["birkhoff"] - vals["jensen"]) <= 4 * errs["birkhoff"]


class TestOtherSubcommands:
    def test_orbit(self, deg2_file, tmp_path):
        out = tmp_path / "orbit.csv"
        assert cli.main(["orbit", "--model", deg2_file, "--n", "20",
                         "--seed", "3", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["n", "re", "im"]
        assert len(rows) == 21

    @pytest.mark.parametrize("interior", [False, True])
    def test_orbit_rows_follow_seed(self, deg2_file, tmp_path, interior):
        # --z selects the interior orbit from z; without it, a solenoid orbit.
        F = InnerModel.from_zeros(0, 0.5)
        mode = ["--z", "0.3,0.2"] if interior else []
        rows = {}
        for seed in (3, 4):
            out = tmp_path / f"orbit{seed}.csv"
            assert cli.main(["orbit", "--model", deg2_file, "--n", "20",
                             "--seed", str(seed), "--out", str(out)] + mode) == 0
            rows[seed] = read_rows(out)[1]
            if interior:
                pts = lamination.sample_interior_orbit(F, 0.3 + 0.2j, 20, seed=seed)
            else:
                pts = lamination.solenoid_orbits(F, 20, seed=seed)[0]
            assert rows[seed] == [[str(n), f"{p.real:.17g}", f"{p.imag:.17g}"]
                                  for n, p in enumerate(pts)]
        assert rows[3] != rows[4]
        # An interior orbit starts at --z, a solenoid orbit at a seeded angle.
        assert (rows[3][0] == rows[4][0]) == interior

    def test_interior_flag_is_gone(self, deg2_file, tmp_path):
        assert cli.main(["orbit", "--model", deg2_file, "--interior",
                         "--out", str(tmp_path / "x.csv")]) == 64

    @pytest.mark.parametrize("command", ["lyapunov", "total-mass"])
    def test_rows_follow_seed(self, deg2_file, tmp_path, command):
        F = InnerModel.from_zeros(0, 0.5)
        rows = {}
        for seed in (3, 4):
            out = tmp_path / f"{command}{seed}.csv"
            if command == "lyapunov":
                argv = ["--method", "birkhoff", "--n", "2000"]
                est = lyapunov.chi_birkhoff(F, 0.7, 2000, seed=seed)
                expect = [["birkhoff", f"{est.value:.17g}", f"{est.error:.17g}"]]
            else:
                argv = ["--samples", "20000"]
                res = lamination.total_mass_check(F, 0.99, samples=20000,
                                                  seed=seed)
                expect = [[f"{res.r0:.17g}", f"{res.mass:.17g}",
                           f"{res.stderr:.17g}", f"{res.chi_ref:.17g}",
                           str(res.samples)]]
            assert cli.main([command, "--model", deg2_file, "--seed", str(seed),
                             "--out", str(out)] + argv) == 0
            rows[seed] = read_rows(out)[1]
            assert rows[seed] == expect
        assert rows[3] != rows[4]

    def test_xi_mass(self, deg2_file, tmp_path):
        out = tmp_path / "xi.csv"
        assert cli.main(["xi-mass", "--model", deg2_file,
                         "--box", "0.5,0.7,0.3,1.1", "--max-depth", "3",
                         "--grid", "10", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        masses = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-6 for a, b in zip(masses, masses[1:]))

    def test_xi_mass_budget_writes_partial_rows(self, deg2_file, tmp_path,
                                                monkeypatch):
        # 65 leaves per level over both grids: depths 0..3 fit 64 * 10.
        monkeypatch.setattr(lamination, "TREE_BUDGET", 10)
        out = tmp_path / "xi.csv"
        assert cli.main(["xi-mass", "--model", deg2_file,
                         "--box", "0.5,0.7,0.3,1.1", "--max-depth", "6",
                         "--grid", "4", "--out", str(out)]) == 3
        header, rows = read_rows(out)
        assert header == ["depth", "mass", "error"]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]

    def test_total_mass(self, deg2_file, tmp_path):
        out = tmp_path / "tm.csv"
        assert cli.main(["total-mass", "--model", deg2_file, "--r0", "0.98",
                         "--samples", "100000", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        mass, chi_ref = float(rows[0][1]), float(rows[0][3])
        assert abs(mass - chi_ref) / chi_ref < 0.1

    def test_shadow_sim(self, tmp_path):
        out = tmp_path / "shadow.csv"
        assert cli.main(["shadow-sim", "--T", "500", "--bad-times", "pow2",
                         "--start", "2,1", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["t", "avg_min_distance"]
        assert float(rows[-1][1]) < 0.2

    def test_distortion_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert cli.main(["distortion-scan", "--truncation-K", "4",
                         "--truncation-K", "6", "--zeta", "0",
                         "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[0] == "model_id"
        assert float(rows[1][2]) > float(rows[0][2])

    @pytest.mark.parametrize("flags, config", [
        ([], ""),
        (["--model", "{model}", "--truncation-K", "4"], ""),
        (["--truncation-K", "4"], "model = {model}\n"),
    ], ids=["neither", "both", "config-and-flag"])
    def test_distortion_scan_takes_one_source(self, deg2_file, tmp_path, capsys,
                                              flags, config):
        # --model and --truncation-K exclude each other, one is required,
        # and a config entry counts as given.
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfg.write_text(config.format(model=deg2_file))
        assert cli.main(["distortion-scan", "--config", str(cfg), "--out", str(out)]
                        + [f.format(model=deg2_file) for f in flags]) == 64
        assert "--truncation-K" in capsys.readouterr().err
        assert not out.exists()

    def test_parabolic_count(self, hp_file, tmp_path):
        out = tmp_path / "pc.csv"
        dump = tmp_path / "pts.csv"
        assert cli.main(["parabolic-count", "--model", hp_file, "--z", "0,0.5",
                         "--I=-1,1", "--R", "5", "--out", str(out),
                         "--dump-points", str(dump)]) == 0
        header, rows = read_rows(out)
        assert header == ["R", "count", "count_over_eR", "cesaro", "target",
                          "ratio"]
        assert float(rows[-1][4]) == pytest.approx(1 / np.pi)
        assert dump.exists()
        # The strip's counters go in the `#` header only.
        strip = enumerate_strip(HalfPlaneInner(0.0, ((0.0, 1.0),)), 0.5j,
                                (-1.0, 1.0), 5.0)
        counters = dict(ln[2:].split(" = ", 1) for ln in out.read_text().splitlines()
                        if ln.startswith("# ") and " = " in ln)
        assert int(counters["explored"]) == strip.explored
        assert int(counters["farfield_pruned"]) == strip.farfield_pruned > 0

    @pytest.mark.parametrize("command, numerator", [
        (["count", "--z", "0.3,0", "--R", "6"], "count_over_eR"),
        (["parabolic-count", "--z", "0,0.5", "--I=-1,1", "--R", "5"], "cesaro"),
    ], ids=["count", "parabolic-count"])
    def test_ratio_column(self, deg2_file, hp_file, tmp_path, command,
                          numerator):
        # count's ratio is the pointwise one, parabolic-count's the Cesaro
        # one, each as its --help epilog says.
        model = hp_file if command[0] == "parabolic-count" else deg2_file
        out = tmp_path / "run.csv"
        assert cli.main(command + ["--model", model, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        last = dict(zip(header, map(float, rows[-1])))
        assert last["ratio"] == last[numerator] / last["target"]
        epilog = cli.build_parser().commands[command[0]].epilog
        assert f"ratio (= {numerator}/target)" in epilog

    def test_wrong_model_kind(self, deg2_file, tmp_path):
        assert cli.main(["parabolic-count", "--model", deg2_file,
                         "--z", "0,0.5", "--I=-1,1", "--R", "3",
                         "--out", str(tmp_path / "x.csv")]) == 2


class TestBadInput:
    """Malformed comma lists and model lines exit 2 with a message, before
    any enumeration and without a traceback."""

    @pytest.mark.parametrize("interval", ["--I=2,2", "--I=1,-1", "--I=1",
                                          "--I=0,x", "--I=-1,0,1"])
    def test_parabolic_interval(self, hp_file, tmp_path, capsys, interval):
        assert cli.main(["parabolic-count", "--model", hp_file, "--z", "0,0.5",
                         interval, "--R", "3",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "innerlab: " in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["0.3", "0.3,0,1", "a,b"])
    def test_complex(self, deg2_file, tmp_path, capsys, z):
        assert cli.main(["count", "--model", deg2_file, f"--z={z}", "--R", "3",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "use re,im" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["0.5,0.7", "0.5,0.7,0,1,2", "0.5,0.7,0,x"])
    def test_xi_mass_box(self, deg2_file, tmp_path, capsys, box):
        assert cli.main(["xi-mass", "--model", deg2_file, "--box", box,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "use r_lo,r_hi,theta_lo,theta_hi" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1:2:3", "1", "1:2,3", "1:x"])
    def test_shadow_bad_times(self, tmp_path, capsys, bad):
        assert cli.main(["shadow-sim", "--T", "10", "--bad-times", bad,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "use a:b" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["beta=abc", "atom=1", "atom=1,2,3",
                                      "atom", "zero=0,0"])
    def test_bad_halfplane_line(self, tmp_path, capsys, line):
        path = tmp_path / "bad.hp"
        path.write_text(f"beta=0\n# comment\n{line}\n")
        assert cli.main(["parabolic-count", "--model", str(path), "--z", "0,0.5",
                         "--I=-1,1", "--R", "3",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["zero=abc,0", "zero=0.5", "beta"])
    def test_bad_disk_line(self, tmp_path, capsys, line):
        path = tmp_path / "bad.inner"
        path.write_text(f"zero=0,0\n{line}\n")
        assert cli.main(["lyapunov", "--model", str(path),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "bad model line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # Neither tree is bounded at R = inf: exit 2 before the budget
        # could run out.
        ["count", "--model", "DEG2", "--z", "0.3,0", "--R", "inf",
         "--node-budget", "1000"],
        ["parabolic-count", "--model", "HP", "--z", "0,0.5", "--I=-1,1",
         "--R", "inf", "--node-budget", "1000"],
        ["count", "--model", "DEG2", "--z", "0.3,0", "--R", "3", "--R-step", "0"],
        ["count", "--model", "DEG2", "--z", "0.3,0", "--R", "3", "--R-step", "nan"],
        ["parabolic-count", "--model", "HP", "--z", "0,0.5", "--I=-1,1", "--R", "3",
         "--R-step", "0"],
        ["parabolic-count", "--model", "HP", "--z", "0,0.5", "--I=-1,1", "--R", "3",
         "--R-step", "nan"],
        ["shadow-sim", "--T", "10", "--curve-points", "0"],
        ["shadow-sim", "--T", "10", "--step", "0"],
        ["shadow-sim", "--T", "10", "--step", "nan"],
        ["shadow-sim", "--T", "10", "--step", "-1"],
        ["shadow-sim", "--T", "nan"],
        ["shadow-sim", "--T", "inf"],
        ["shadow-sim", "--T", "0"],
        ["shadow-sim", "--T=-5"],
        ["xi-mass", "--model", "DEG2", "--box", "0.5,0.7,0,1", "--grid", "0"],
        # Base points off 0 < |z| < 1, and other values outside their domain.
        ["count", "--model", "DEG2", "--z", "1,0", "--R", "3"],
        ["count", "--model", "DEG2", "--z", "2,0", "--R", "3"],
        ["orbit", "--model", "DEG2", "--z", "1,0"],
        ["orbit", "--model", "DEG2", "--z", "2,0"],
        ["shadow-sim", "--T", "10", "--start=0,-1"],
        ["lyapunov", "--model", "DEG2", "--method", "birkhoff", "--angle", "nan"],
        ["lyapunov", "--model", "DEG2", "--method", "birkhoff", "--angle", "inf"],
        ["xi-mass", "--model", "DEG2", "--box", "0.5,0.7,0,1", "--max-depth", "-1"],
        ["total-mass", "--model", "DEG2", "--samples", "0"],
        ["count", "--model", "DEG2", "--z", "0.3,0", "--R", "3", "--chi", "inf"],
        ["lyapunov", "--model", "DEG2", "--method", "quadrature", "--tol", "nan"],
        ["distortion-scan", "--truncation-K", "3", "--tol", "nan"],
        ["shadow-sim", "--T", "10", "--start=nan,1"]],
        ids=["count-R-inf", "parabolic-R-inf", "count-R-step-0",
             "count-R-step-nan", "parabolic-R-step-0", "parabolic-R-step-nan",
             "curve-points-0", "step-0", "step-nan", "step-negative", "T-nan",
             "T-inf", "T-0", "T-negative", "grid-0", "count-z-circle",
             "count-z-outside", "orbit-z-circle", "orbit-z-outside",
             "start-below-axis", "angle-nan", "angle-inf", "max-depth-negative",
             "samples-0", "chi-inf", "lyapunov-tol-nan", "distortion-tol-nan",
             "start-re-nan"])
    def test_bad_number(self, deg2_file, hp_file, tmp_path, capsys, argv):
        argv = [{"DEG2": deg2_file, "HP": hp_file}.get(a, a) for a in argv]
        assert cli.main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("innerlab: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["count", "--z", "0.3,0"], ["lyapunov"], ["distortion-scan"], ["orbit"],
        ["xi-mass", "--box", "0.5,0.7,0,1"], ["total-mass"],
        ["parabolic-count", "--z", "0,0.5", "--I=-1,1"]],
        ids=lambda argv: argv[0])
    def test_wrong_model_kind(self, deg2_file, hp_file, tmp_path, capsys, argv):
        # Each subcommand is handed a model of the other kind.
        model = deg2_file if argv[0] == "parabolic-count" else hp_file
        extra = ["--R", "3"] if "--z" in argv else []
        assert cli.main(argv + extra + ["--model", model,
                                        "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"innerlab: model file {model} is not of type")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["count", "--model", "DEG2", "--z", "0.3,0"],
        ["parabolic-count", "--model", "HP", "--z", "0,0.5", "--I=-1,1"]],
        ids=["count", "parabolic-count"])
    @pytest.mark.parametrize("step", ["1e-300", "1e-9"])
    def test_grid_over_budget(self, deg2_file, hp_file, tmp_path, capsys,
                              monkeypatch, argv, step):
        # R/step grid values count against the node budget: exit 3 before
        # the grid (3e9 floats at 1e-9) or the tree is built.
        def no_arange(*args, **kw):
            raise AssertionError("the R grid was allocated")

        monkeypatch.setattr(np, "arange", no_arange)
        argv = [{"DEG2": deg2_file, "HP": hp_file}.get(a, a) for a in argv]
        assert cli.main(argv + ["--R", "3", "--R-step", step,
                                "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("innerlab: budget exhausted: R grid of")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, text", [
        (["lyapunov", "--method", "birkhoff", "--n", "1000"], "zero=0,0\nzero=nan,0\n"),
        (["parabolic-count", "--z", "0,0.5", "--I=-1,1", "--R", "3"],
         "beta=0\natom=0,inf\n")],
        ids=["disk", "halfplane"])
    def test_non_finite_model_parameter(self, tmp_path, capsys, argv, text):
        # NaN fails no range test written as a rejection (|z| >= 1), so the
        # disk file would run and write birkhoff,nan,nan.
        path = tmp_path / "model"
        path.write_text(text)
        assert cli.main(argv + ["--model", str(path),
                                "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("innerlab: ") and "Traceback" not in err
        assert "finite" in err or "inside the disk" in err

    def test_finite_height_model(self, tmp_path, capsys):
        # b = 0.1 - (0.5 - 0.5) = 0.1: finite height, outside the strip
        # theorem, though Im of its orbits grows for thousands of steps.
        path = tmp_path / "b01.hp"
        path.write_text("beta=0.1\natom=1,0.5\natom=-2,0.25\n")
        assert cli.main(["parabolic-count", "--model", str(path), "--z", "0,0.5",
                         "--I=-1,1", "--R", "6",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "not infinite height (b = 0.1," in capsys.readouterr().err

    def test_samples_over_budget(self, deg2_file, tmp_path, capsys, monkeypatch):
        # More samples than the 1.28e8-point budget exit 3 before any
        # stratum is drawn (1e14 samples are 2.84 TiB of draws).
        def no_strata(*args, **kw):
            raise AssertionError("the strata were drawn")

        monkeypatch.setattr(lamination, "_strata", no_strata)
        assert cli.main(["total-mass", "--model", deg2_file,
                         "--samples", str(10 ** 14),
                         "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("innerlab: budget exhausted: 100000000000000 samples")
        assert "Traceback" not in err

    @pytest.mark.parametrize("z", [None, "0.3,0.2"], ids=["solenoid", "interior"])
    def test_orbit_over_budget(self, deg2_file, tmp_path, capsys, monkeypatch, z):
        # paths (n + 1) coordinates count against the point budget 64
        # TREE_BUDGET, here 640: exit 3 before the coordinates are
        # allocated (--n 10^18 would ask numpy for 16 EB).
        monkeypatch.setattr(lamination, "TREE_BUDGET", 10)
        argv = ["orbit", "--model", deg2_file, "--out", str(tmp_path / "x.csv")]
        argv += [] if z is None else ["--z", z]
        assert cli.main(argv + ["--n", "639"]) == 0
        assert cli.main(argv + ["--n", "640"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("innerlab: budget exhausted: 1 orbits of 641 "
                              "coordinates exceed the point budget 640")
        assert "Traceback" not in err

    def test_time_grid_over_budget(self, tmp_path, capsys, monkeypatch):
        # The shadowing grid counts max(1, ceil(length/step)) points per
        # segment, plus one, against the point budget: exit 3 before any
        # segment's grid is built (at T = 1e300 segment k of pow2 holds
        # about 2^k points).
        def no_linspace(*args, **kw):
            raise AssertionError("a time grid was allocated")

        out = str(tmp_path / "x.csv")
        with monkeypatch.context() as m:
            m.setattr(np, "linspace", no_linspace)
            assert cli.main(["shadow-sim", "--T", "1e300", "--step", "1",
                             "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("innerlab: budget exhausted: time grid of 1e+300")
        assert "Traceback" not in err
        monkeypatch.setattr(lamination, "TREE_BUDGET", 10)
        for T, code in (("639", 0), ("640", 3)):
            assert cli.main(["shadow-sim", "--bad-times", "none", "--T", T,
                             "--step", "1", "--out", out]) == code

    def test_close_atoms_are_numerical(self, tmp_path):
        # The estimate is not finite: exit 4, where the exclusion windows
        # this replaced exited 2.
        path = tmp_path / "close.inner"
        path.write_text(InnerModel(atoms=((1.0, 0.5), (1.0 + 1e-11, 0.5)))
                        .to_text())
        assert cli.main(["lyapunov", "--model", str(path), "--method",
                         "quadrature", "--out", str(tmp_path / "x.csv")]) == 4

    @pytest.mark.parametrize("chi", [[], ["--chi", "0.6"]])
    def test_count_rejects_atoms_before_chi(self, tmp_path, chi):
        # count takes chi from Jensen's formula, which rejects a model with
        # atoms as enumerate_ball does: exit 2 with or without --chi, never
        # the quadrature's numerical error on close atoms.
        path = tmp_path / "close.inner"
        path.write_text(InnerModel(atoms=((1.0, 0.5), (1.0 + 1e-11, 0.5)))
                        .to_text())
        assert cli.main(["count", "--model", str(path), "--z", "0.3,0",
                         "--R", "3", "--out", str(tmp_path / "x.csv")]
                        + chi) == 2


class TestConfigFile:
    def test_defaults_from_config(self, deg2_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[count]\nR-step = 2.0\nnode-budget = 1000000\n")
        out = tmp_path / "out.csv"
        assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "6", "--config", str(cfg),
                         "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert [float(r[0]) for r in rows] == [2.0, 4.0, 6.0]
        text = out.read_text()
        assert "# config node_budget = 1000000" in text

    def test_flag_overrides_config(self, deg2_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[count]\nR-step = 2.0\n")
        out = tmp_path / "out.csv"
        assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "6", "--R-step", "3.0", "--config", str(cfg),
                         "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert [float(r[0]) for r in rows] == [3.0, 6.0]

    def test_abbreviated_flag_overrides_config(self, deg2_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[count]\nR-step = 2.0\n")
        out = tmp_path / "out.csv"
        assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "6", "--R-st", "3.0", "--config", str(cfg),
                         "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert [float(r[0]) for r in rows] == [3.0, 6.0]


    @pytest.mark.parametrize("command, config, flags", [
        (["count", "--z", "0.3,0", "--R", "5"], "chi = 0.62\n",
         ["--chi", "0.62"]),
        (["distortion-scan"], "truncation-K = 4, 6\nr-max = 0.99\n",
         ["--truncation-K", "4", "--truncation-K", "6", "--r-max", "0.99"]),
        (["orbit", "--n", "5"], "z = 0.3,0.2\n", ["--z", "0.3,0.2"]),
        (["lyapunov"], "method = jensen\n", ["--method", "jensen"]),
    ], ids=["none-default", "repeatable", "switch", "choices"])
    def test_config_matches_flags(self, deg2_file, tmp_path, command, config,
                                  flags):
        # Values are parsed as the flags are: options defaulting to None or
        # to a list, repeatable options and the orbit mode's --z included.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        model = [] if command[0] == "distortion-scan" else ["--model", deg2_file]
        codes, bodies = [], []
        for name, extra in (("cfg", ["--config", str(cfg)]), ("flags", flags)):
            out = tmp_path / f"{name}.csv"
            codes.append(cli.main(command + model + extra + ["--out", str(out)]))
            bodies.append(read_rows(out) if out.exists() else None)
        assert codes[0] == codes[1]
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("config", ["node-budget = abc\n",
                                        "R-step = 1,2\n", "[count\n"],
                             ids=["int", "float", "file"])
    def test_bad_config_value_is_64(self, deg2_file, tmp_path, capsys, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "5", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")]) == 64
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("config, n_rows", [
        ("[lyapunov]\nn = 5\n", 101),
        ("n = 3\n[lyapunov]\nn = 5\n", 4),
        ("n = 3\n[orbit]\nn = 7\n[lyapunov]\nn = 5\n", 8),
    ], ids=["foreign", "sectionless", "own"])
    def test_only_own_section_applies(self, deg2_file, tmp_path, config,
                                      n_rows):
        # Sectionless keys apply to every subcommand; under a [section]
        # only to the subcommand of that name.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "orbit.csv"
        assert cli.main(["orbit", "--model", deg2_file, "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == n_rows

    @pytest.mark.parametrize("section, steps", [("count", [2.0, 4.0, 6.0]),
                                                ("cesaro", [1.0, 2.0, 3.0, 4.0,
                                                            5.0, 6.0])],
                             ids=["count", "cesaro"])
    def test_alias_reads_its_command_section(self, deg2_file, tmp_path,
                                             section, steps):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\nR-step = 2.0\n")
        out = tmp_path / "out.csv"
        assert cli.main(["cesaro", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "6", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert [float(r[0]) for r in read_rows(out)[1]] == steps

    def test_bad_config_choice_is_64(self, deg2_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = bogus\n")
        assert cli.main(["lyapunov", "--model", deg2_file, "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")]) == 64

    def test_bad_config_value_names_the_file(self, deg2_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[count]\nnode-budget = abc\n")
        assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "5", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")]) == 64
        err = capsys.readouterr().err.splitlines()
        assert "argument --node-budget: invalid int value: 'abc'" in err[-2]
        assert err[-1] == f"innerlab: in config file {cfg}"

    def test_repeatable_flag_replaces_config_list(self, tmp_path):
        # The command line's --truncation-K 3 replaces the config's 4, 6
        # rather than adding to them.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("truncation-K = 4, 6\n")
        bodies = []
        for name, extra in (("cfg", ["--config", str(cfg)]), ("flags", [])):
            out = tmp_path / f"{name}.csv"
            assert cli.main(["distortion-scan", "--truncation-K", "3",
                             "--out", str(out)] + extra) == 0
            bodies.append(read_rows(out)[1])
        assert len(bodies[0]) == 1
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("command, config, flags", [
        (["count"], "[count]\nz = 0.3,0\nR = 4\n", ["--z", "0.3,0", "--R", "4"]),
        (["parabolic-count"], "z = 0,0.5\nI = -1,1\nR = 5\n",
         ["--z", "0,0.5", "--I=-1,1", "--R", "5"]),
        (["xi-mass", "--max-depth", "1", "--grid", "6"],
         "box = 0.5,0.7,0.3,1.1\n", ["--box", "0.5,0.7,0.3,1.1"]),
        (["lyapunov", "--method", "jensen"], "model = {model}\nout = {out}\n",
         ["--model", "{model}", "--out", "{out}"]),
    ], ids=["count", "parabolic-count", "xi-mass", "model-out"])
    def test_required_options_from_config(self, deg2_file, hp_file, tmp_path,
                                          command, config, flags):
        # The config alone may give a required option.
        model = hp_file if command[0] == "parabolic-count" else deg2_file
        cfg = tmp_path / "run.cfg"
        bodies = []
        for name in ("cfg", "flags"):
            out = tmp_path / f"{name}.csv"
            fill = [f.format(model=model, out=out) for f in flags]
            if name == "cfg":
                cfg.write_text(config.format(model=model, out=out))
                fill = ["--config", str(cfg)]
            if "{model}" not in config:
                fill += ["--model", model, "--out", str(out)]
            assert cli.main(command + fill) == 0
            bodies.append(read_rows(out))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("config, missing", [
        ("", "--z, --R"), ("[count]\nz = 0.3,0\n", "--R"),
        ("[lyapunov]\nR = 4\nz = 0.3,0\n", "--z, --R")],
        ids=["empty", "R", "foreign-section"])
    def test_required_option_given_nowhere_is_64(self, deg2_file, tmp_path,
                                                 capsys, config, missing):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfg.write_text(config)
        assert cli.main(["count", "--model", deg2_file, "--config", str(cfg),
                         "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"the following arguments are required: {missing}" in err
        assert not out.exists()

    def test_usage_with_config_marks_required_options(self, deg2_file, tmp_path,
                                                       capsys):
        # argv is first read with required options lifted; the usage line
        # of an error there still shows them as required.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[count]\nz = 0.3,0\n")
        assert cli.main(["count", "--model", deg2_file, "--config", str(cfg),
                         "--R", "x", "--out", str(tmp_path / "x.csv")]) == 64
        err = capsys.readouterr().err
        assert "argument --R: invalid float value: 'x'" in err
        assert "--model MODEL --out OUT [--config CONFIG] --z Z --R" in err

    @pytest.mark.parametrize("config", ["frobnicate = 1\n", "help = yes\n"],
                             ids=["unknown", "help"])
    def test_keys_naming_no_option_are_ignored(self, deg2_file, tmp_path,
                                               capsys, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out.csv"
        assert cli.main(["lyapunov", "--model", deg2_file, "--method", "jensen",
                         "--config", str(cfg), "--out", str(out)]) == 0
        assert [r[0] for r in read_rows(out)[1]] == ["jensen"]
        assert capsys.readouterr().out == ""


class TestDeterminism:
    def test_byte_identical_across_threads_and_runs(self, deg2_file, tmp_path):
        bodies = []
        for name in ("a", "b", "c", "d"):
            out = tmp_path / f"{name}.csv"
            assert cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                             "--R", "7", "--out", str(out)]) == 0
            bodies.append("\n".join(ln for ln in out.read_text().splitlines()
                                    if not ln.startswith("#")))
        assert len(set(bodies)) == 1

    def test_in_process_calls_match_fresh_processes(self, deg2_file, tmp_path):
        # One parser serves every call in a process: no call's options or
        # config values reach the next call.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[count]\nR-step = 2.0\n")
        runs = [["count", "--z", "0.3,0", "--R", "4", "--config", str(cfg)],
                ["lyapunov", "--method", "jensen", "--config", str(cfg)],
                ["count", "--z", "0.3,0", "--R", "4"]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for i, argv in enumerate(runs):
            argv = argv + ["--model", deg2_file]
            same, fresh = tmp_path / f"same{i}.csv", tmp_path / f"fresh{i}.csv"
            assert cli.main(argv + ["--out", str(same)]) == 0
            subprocess.run([sys.executable, "-m", "innerlab.cli", *argv,
                            "--out", str(fresh)], env=env, check=True)
            assert data_lines(same) == data_lines(fresh)
        assert len(read_rows(tmp_path / "same0.csv")[1]) == 2
        assert len(read_rows(tmp_path / "same2.csv")[1]) == 4

    def test_tree_counts_read_no_root_order(self, deg2_file, hp_file,
                                            tmp_path, monkeypatch):
        # N(z, R) and N_I(z, R) count the set of preimages: with every row
        # of the shared solve reversed, the count runs write the same rows
        # and counters, and the walks, which sort the roots, are unchanged.
        F = InnerModel.from_zeros(0, 0.5)
        runs = [["count", "--model", deg2_file, "--z", "0.3,0", "--R", "10"],
                ["parabolic-count", "--model", hp_file, "--z", "0,0.5",
                 "--I=-1,1", "--R", "8"]]

        def outputs(tag):
            files = []
            for i, argv in enumerate(runs):
                out = tmp_path / f"{tag}{i}.csv"
                assert cli.main(argv + ["--out", str(out)]) == 0
                files.append([ln for ln in out.read_text().splitlines()
                              if not ln.startswith("# config out =")])
            return files, lamination.sample_interior_orbit(F, 0.3 + 0.2j, 150, 2)

        plain_roots = preimage.preimages_of_batch(F, [0.3 + 0.2j])
        plain = outputs("plain")
        solve = preimage._preimage_roots

        def reversed_solve(*args, **kw):
            # A copy: numpy's abs may round a strided view differently.
            return solve(*args, **kw)[:, ::-1].copy()

        monkeypatch.setattr(preimage, "_preimage_roots", reversed_solve)
        monkeypatch.setattr(parabolic, "_preimage_roots", reversed_solve)
        assert np.array_equal(preimage.preimages_of_batch(F, [0.3 + 0.2j]),
                              plain_roots[:, ::-1])
        files, orbit = outputs("reversed")
        assert files == plain[0]
        assert np.array_equal(orbit, plain[1])

    def test_parser_built_once(self, deg2_file, tmp_path):
        for command in (["lyapunov", "--method", "jensen"], ["orbit"]):
            assert cli.main(command + ["--model", deg2_file,
                                       "--out", str(tmp_path / "x.csv")]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser.cache_info().misses == 1


class TestAccept:
    """`accept` through `cli.main` on a table of two stub criteria; the
    second one's check fails, or its limit of 0 s fails any run."""

    @pytest.mark.parametrize("ok, limit, line, code", [
        (True, None, "[PASS] criterion  2 (stub): detail, 0.0s", 0),
        (False, None, "[FAIL] criterion  2 (stub): detail, 0.0s", 2),
        (True, 0.0, "[FAIL] criterion  2 (stub): detail, 0.0s (limit 0s)", 2),
    ], ids=["all-pass", "check-fails", "over-limit"])
    def test_exit_code_and_lines(self, monkeypatch, capsys, ok, limit, line, code):
        monkeypatch.setattr(acceptance, "CRITERIA", [
            acceptance.Criterion(1, "stub", lambda: (True, "detail")),
            acceptance.Criterion(2, "stub", lambda: (ok, "detail"), limit)])
        assert cli.main(["accept"]) == code
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] criterion  1 (stub): detail, 0.0s", line,
            f"{2 - bool(code)}/2 acceptance criteria passed"]

    def test_fast_flag_is_gone(self):
        assert cli.main(["accept", "--fast"]) == 64


OldRow = namedtuple("OldRow", "R count count_over_eR cesaro target ratio")


class TestCsvRows:
    """Each subcommand's data rows equal, byte for byte, the output of the
    writer it used before `cli._write_csv` (copies in conftest) on the
    same in-process results."""

    @staticmethod
    def check(tmp_path, argv, write_old, code=0):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        assert cli.main(argv + ["--out", str(new)]) == code
        write_old(old)
        assert data_lines(new) == data_lines(old)

    def test_count(self, deg2_file, tmp_path):
        F = InnerModel.from_zeros(0, 0.5)
        chi = lyapunov.chi_jensen_oracle(F).value
        tree = enumerate_ball(F, 0.3, 6.0)
        rows = counting.counting_report(counting.CountingProfile.from_tree(tree),
                                        cli._grid(6.0, 0.5, cli.DEFAULT_NODE_BUDGET),
                                        counting.target_constant(0.3, chi))
        old = [OldRow(*r, r.count_over_eR / r.target) for r in rows]
        self.check(tmp_path, ["count", "--model", deg2_file, "--z", "0.3,0",
                              "--R", "6", "--R-step", "0.5"],
                   lambda path: write_counting_csv(old, path))

    def test_parabolic_count(self, hp_file, tmp_path):
        F = HalfPlaneInner(beta=0.0, atoms=((0.0, 1.0),))
        chi = parabolic.chi_ell(F)
        profile = parabolic.enumerate_strip(F, 0.5j, (-1.0, 1.0), 5.0)
        rows = counting.counting_report(
            counting.CountingProfile.from_strip(profile),
            cli._grid(5.0, 0.5, cli.DEFAULT_NODE_BUDGET), 2.0 / chi)
        old = [OldRow(*r, r.cesaro / r.target) for r in rows]
        dump = tmp_path / "pts.csv"
        self.check(tmp_path, ["parabolic-count", "--model", hp_file,
                              "--z", "0,0.5", "--I=-1,1", "--R", "5",
                              "--R-step", "0.5", "--dump-points", str(dump)],
                   lambda path: write_strip_csv(old, path))
        write_strip_points_csv(profile, tmp_path / "old_pts.csv")
        assert dump.read_text() == (tmp_path / "old_pts.csv").read_text()

    def test_lyapunov(self, deg2_file, tmp_path):
        F = InnerModel.from_zeros(0, 0.5)
        ests = [lyapunov.chi_quadrature(F, 1e-10), lyapunov.chi_jensen_oracle(F),
                lyapunov.chi_birkhoff(F, 0.7, 2000, seed=0)]
        self.check(tmp_path, ["lyapunov", "--model", deg2_file, "--n", "2000"],
                   lambda path: write_lyapunov_csv(ests, path))

    def test_distortion_scan(self, tmp_path):
        family = [InnerModel.from_zeros(*[1.0 - 2.0 ** (-k) for k in range(1, K + 1)])
                  for K in (3, 4)]
        rows = distortion.angular_derivative_criterion_scan(
            family, 0.0, [0.99, 1.0 - 1e-4], tol=1e-9)
        self.check(tmp_path, ["distortion-scan", "--truncation-K", "3",
                              "--truncation-K", "4", "--r-max", "0.99",
                              "--r-max", str(1.0 - 1e-4)],
                   lambda path: write_scan_csv(rows, path))

    @pytest.mark.parametrize("interior", [False, True])
    def test_orbit(self, deg2_file, tmp_path, interior):
        F = InnerModel.from_zeros(0, 0.5)
        if interior:
            pts = lamination.sample_interior_orbit(F, 0.3 + 0.2j, 20, seed=3)
        else:
            pts = lamination.solenoid_orbits(F, 20, seed=3)[0]
        mode = ["--z", "0.3,0.2"] if interior else []
        self.check(tmp_path, ["orbit", "--model", deg2_file, "--n", "20",
                              "--seed", "3"] + mode,
                   lambda path: write_orbit_csv(pts, path))

    def test_xi_mass(self, deg2_file, tmp_path):
        F = InnerModel.from_zeros(0, 0.5)
        box = lamination.AnnularBox(0.5, 0.7, 0.3, 1.1)
        ests = lamination.xi_box_mass(F, box, 3, grid=(10, 10))
        self.check(tmp_path, ["xi-mass", "--model", deg2_file,
                              "--box", "0.5,0.7,0.3,1.1", "--max-depth", "3",
                              "--grid", "10"],
                   lambda path: write_xi_mass_csv(ests, path))

    def test_xi_mass_partial_rows(self, deg2_file, tmp_path, monkeypatch):
        monkeypatch.setattr(lamination, "TREE_BUDGET", 10)
        F = InnerModel.from_zeros(0, 0.5)
        box = lamination.AnnularBox(0.5, 0.7, 0.3, 1.1)
        with pytest.raises(BudgetError) as info:
            lamination.xi_box_mass(F, box, 6, grid=(4, 4))
        self.check(tmp_path, ["xi-mass", "--model", deg2_file,
                              "--box", "0.5,0.7,0.3,1.1", "--max-depth", "6",
                              "--grid", "4"],
                   lambda path: write_xi_mass_csv(info.value.partial, path),
                   code=3)

    def test_total_mass(self, deg2_file, tmp_path):
        F = InnerModel.from_zeros(0, 0.5)
        res = lamination.total_mass_check(F, 0.99, samples=20000, seed=0)
        self.check(tmp_path, ["total-mass", "--model", deg2_file,
                              "--samples", "20000"],
                   lambda path: write_total_mass_csv(res, path))

    def test_shadow_sim(self, tmp_path):
        run = lamination.shadowing_simulation(
            lamination.bad_times_pow2(500.0), 500.0, adversary="up_right",
            start=2 + 1j, step=0.02)
        keep = max(1, len(run.times) // 100)
        self.check(tmp_path, ["shadow-sim", "--T", "500", "--curve-points", "100"],
                   lambda path: write_shadow_csv(run, keep, path))
