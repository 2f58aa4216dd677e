import numpy as np
import pytest

from innerlab import cli, lamination, lyapunov
from innerlab.errors import NumericalError
from innerlab.innerfn import InnerModel
from innerlab.parabolic import HalfPlaneInner


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

    def test_cesaro_alias(self, deg2_file, tmp_path):
        out = tmp_path / "run.csv"
        assert cli.main(["cesaro", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "4", "--out", str(out)]) == 0

    def test_budget_exit_code(self, deg2_file, tmp_path):
        code = cli.main(["count", "--model", deg2_file, "--z", "0.3,0",
                         "--R", "10", "--node-budget", "50",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_precondition_exit_code(self, deg2_file, tmp_path):
        code = cli.main(["count", "--model", deg2_file, "--z", "0,0",
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
        F = InnerModel.from_zeros(0, 0.5)
        mode = ["--interior", "--z", "0.3,0.2"] if interior else []
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

    def test_wrong_model_kind(self, deg2_file, tmp_path):
        assert cli.main(["parabolic-count", "--model", deg2_file,
                         "--z", "0,0.5", "--I=-1,1", "--R", "3",
                         "--out", str(tmp_path / "x.csv")]) == 2


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
        (["orbit", "--n", "5"], "interior = yes\nz = 0.3,0.2\n",
         ["--interior", "--z", "0.3,0.2"]),
        (["lyapunov"], "method = jensen\n", ["--method", "jensen"]),
    ], ids=["none-default", "repeatable", "switch", "choices"])
    def test_config_matches_flags(self, deg2_file, tmp_path, command, config,
                                  flags):
        # Values are converted by each option's type: options defaulting to
        # None or to a list, repeatable options and switches included.
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

    def test_bad_config_choice_is_64(self, deg2_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = bogus\n")
        assert cli.main(["lyapunov", "--model", deg2_file, "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")]) == 64


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
