import configparser
import csv
import io
import math
import warnings

import numpy as np
import pytest

import rbsdej.cli as cli

CONFIG = """\
[problem]
name = flat_obstacle

[grid]
horizon = 1.0
steps = 200

[mc]
paths = 8
seed = 17

[basis]
degree = 0

[exponents]
p = 1.5
beta = auto
eps = 0.5

[schedule]
n0 = 1.0
levels = 8
stop_tol = 1e-3

[run]
mode = reflected
"""


SOLVE_MODES = ("penalized", "reflected", "oracle", "norms")


def with_value(key: str, raw: str, text: str = CONFIG) -> str:
    """``text`` with the INI key ``section.key`` set to ``raw``."""
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    section, _, option = key.partition(".")
    cfg.set(section, option, raw)
    buf = io.StringIO()
    cfg.write(buf)
    return buf.getvalue()


HOSTILE = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1e400", "2000", "1.5"]
FUZZ_KEYS = [key for _, key, *_ in cli._FIELDS] + ["problem.level"]


@pytest.fixture()
def config_file(tmp_path):
    f = tmp_path / "exp.ini"
    f.write_text(CONFIG)
    return f


class TestConfigParsing:
    def test_parse(self, config_file):
        cfg = cli.parse_config(config_file)
        assert cfg.problem == "flat_obstacle"
        assert cfg.n_steps == 200
        assert cfg.beta is None
        assert cfg.mode == "reflected"

    def test_round_trip(self, config_file, tmp_path):
        cfg = cli.parse_config(config_file)
        echo = tmp_path / "echo.ini"
        with open(echo, "w") as fh:
            cli.dump_config(cfg, fh)
        assert cli.parse_config(echo) == cfg

    def test_bad_p_names_field(self, tmp_path, capsys):
        f = tmp_path / "bad.ini"
        f.write_text(CONFIG.replace("p = 1.5", "p = 2.5"))
        code = cli.run(f, out_dir=tmp_path / "out")
        assert code == cli.EXIT_CONFIG_ERROR
        assert "exponents.p" in capsys.readouterr().err

    def test_unknown_problem(self, tmp_path):
        f = tmp_path / "bad.ini"
        f.write_text(CONFIG.replace("flat_obstacle", "mystery"))
        with pytest.raises(cli.ConfigError, match="problem.name"):
            cli.parse_config(f)

    def test_unknown_problem_param_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.ini"
        f.write_text(CONFIG.replace("name = flat_obstacle", "name = flat_obstacle\nbogus = 3"))
        code = cli.run(f, out_dir=tmp_path / "out")
        assert code == cli.EXIT_CONFIG_ERROR
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini_edit, flags, field",
        [
            (("name = flat_obstacle", "name = flat_obstacle\nkappa = abc"), [], "problem.kappa"),
            (("beta = auto", "beta = foo"), [], "exponents.beta"),
            (None, ["--seed", "-1"], "mc.seed"),
            (None, ["--threads", "0"], "run.threads"),
            (("name = flat_obstacle", "name = flat_obstacle\nbogus = 1"), [], "problem.bogus"),
            (("name = flat_obstacle", "name = american_put_jumps\nkwargs = 1"), [], "problem.kwargs"),
            (("name = flat_obstacle", "name = american_put_jumps\njump_size = 2"), [],
             "problem.jump_size: must lie in (0, 1)"),
            (("name = flat_obstacle", "name = pure_jump_counter\nintensity = -1"), [],
             "problem.intensity: must be positive"),
            (("name = flat_obstacle", "name = flat_obstacle\np = 1.2"), [],
             "problem.p: set exponents.p instead"),
            (("name = flat_obstacle", "name = flat_obstacle\neps = 0.4"), [],
             "problem.eps: set exponents.eps instead"),
            (("name = flat_obstacle", "name = flat_obstacle\nbeta = 3"), [],
             "problem.beta: set exponents.beta instead"),
            (("name = flat_obstacle", "name = flat_obstacle\nT = 2"), [],
             "problem.t: set grid.horizon instead"),
            (("name = flat_obstacle", "name = linear_gamma\njump_sizes = 0.1"), [],
             "problem.jump_sizes: takes a tuple of values"),
        ],
        ids=["kappa", "beta", "seed", "threads", "bogus", "kwargs", "jump_size", "intensity",
             "problem_p", "problem_eps", "problem_beta", "problem_T", "jump_sizes"],
    )
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, ini_edit, flags, field):
        f = tmp_path / "bad.ini"
        f.write_text(CONFIG.replace(*ini_edit) if ini_edit else CONFIG)
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", str(f), "--out", str(out)] + flags)
        assert code == cli.EXIT_CONFIG_ERROR
        assert field in capsys.readouterr().err
        assert not (out / "config.ini").exists()

    def test_missing_section(self, tmp_path):
        f = tmp_path / "bad.ini"
        f.write_text(CONFIG.replace("[schedule]", "[sched]"))
        with pytest.raises(cli.ConfigError, match="schedule"):
            cli.parse_config(f)

    @pytest.mark.parametrize("name", sorted(cli.PROBLEMS))
    def test_every_registry_problem_buildable_from_config(self, name, tmp_path):
        eps = "0.5" if name in ("flat_obstacle", "linear_y") else "0.01"
        text = CONFIG
        for key, raw in (("problem.name", name), ("grid.horizon", "0.5"),
                         ("exponents.p", "1.4"), ("exponents.eps", eps)):
            text = with_value(key, raw, text)
        f = tmp_path / "exp.ini"
        f.write_text(text)
        spec = cli.parse_config(f).build()
        assert spec.exponents.p == 1.4
        assert spec.horizon == 0.5

    def test_forwarded_problem_params_reach_the_spec(self, tmp_path):
        # american_put_jumps passes kappa and rate on to american_put
        text = CONFIG
        for key, raw in (("problem.name", "american_put_jumps"), ("problem.kappa", "1.2"),
                         ("problem.rate", "0.2"), ("exponents.eps", "0.01"),
                         ("grid.steps", "10"), ("mc.paths", "200"), ("run.mode", "penalized")):
            text = with_value(key, raw, text)
        f = tmp_path / "exp.ini"
        f.write_text(text)
        spec = cli.parse_config(f).build()
        assert spec.obstacle(0.0, 1.0) == pytest.approx(0.2)
        assert spec.driver(0.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(-0.2)
        assert cli.run(f, out_dir=tmp_path / "out") == cli.EXIT_OK

    # each simulation failure names the config field it concerns: at
    # p = 1.0001, zeta^2 = 0.05^5000.5 underflows although a^2 = 0.05 >= eps
    # (it used to blame exponents.eps), and mu = 1e308 sends the forward to
    # inf (it used to exit 1 from the solver's check of a flagged bundle)
    @pytest.mark.parametrize("key, raw, message", [
        ("exponents.p", "1.0001", "exponents.p: zeta^2 = (a^2)^(q/2) underflows to 0 on path 0 "
                                  "at node 0: a^2=0.05, q=10001.0000000011"),
        ("problem.mu", "1e308", "problem: non-finite forward state on path 0 at node 2: X=inf"),
    ])
    def test_simulation_assumption_names_field(self, tmp_path, capsys, key, raw, message):
        text = CONFIG
        for k, r in (("problem.name", "american_put"), ("grid.steps", "20"), ("mc.paths", "200"),
                     ("basis.degree", "3"), ("exponents.eps", "0.01"), (key, raw)):
            text = with_value(k, r, text)
        f = tmp_path / "assumption.ini"
        f.write_text(text)
        out = tmp_path / "out"
        assert cli.run(f, out_dir=out) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("raw", HOSTILE)
    @pytest.mark.parametrize("key", FUZZ_KEYS)
    def test_hostile_value(self, tmp_path, capsys, key, raw):
        f = tmp_path / "fuzz.ini"
        f.write_text(with_value(key, raw))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = cli.main(["solve", "--config", str(f), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_SUITE_FAILURE, cli.EXIT_CONFIG_ERROR)
        if code == cli.EXIT_CONFIG_ERROR:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:"), err
            assert key in err[0]
            assert not out.exists() or not any(out.iterdir())


class TestRunModes:
    def test_reflected_artifacts(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = cli.run(config_file, out_dir=out)
        assert code == cli.EXIT_OK
        for name in ("config.ini", "convergence.csv", "norms.csv",
                     "solution.csv", "skorokhod.csv", "manifest.txt"):
            assert (out / name).exists(), name
        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header.split(",") == ["n", "penalty_error", "Y0_mean", "Y0_stderr",
                                     "K_T_mean", "flat_integral", "wall_time"]
        # config echo round-trips
        assert cli.parse_config(out / "config.ini") == cli.parse_config(config_file)

    def test_closed_form_reflected_target(self, config_file, tmp_path):
        out = tmp_path / "out"
        cli.run(config_file, out_dir=out)
        rows = (out / "convergence.csv").read_text().splitlines()
        last = rows[-1].split(",")
        k_T = float(last[4])
        assert abs(k_T - (1.0 - np.exp(-128.0))) <= 1e-3

    def test_oracle_mode(self, config_file, tmp_path):
        out = tmp_path / "oracle"
        code = cli.run(config_file, out_dir=out, mode_override="oracle")
        assert code == cli.EXIT_OK
        y0 = float((out / "solution.csv").read_text().splitlines()[1].split(",")[0])
        assert abs(y0 - 1.0) < 1e-9

    def test_penalized_mode(self, config_file, tmp_path):
        out = tmp_path / "pen"
        code = cli.run(config_file, out_dir=out, mode_override="penalized")
        assert code == cli.EXIT_OK
        assert (out / "convergence.csv").exists()

    def test_penalized_row_agrees_with_the_solution(self, tmp_path):
        # the row comes from the sweep's running sums, the solution row from the grids
        f = tmp_path / "jumps.ini"
        text = with_value("problem.name", "american_put_jumps")
        for key, raw in (("mc.paths", "256"), ("basis.degree", "2"), ("exponents.eps", "0.01"),
                         ("run.mode", "penalized")):
            text = with_value(key, raw, text)
        f.write_text(text)
        out = tmp_path / "pen"
        assert cli.run(f, out_dir=out) == cli.EXIT_OK
        [row] = csv.DictReader((out / "convergence.csv").read_text().splitlines())
        [solution] = csv.DictReader((out / "solution.csv").read_text().splitlines())
        for got, want in (("Y0_mean", "y0_mean"), ("Y0_stderr", "y0_stderr"), ("K_T_mean", "k_T_mean")):
            a, b = float(row[got]), float(solution[want])
            assert b != 0.0 and abs(a - b) <= 1e-12 * abs(b), (got, a, b)

    def test_norms_mode(self, config_file, tmp_path):
        out = tmp_path / "norms"
        code = cli.run(config_file, out_dir=out, mode_override="norms")
        assert code == cli.EXIT_OK
        assert (out / "norms.csv").exists()
        assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("mode", ["reflected", "oracle", "penalized", "norms"])
    def test_overflowing_weights_exit_1_without_csv(self, tmp_path, capsys, mode):
        # q = 21 makes e^{beta A} overflow float64 on american_put with rate 2
        f = tmp_path / "overflow.ini"
        f.write_text(
            CONFIG.replace("name = flat_obstacle", "name = american_put\nrate = 2.0")
            .replace("steps = 200", "steps = 20")
            .replace("paths = 8", "paths = 2000")
            .replace("degree = 0", "degree = 3")
            .replace("p = 1.5", "p = 1.05")
            .replace("eps = 0.5", "eps = 0.01")
        )
        out = tmp_path / mode
        with np.errstate(all="ignore"):
            code = cli.run(f, out_dir=out, mode_override=mode)
        assert code == cli.EXIT_SUITE_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "beta*A_T" in err[0]
        assert not list(out.glob("*.csv"))
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"error {err[0][len('error: '):]}" in manifest
        assert any(line.startswith("timing simulate ") for line in manifest)

    # each used to print numpy's overflow warning before its error and, with
    # RuntimeWarning an error, to end in a traceback leaving only config.ini;
    # the hint names the weights only where e^(beta A_T) itself overflows.
    # A strike of 1e308 overflows the z regressand y dB / dt in every mode,
    # and the implicit step names the root that it leaves not finite
    @pytest.mark.parametrize("edits, cause", [
        ((("problem.name", "american_put"), ("problem.rate", "40")),
         "(the weights are finite; the values themselves leave float64)"),
        ((("problem.name", "american_put"), ("problem.rate", "60")),
         "(a weight e^(c beta A) overflows float64 above c beta A = 709.78)"),
        ((("problem.name", "linear_y"), ("problem.xi", "1e300"), ("exponents.eps", "0.5")),
         "(the weights are finite; the values themselves leave float64)"),
        *(((("problem.name", "american_put"), ("problem.kappa", "1e308"), ("run.mode", mode)),
           "at step 9, path 0: the driver, continuation or obstacle is not finite in its bracket")
          for mode in SOLVE_MODES),
    ], ids=["put_rate_40", "put_rate_60", "linear_y_xi_1e300",
            *(f"put_kappa_1e308_{mode}" for mode in SOLVE_MODES)])
    def test_overflow_with_warnings_as_errors_exits_1_by_name(self, tmp_path, capsys, edits, cause):
        text = CONFIG
        for k, r in (("grid.steps", "10"), ("mc.paths", "64"), ("mc.seed", "0"),
                     ("basis.degree", "2"), ("exponents.eps", "0.01"),
                     ("schedule.levels", "4")) + edits:
            text = with_value(k, r, text)
        f = tmp_path / "overflow.ini"
        f.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(f, out_dir=out) == cli.EXIT_SUITE_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and err[0].endswith(cause), err
        assert not list(out.glob("*.csv"))
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[-1] == f"error {err[0][len('error: '):]}"

    # both used to end in an uncaught RegressionRankError, leaving only config.ini
    @pytest.mark.parametrize("edits, message", [
        ((("problem.name", "american_put"), ("mc.paths", "2"), ("basis.degree", "3"),
          ("run.mode", "oracle")),
         "step 19: 2 paths cannot identify a degree-3 basis; reduce the degree"),
        ((("problem.name", "pure_jump_counter"), ("mc.paths", "500"), ("basis.degree", "6")),
         "step 11: design matrix rank 6 < 7; reduce the degree"),
    ], ids=["oracle_two_paths", "pure_jump_counter_degree_6"])
    def test_rank_short_regression_exits_1_without_csv(self, tmp_path, capsys, edits, message):
        text = CONFIG
        for k, r in (("grid.steps", "20"), ("exponents.eps", "0.01")) + edits:
            text = with_value(k, r, text)
        f = tmp_path / "rank.ini"
        f.write_text(text)
        out = tmp_path / "out"
        assert cli.run(f, out_dir=out) == cli.EXIT_SUITE_FAILURE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert sorted(x.name for x in out.iterdir()) == ["config.ini", "manifest.txt"]
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[-1] == f"error {message}"

    def test_warnings_go_to_manifest(self, tmp_path, capsys):
        # two levels leave the flat obstacle's penalty error above stop_tol
        f = tmp_path / "short.ini"
        f.write_text(with_value("schedule.levels", "2"))
        out = tmp_path / "out"
        assert cli.run(f, out_dir=out) == cli.EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: schedule exhausted at n=2.0")
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert [ln for ln in manifest if ln.startswith("warning")] == [
            f"warning {err[0][len('warning: '):]}"
        ]

    # p near 1 (s_pA_beta about 3e-67 at p = 1.01), p near 2 and a long horizon
    @pytest.mark.parametrize(
        "key, raw", [("exponents.p", "1.01"), ("exponents.p", "1.05"),
                     ("exponents.p", "1.999"), ("grid.horizon", "40")],
    )
    def test_extreme_but_legal_values_give_finite_csvs(self, tmp_path, capsys, key, raw):
        text = CONFIG
        for k, r in (("problem.name", "american_put_jumps"), ("grid.steps", "20"),
                     ("mc.paths", "2000"), ("basis.degree", "3"), ("exponents.eps", "0.01"),
                     ("schedule.levels", "11"), ("schedule.stop_tol", "1e-12"), (key, raw)):
            text = with_value(k, r, text)
        f = tmp_path / "extreme.ini"
        f.write_text(text)
        out = tmp_path / "out"
        assert cli.run(f, out_dir=out) == cli.EXIT_OK
        tables = sorted(out.glob("*.csv"))
        assert [t.name for t in tables] == [
            "convergence.csv", "norms.csv", "skorokhod.csv", "solution.csv"
        ]
        for table in tables:
            rows = list(csv.reader(table.read_text().splitlines()))
            values = [float(cell) for row in rows[1:] for cell in row]
            assert values and all(math.isfinite(v) for v in values), table.name
        assert len((out / "convergence.csv").read_text().splitlines()) == 12
        # p near 1 collapses the weight clock (A_T about 1e-66 at p = 1.01)
        collapsed = raw in ("1.01", "1.05")
        warned = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("warning: weight clock collapsed")]
        assert len(warned) == collapsed
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert any(ln.startswith("warning weight clock collapsed") for ln in manifest) == collapsed

    def test_seed_override_changes_echo(self, config_file, tmp_path):
        out = tmp_path / "seeded"
        cli.run(config_file, out_dir=out, seed=99)
        assert cli.parse_config(out / "config.ini").seed == 99


class TestReproducibility:
    def test_byte_identical_across_threads(self, tmp_path):
        f = tmp_path / "exp.ini"
        f.write_text(
            CONFIG.replace("flat_obstacle", "american_put_jumps")
            .replace("steps = 200", "steps = 10")
            .replace("paths = 8", "paths = 6000")
            .replace("degree = 0", "degree = 3")
            .replace("eps = 0.5", "eps = 0.01")
            .replace("levels = 8", "levels = 3")
        )
        views = {}
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            assert cli.run(f, out_dir=out, threads=threads) == cli.EXIT_OK
            views[threads] = {
                name: cli.reproducibility_view((out / name).read_text())
                for name in ("convergence.csv", "norms.csv", "solution.csv", "skorokhod.csv")
            }
        assert views[1] == views[2] == views[8]

    def test_reproducibility_view_strips_wall_time(self):
        text = "# generated 2020\nn,wall_time,x\n1,0.5,2\n"
        assert cli.reproducibility_view(text) == "n,x\n1,2\n"


FLAG_CASES = {  # flag -> {value: acceptable}
    "--seed": {"0": True, "18446744073709551615": True, "-1": False,
               "18446744073709551616": False, "abc": False, "1.5": False, "": False},
    "--threads": {"1": True, "2": True, "0": False, "-3": False, "x": False, "": False},
    "--out": {"new": True, "dir": True, "file": False, "under_file": False},
}
FLAG_FIELDS = {"--seed": ("--seed", "mc.seed"), "--threads": ("--threads", "run.threads"),
               "--out": ("--out",)}


class TestFlagFuzz:
    """Every combination of hostile and legal --seed, --threads and --out
    exits 0, 1 or 2, and a config error names one of the bad flags."""

    @pytest.mark.parametrize("out_kind", list(FLAG_CASES["--out"]))
    @pytest.mark.parametrize("threads", list(FLAG_CASES["--threads"]))
    @pytest.mark.parametrize("seed", list(FLAG_CASES["--seed"]))
    def test_flags(self, tmp_path, capsys, seed, threads, out_kind):
        f = tmp_path / "exp.ini"
        f.write_text(with_value("grid.steps", "20", with_value("schedule.levels", "3")))
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("keep")
        out = {"new": tmp_path / "new", "dir": tmp_path / "dir", "file": tmp_path / "file",
               "under_file": tmp_path / "file" / "sub"}[out_kind]
        chosen = {"--seed": seed, "--threads": threads, "--out": out_kind}
        bad = [flag for flag, value in chosen.items() if not FLAG_CASES[flag][value]]
        try:
            code = cli.main(["solve", "--config", str(f), "--out", str(out),
                             "--seed", seed, "--threads", threads])
        except SystemExit as exc:  # argparse rejects a value that is not an int
            code = exc.code
        assert code in (cli.EXIT_OK, cli.EXIT_SUITE_FAILURE, cli.EXIT_CONFIG_ERROR)
        assert (code == cli.EXIT_CONFIG_ERROR) == bool(bad)
        assert (tmp_path / "file").read_text() == "keep"
        if bad:
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert any(name in err for flag in bad for name in FLAG_FIELDS[flag]), err
            assert not list(tmp_path.glob("**/config.ini"))


class TestMainEntry:
    def test_solve_subcommand(self, config_file, tmp_path):
        out = tmp_path / "main_out"
        code = cli.main(["solve", "--config", str(config_file), "--out", str(out)])
        assert code == cli.EXIT_OK

    # penalty_decay used to fail at every p <= 1.1: over 11 levels the
    # flat_obstacle decay ratio, 0.0899^p, stays above the 0.05 gate for p < 1.243
    @pytest.mark.parametrize("p", ["1.05", "1.1", "1.5"])
    def test_verify_subcommand_all_pass(self, tmp_path, capsys, p):
        config_file = tmp_path / "exp.ini"
        config_file.write_text(with_value("exponents.p", p))
        out = tmp_path / "verify_out"
        code = cli.main(["verify", "--config", str(config_file), "--out", str(out)])
        assert code == cli.EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "FAIL" not in summary
        lines = (out / "properties.csv").read_text().splitlines()
        assert lines[0] == "name,trials,failures,worst_margin"
        assert len(lines) == 1 + len(summary.splitlines())
        assert lines[1].startswith("jump_inequality,300000,0,")

    def test_verify_at_p_near_1_names_the_field_and_writes_nothing(self, tmp_path, capsys):
        # zeta^2 underflows in the battery's bundles, which are simulated
        # before anything is written
        f = tmp_path / "p_near_1.ini"
        f.write_text(with_value("exponents.p", "1.001"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["verify", "--config", str(f), "--out", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: exponents.p: "), err
        assert not out.exists()

    def test_zeta_overflow_at_p_near_1_names_the_field_and_writes_nothing(self, tmp_path, capsys):
        # american_put at rate 30: a^2 = 30 and q = 1001, so zeta^2 overflows;
        # it used to end as a solver error on an infinite penalty error
        text = with_value("problem.rate", "30", with_value("problem.name", "american_put"))
        for key, raw in [("exponents.p", "1.001"), ("mc.paths", "64"), ("grid.steps", "10"),
                         ("basis.degree", "2")]:
            text = with_value(key, raw, text)
        f = tmp_path / "zeta.ini"
        f.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["solve", "--config", str(f), "--out", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "config error: exponents.p: zeta^2 = (a^2)^(q/2) overflows on path 0 at node 0: "), err
        assert not out.exists()

    def test_env_default_outdir(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        code = cli.run(config_file)
        assert code == cli.EXIT_OK
        assert (tmp_path / "envout" / "manifest.txt").exists()
