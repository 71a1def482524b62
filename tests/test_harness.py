import csv
import json

import numpy as np
import pytest

from hydrobal.cli import main as cli_main
from hydrobal.cases import make_scenario
from hydrobal.config import load_config, validate_config
from hydrobal.errors import ConfigurationError
from hydrobal.harness import (
    format_table,
    run_convergence_study,
    run_efficiency_study,
    run_single,
)
from hydrobal.runner import run
from hydrobal.scheme import Scheme


class TestConfig:
    def test_minimal(self):
        cfg = validate_config({"scenario": "isothermal-10x"})
        assert cfg.scheme == "standard"
        assert cfg.n == 64

    def test_unknown_keys_rejected(self):
        for key in ("extra", "seed"):
            with pytest.raises(ConfigurationError, match=key):
                validate_config({"scenario": "isothermal-10x", key: 1})

    def test_type_checked(self):
        with pytest.raises(ConfigurationError):
            validate_config({"scenario": "isothermal-10x", "order": "three"})

    def test_reference_block_validated(self):
        with pytest.raises(ConfigurationError):
            validate_config({"scenario": "x", "reference": {"kind": "other"}})
        with pytest.raises(ConfigurationError):
            validate_config({"scenario": "x", "reference": {"kind": "fine",
                                                            "bogus": 1}})

    @pytest.mark.parametrize("key, value", [
        ("order", True), ("n", False), ("cfl", True), ("t_end", True),
        ("resolutions", [16, True]),
        ("reference", {"kind": "fine", "n": True}),
    ])
    def test_bool_rejected_for_numbers(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=key):
            validate_config({"scenario": "isothermal-10x", key: value})

    def test_unknown_scenario_params_rejected(self):
        cfg = validate_config({"scenario": "isothermal-10x",
                               "scenario_params": {"eta": 0.1}})
        with pytest.raises(ConfigurationError, match="'eta'"):
            run_single(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"reference": {"kind": "fine"}}, "reference.n"),
        ({"repetitions": 0}, "repetitions"),
        ({"eps_w": -0.001}, "eps_w"),
        ({"eps_w": 0}, "eps_w"),
        ({"damping": -0.5}, "damping"),
        ({"eps_w": 1e-300}, "eps_w"),
        ({"eps_w": 1e200}, "eps_w"),
    ])
    def test_out_of_range_value_names_the_key(self, extra, key):
        with pytest.raises(ConfigurationError, match=key):
            validate_config({"scenario": "isothermal-10x", **extra})

    @pytest.mark.parametrize("extra, key", [
        ({"t_end": float("inf")}, "t_end"), ({"t_end": float("nan")}, "t_end"),
        ({"t_end": -1.0}, "t_end"), ({"damping": float("nan")}, "damping"),
        ({"init": "bogus"}, "init")])
    def test_out_of_range_run_input_names_the_key(self, extra, key):
        with pytest.raises(ConfigurationError, match=key):
            validate_config({"scenario": "isothermal-10x", **extra})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "isothermal-sin",
                                    "scheme": "la", "order": 3, "n": 32}))
        cfg = load_config(path)
        assert cfg.scheme == "la"
        assert cfg.n == 32


class TestStudies:
    def test_convergence_study_rows_and_rates(self):
        cfg = validate_config({
            "scenario": "isothermal-10x", "scheme": "standard", "order": 3,
            "resolutions": [16, 32], "t_end": 0.05})
        report = run_convergence_study(cfg)
        assert len(report["rows"]) == 2
        assert report["rows"][0].get("rates") is None
        assert report["rows"][1]["rates"] is not None
        assert report["rows"][1]["rates"][2] > 2.0

    def test_single_resolution_no_rates(self):
        cfg = validate_config({"scenario": "isothermal-10x", "n": 16,
                               "t_end": 0.05})
        report = run_convergence_study(cfg)
        assert "rates" not in report["rows"][0]
        assert "FAILED" not in format_table(report)

    def test_failure_recorded_study_continues(self):
        # the discrete isothermal-10x equilibrium has a non-positive ghost
        # pressure at n = 16 (DWB-O3): that row records the failure, the
        # finer rows still run, and only the doubled pair 64 -> 128 has rates
        cfg = validate_config({
            "scenario": "isothermal-10x", "scheme": "dwb", "order": 3,
            "init": "discrete", "resolutions": [16, 64, 128], "t_end": 0.002})
        failed, coarse, fine = run_convergence_study(cfg)["rows"]
        assert failed["failure"].startswith("InitializationError")
        assert failed["errors"] is None and "rates" not in failed
        assert coarse["failure"] is None and fine["failure"] is None
        assert "rates" not in coarse and len(fine["rates"]) == 3

    def test_determinism_bit_identical(self):
        cfg = validate_config({"scenario": "isothermal-sin", "scheme": "la",
                               "order": 3, "n": 24, "t_end": 0.1})
        a, ea = run_single(cfg)
        b, eb = run_single(cfg)
        assert np.array_equal(a.final.data, b.final.data)
        assert np.array_equal(ea, eb)

    @pytest.mark.parametrize("n, n_ref", [(32, 16), (48, 32)])
    def test_reference_resolution_checked(self, n, n_ref):
        # the fine reference must be the run's resolution times an integer
        cfg = validate_config({
            "scenario": "isothermal-10x", "n": n, "t_end": 0.01,
            "reference": {"kind": "fine", "n": n_ref}})
        with pytest.raises(ConfigurationError,
                           match=f"n = {n_ref} .* n = {n}"):
            run_single(cfg)

    def test_2d_errors_vs_fine_reference(self):
        # the fine 2-D reference is block-averaged 2 x 2 onto the run's grid
        scen = make_scenario("polytrope-2d", perturbation=1e-3)
        scheme = Scheme("la", 3)
        coarse = run(scen, scheme, 8, t_end=0.01)
        fine = run(scen, scheme, 16, t_end=0.01)
        blocks = fine.final.interior().reshape(4, 8, 2, 8, 2).mean(axis=(2, 4))
        expected = np.abs(coarse.final.interior() - blocks).sum(axis=(1, 2)) \
            / 64.0
        errors = coarse.errors_vs(fine)
        assert errors.shape == (4,) and np.all(errors > 0.0)
        assert np.allclose(errors, expected, rtol=1e-14, atol=0.0)

    def test_fine_reference_uses_the_run_init(self):
        # with discrete init the fine reference starts from its own discrete
        # equilibrium, so both runs stay at rest: the momentum error is
        # roundoff (it read 1e-8 against a quadrature-averages reference)
        # and the energy error is the discrete state's truncation error
        cfg = validate_config({
            "scenario": "isothermal-10x", "scheme": "dwb", "order": 3,
            "init": "discrete", "n": 64, "t_end": 0.01,
            "reference": {"kind": "fine", "n": 128}})
        result, errors = run_single(cfg)
        fine = run(make_scenario("isothermal-10x"), Scheme("dwb", 3), 128,
                   t_end=0.01, init="discrete")
        assert np.array_equal(errors, result.errors_vs(fine))
        assert errors[1] < 1e-15

    @pytest.mark.parametrize("name, n, eps_w", [
        ("isothermal-sin", 16, 0.0),
        ("isothermal-sin", 16, -1e-3),
        ("polytrope-2d", 8, 0.0),
        ("polytrope-2d", 8, -1e-3),
    ])
    def test_non_positive_eps_w_rejected(self, name, n, eps_w):
        with pytest.raises(ConfigurationError, match="eps_w"):
            run(make_scenario(name), Scheme("la", 3), n, t_end=0.01,
                eps_w=eps_w)

    @pytest.mark.parametrize("eps_w", [1e-300, 1e200, np.inf])
    @pytest.mark.parametrize("scenario, scheme", [
        (("isothermal-perturbed", {"eta": 1e-3}), Scheme("dwb", 3)),
        (("isothermal-10x", {}), Scheme("standard", 3)),
    ])
    def test_eps_w_with_a_non_normal_square_rejected(self, scenario, scheme,
                                                     eps_w):
        # such an eps_w made NaN weights and a StepFailure at the first stage
        name, kwargs = scenario
        with pytest.raises(ConfigurationError, match="eps_w"):
            run(make_scenario(name, **kwargs), scheme, 32, t_end=0.01,
                eps_w=eps_w)

    def test_efficiency_single_repetition_zero_variance(self):
        cfg = validate_config({"scenario": "isothermal-10x", "n": 16,
                               "t_end": 0.05, "repetitions": 1,
                               "resolutions": [16]})
        report = run_efficiency_study(cfg)
        assert report["rows"][0]["var_time"] == 0.0


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["run", "--scenario", "isothermal-10x", "--scheme", "dwb",
                       "--order", "3", "--n", "16", "--t-end", "0.05",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L1[E]" in out
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["config"]["scheme"] == "dwb"
        assert "hydrobal" in meta["versions"]
        fields = list(tmp_path.glob("fields_*.csv"))
        assert fields
        with open(fields[0]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "rho", "rho_u", "E"]
        assert len(rows) == 17

    def test_run_writes_2d_fields(self, tmp_path):
        rc = cli_main(["run", "--scenario", "polytrope-2d", "--scheme", "la",
                       "--n", "8", "--t-end", "0.01", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "fields_polytrope-2d_8.csv") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["x", "y", "rho", "rho_u", "rho_v", "E"]
        assert len(rows) == 64
        q = run(make_scenario("polytrope-2d"), Scheme("la", 3), 8,
                t_end=0.01).final.interior()
        centers = -0.5 + (np.arange(8) + 0.5) / 8
        for k, row in enumerate(rows):
            i, j = divmod(k, 8)          # x-major: y varies fastest
            assert float(row[0]) == pytest.approx(centers[i], abs=1e-12)
            assert float(row[1]) == pytest.approx(centers[j], abs=1e-12)
            assert [float(v) for v in row[2:]] == q[:, i, j].tolist()

    def test_study_writes_report_csv(self, tmp_path):
        rc = cli_main(["study", "--scenario", "isothermal-10x",
                       "--scheme", "standard", "--order", "3",
                       "--resolutions", "16", "32", "--t-end", "0.05",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "report.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["component", "N", "error", "rate"]
        assert (tmp_path / "table.txt").exists()

    def test_bench_runs(self, tmp_path, capsys):
        rc = cli_main(["bench", "--scenario", "isothermal-10x",
                       "--resolutions", "16", "--repetitions", "2",
                       "--t-end", "0.02", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.csv").exists()
        (row,) = json.loads((tmp_path / "meta.json").read_text())["rows"]
        assert row["n"] == 16 and row["mean_time"] > 0.0
        assert row["var_time"] >= 0.0
        assert len(row["errors"]) == 3
        assert all(isinstance(err, float) for err in row["errors"])

    def test_bench_records_a_failed_row_and_continues(self, tmp_path,
                                                      capsys):
        # n = 3 is too small for DWB-O5's ghost fill: that row records the
        # failure in every output, n = 16 still runs, and, as with `study`,
        # the command fails only when every row does
        args = ["bench", "--scenario", "isothermal-10x", "--scheme", "dwb",
                "--order", "5", "--t-end", "0.01", "--out", str(tmp_path),
                "--resolutions", "3"]
        assert cli_main(args + ["16"]) == 0
        assert "N=    3 FAILED: ConfigurationError" in capsys.readouterr().out
        failed, ok = json.loads((tmp_path / "meta.json").read_text())["rows"]
        assert failed["n"] == 3
        assert failed["failure"].startswith("ConfigurationError")
        assert failed["errors"] is None and failed["mean_time"] is None
        assert ok["n"] == 16 and ok["failure"] is None
        assert ok["mean_time"] > 0.0 and len(ok["errors"]) == 3
        with open(tmp_path / "report.csv") as handle:
            _, first, *rest = list(csv.reader(handle))
        assert first[:4] == ["3", "", "", "-"]
        assert first[4].startswith("failed: ConfigurationError")
        assert [row[0] for row in rest] == ["16"] * 3
        assert cli_main(args) == 1

    def test_bench_takes_repetitions_from_config(self, tmp_path,
                                                 monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return run(*args, **kwargs)

        monkeypatch.setattr("hydrobal.harness.run", counted)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "isothermal-10x",
                                    "repetitions": 3, "t_end": 0.002}))
        rc = cli_main(["bench", "--config", str(path), "--resolutions", "8",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert calls == [8, 8, 8]
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["config"]["repetitions"] == 3

    def test_check_subcommand_gone(self, capsys):
        # the property checks live in the test suite, not behind the CLI
        with pytest.raises(SystemExit) as exc:
            cli_main(["check"])
        assert exc.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "isothermal-10x", "n": 16,
                                    "t_end": 0.02}))
        rc = cli_main(["run", "--config", str(path), "--scheme", "la"])
        assert rc == 0
        assert "scheme=LA-O3" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, key", [
        ({"order": True}, "order"),
        ({"scenario_params": {"bogus": 1}}, "bogus"),
        ({"reference": {"kind": "fine"}}, "reference.n"),
    ])
    def test_bad_config_file_errors(self, tmp_path, capsys, extra, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "isothermal-10x", "n": 16,
                                    "t_end": 0.02, **extra}))
        rc = cli_main(["run", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("config, args, named", [
        ({}, ["--scenario", "nope"], "'nope'"),
        ({}, ["--flux", "bogus"], "'bogus'"),
        ({"scenario_params": {"gamma": 0.5}}, [], "gamma = 0.5"),
        ({"scenario": "polytropic-radiation", "scenario_params": {"nu": 1}},
         [], "nu = 1"),
        ({"scenario": "isothermal-perturbed",
          "scenario_params": {"eta": "big"}}, [], "'eta'"),
        ({"scenario": "isothermal-perturbed",
          "scenario_params": {"eta": float("nan")}}, [], "'eta'"),
    ], ids=["scenario", "flux", "gamma", "nu", "eta-string", "eta-nan"])
    def test_bad_value_names_the_input(self, tmp_path, capsys, config, args,
                                       named):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "isothermal-10x", "n": 16,
                                    "t_end": 0.02, **config}))
        rc = cli_main(["run", "--config", str(path), *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("config, args, key", [
        ({"t_end": float("inf")}, [], "t_end"),
        ({"damping": float("nan")}, [], "damping"),
        ({}, ["--t-end", "-1"], "t_end")], ids=["inf", "nan", "negative"])
    def test_out_of_range_run_input_exits_2(self, tmp_path, capsys, config,
                                            args, key):
        # JSON's Infinity and NaN literals parse to floats
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "isothermal-10x", "n": 16,
                                    **config}))
        rc = cli_main(["run", "--config", str(path), *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert "steps=" not in captured.out
        assert captured.err.startswith("error: ") and key in captured.err

    def test_study_meta_records_every_row(self, tmp_path):
        rc = cli_main(["study", "--scenario", "isothermal-10x",
                       "--scheme", "dwb", "--order", "3",
                       "--resolutions", "2", "16", "--t-end", "0.02",
                       "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "meta.json").read_text())["rows"]
        assert [row["n"] for row in rows] == [2, 16]
        failed, ok = rows
        assert failed["failure"].startswith("ConfigurationError")
        assert failed["steps"] is None and failed["errors"] is None
        assert ok["failure"] is None and ok["steps"] > 0
        assert ok["wall_time"] > 0.0 and ok["fallback_cells"] == 0
        assert len(ok["errors"]) == 3

    def test_missing_scenario_parameter_named(self, capsys):
        rc = cli_main(["run", "--scenario", "isothermal-perturbed",
                       "--n", "16", "--t-end", "0.01"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'eta'" in err

    def test_missing_scenario_errors(self, capsys):
        rc = cli_main(["run", "--n", "16"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def test_efficiency_la_dominates_standard_2d():
    """For the small 2-D perturbation the LA curve lies below the standard
    curve: at matched resolutions LA reaches errors orders of magnitude lower
    for a bounded factor in time, so the coarsest LA point already beats the
    finest standard point in BOTH time and error."""
    from hydrobal.cases import polytrope_2d
    from hydrobal.runner import run
    from hydrobal.scheme import Scheme

    scen = polytrope_2d(perturbation=1e-8)
    data = {}
    for kind in ("standard", "la"):
        rows = []
        for n in (16, 32):
            res = run(scen, Scheme(kind, 3), n)
            rows.append((res.wall_time, res.errors_vs_initial()[3]))
        data[kind] = rows
        # monotone error decrease with resolution
        assert rows[1][1] < rows[0][1]
    la_coarse = data["la"][0]
    std_fine = data["standard"][1]
    assert la_coarse[1] < std_fine[1]
    assert la_coarse[0] < std_fine[0]
