"""Experiment harness: configs, runs, persistence, and the CLI on top."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bitboundary import cli, harness
from bitboundary.errors import ConfigError
from bitboundary.harness import (
    GP_TARGETS,
    KIND_CLOSEST,
    KIND_FLIPS,
    KIND_GP_CHECK,
    KIND_GREEDY_VS_EXACT,
    PAIRED_COLUMNS,
    SCALING_COLUMNS,
    ExperimentConfig,
    config_hash,
    network_config_for,
    read_rows_csv,
    refit_rows,
    run_experiment,
    sqrt_n_over_ln_n,
)
from bitboundary.rng import STREAM_WALK, derive_seed, spawn_rng

from conftest import build_linear_net


def tiny_config(kind=KIND_CLOSEST, **kw):
    base = dict(kind=kind, n_values=(16, 24), trials=6, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(kind="walk")
        with pytest.raises(ConfigError):
            tiny_config(n_values=(24, 16))
        with pytest.raises(ConfigError):
            tiny_config(n_values=())
        with pytest.raises(ConfigError):
            tiny_config(trials=0)
        with pytest.raises(ConfigError):
            tiny_config(parallel=0)
        with pytest.raises(ConfigError):
            tiny_config(method="newton")
        with pytest.raises(ConfigError):
            tiny_config(budget=0)
        with pytest.raises(ConfigError):
            tiny_config(kind=KIND_GP_CHECK, n_values=(2,))
        with pytest.raises(ConfigError):
            tiny_config(kind=KIND_GP_CHECK, n_values=(16,), plot_csv="p.csv")
        with pytest.raises(ConfigError):
            tiny_config(activation="swish")
        # every shell up to max_h must exist at the smallest n, whatever the method
        for max_h in (0, -1, 17):
            with pytest.raises(ConfigError):
                tiny_config(max_h=max_h)
            with pytest.raises(ConfigError):
                tiny_config(kind=KIND_GREEDY_VS_EXACT, max_h=max_h)
        assert tiny_config(method="exact", max_h=16).max_h == 16

    def test_network_config_per_n(self):
        config = tiny_config(layers=3)
        nc = network_config_for(config, 24)
        assert nc.n == 24
        assert nc.hidden_widths == (24, 24, 24)
        assert nc.seed == derive_seed(9, 24)
        explicit = tiny_config(widths=(10, 12))
        assert network_config_for(explicit, 16).hidden_widths == (10, 12)

    def test_hash_covers_science_not_execution(self):
        base = tiny_config()
        assert config_hash(base) == config_hash(
            tiny_config(out_csv="x.csv", out_json="y.json", parallel=4)
        )
        assert config_hash(base) != config_hash(tiny_config(seed=10))
        assert config_hash(base) != config_hash(tiny_config(trials=7))
        assert config_hash(base) != config_hash(tiny_config(method="exact"))
        assert config_hash(base) != config_hash(tiny_config(widths=(4, 4)))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("closest")
    config = tiny_config(
        out_csv=str(out / "rows.csv"),
        out_json=str(out / "run.json"),
        plot_csv=str(out / "plot.csv"),
    )
    return config, run_experiment(config)


class TestClosestRun:
    def test_rows_shape(self, tiny_run):
        config, result = tiny_run
        assert result.columns == SCALING_COLUMNS
        assert len(result.rows) == 2 * 6
        assert [r[:2] for r in result.rows] == [
            (n, t) for n in (16, 24) for t in range(6)
        ]
        for row in result.rows:
            assert len(row) == len(SCALING_COLUMNS)
            assert row[3] == -1 or 1 <= row[3] <= row[0]

    def test_aggregates_match_rows(self, tiny_run):
        _, result = tiny_run
        for entry in result.per_n:
            found = [r[3] for r in result.rows if r[0] == entry["n"] and r[3] >= 1]
            np.testing.assert_allclose(entry["mean"], np.mean(found), rtol=1e-12)
            assert entry["count"] == len(found)

    def test_refit_reproduces_fit(self, tiny_run):
        _, result = tiny_run
        per_n, fit, censored = refit_rows(KIND_CLOSEST, result.rows)
        assert per_n == result.per_n
        np.testing.assert_allclose(
            fit.coefficient, result.fit.coefficient, rtol=1e-12
        )
        assert censored == result.details["censored"]

    def test_csv_round_trip_exact(self, tiny_run):
        config, result = tiny_run
        meta, columns, rows = read_rows_csv(config.out_csv)
        assert columns == SCALING_COLUMNS
        assert meta["kind"] == "closest"
        assert meta["seed"] == "9"
        assert meta["config_sha256"] == config_hash(config)
        assert rows == result.rows  # repr floats parse back bitwise

    def test_json_summary(self, tiny_run):
        config, result = tiny_run
        with open(config.out_json) as fh:
            obj = json.load(fh)
        assert obj["config"]["kind"] == "closest"
        assert obj["provenance"]["config_sha256"] == config_hash(config)
        assert obj["fit"]["model"] == "mean_distance=a*sqrt(n/ln(n))"
        assert obj["details"]["kernel"] == {"q": 2.0, "f_prime_1": 1.0}
        assert not obj["truncated"]
        np.testing.assert_allclose(
            obj["fit"]["coefficient"], result.fit.coefficient, rtol=1e-15
        )

    def test_plot_csv(self, tiny_run):
        config, result = tiny_run
        lines = [
            l
            for l in open(config.plot_csv).read().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0] == "x,y,yerr"
        assert len(lines) == 1 + len(result.per_n)
        x0, y0, _ = (float(v) for v in lines[1].split(","))
        np.testing.assert_allclose(x0, float(sqrt_n_over_ln_n(16)), rtol=1e-15)
        np.testing.assert_allclose(y0, result.per_n[0]["mean"], rtol=1e-15)

    def test_details_fields(self, tiny_run):
        _, result = tiny_run
        details = result.details
        assert details["method"] == "greedy"
        assert set(details["censored"]) == {16, 24}
        assert "free_intercept_fit" in details
        assert "power_law_fit" in details


class TestDeterminism:
    def test_parallelism_does_not_change_bytes(self, tmp_path):
        """Byte-identical rows CSV under different worker counts (the
        experiment-level twin of the acceptance determinism criterion)."""
        paths = []
        for parallel in (1, 3):
            out = tmp_path / f"rows_p{parallel}.csv"
            config = tiny_config(
                n_values=(12, 16), trials=4, out_csv=str(out), parallel=parallel
            )
            run_experiment(config)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pool_never_exceeds_tasks_or_cpus(self, monkeypatch):
        """The fork start method starts every worker at once, so --parallel
        1000 used to start 1000 processes for a handful of trials. A fake
        pool records the worker count and starts no process."""
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, chunksize):
                return map(fn, payloads)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        serial = run_experiment(tiny_config(n_values=(12,), trials=5)).rows
        for parallel, trials, workers in ((1000, 3, 2), (1000, 1, 1), (2, 5, 2)):
            config = tiny_config(n_values=(12,), trials=trials, parallel=parallel)
            assert run_experiment(config).rows == serial[:trials]
            assert seen.pop() == workers
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_experiment(tiny_config(n_values=(12,), trials=3, parallel=8))
        assert seen == [1]

    def test_rerun_is_identical(self, tmp_path):
        a = run_experiment(tiny_config(n_values=(12,), trials=4))
        b = run_experiment(tiny_config(n_values=(12,), trials=4))
        assert a.rows == b.rows


class TestFlipsRun:
    def test_walk_rows_and_heuristic(self):
        config = tiny_config(kind=KIND_FLIPS, trials=8)
        result = run_experiment(config)
        assert result.columns == SCALING_COLUMNS
        for row in result.rows:
            assert 1 <= row[3] <= row[0]  # the walk always terminates
        assert result.details["heuristic_slope_lower_bound"] == 0.25
        assert result.fit.model == "mean_steps=s*n"

    def test_passthrough_walk_distances(self, monkeypatch):
        """With phi(x) = x_0 the walk length is exactly the permutation
        position of bit 0 plus one, and its mean approaches (n + 1) / 2."""
        n, trials = 33, 120

        def fake_sample(net_config, trial):
            coeffs = [1.0] + [0.0] * (net_config.n - 1)
            return build_linear_net(coeffs, seed=net_config.seed)

        monkeypatch.setattr(harness, "sample_network", fake_sample)
        config = ExperimentConfig(
            kind=KIND_FLIPS, n_values=(n,), trials=trials, seed=3
        )
        result = run_experiment(config)
        net_seed = network_config_for(config, n).seed
        for row in result.rows:
            perm = spawn_rng(net_seed, STREAM_WALK, row[1]).permutation(n)
            assert row[3] == int(np.flatnonzero(perm == 0)[0]) + 1
        mean = result.per_n[0]["mean"]
        sd = math.sqrt((n * n - 1) / 12.0)
        assert abs(mean - (n + 1) / 2.0) < 5.0 * sd / math.sqrt(trials)


def patch_row_worker(monkeypatch, kind, row):
    """Swap the row worker of one experiment kind for the test's own."""
    spec = dataclasses.replace(harness.EXPERIMENTS[kind], row=row)
    monkeypatch.setitem(harness.EXPERIMENTS, kind, spec)


class TestCensoring:
    def test_boundary_free_nets_are_censored(self, monkeypatch):
        patch_row_worker(
            monkeypatch, KIND_CLOSEST, lambda config, n, trial: (n, trial, 4.0, -1, n)
        )
        result = run_experiment(tiny_config(trials=3))
        assert result.per_n == []
        assert result.fit is None
        assert result.details["censored"] == {16: 3, 24: 3}

    def test_truncation_keeps_partial_rows(self, monkeypatch, tmp_path):
        real = harness.EXPERIMENTS[KIND_CLOSEST].row

        def exploding(config, n, trial):
            if (n, trial) == (24, 1):
                raise KeyboardInterrupt
            return real(config, n, trial)

        patch_row_worker(monkeypatch, KIND_CLOSEST, exploding)
        out = tmp_path / "rows.csv"
        result = run_experiment(tiny_config(trials=3, out_csv=str(out)))
        assert result.truncated
        assert len(result.rows) == 3 + 1  # all of n=16, one row of n=24
        meta, _, _ = read_rows_csv(out)
        assert meta["truncated"] == "1"


class TestGpRun:
    def test_summary_rows_and_details(self):
        config = ExperimentConfig(
            kind=KIND_GP_CHECK, n_values=(16,), trials=50, seed=5
        )
        result = run_experiment(config)
        assert len(result.rows) == len(GP_TARGETS)
        labels = [r[1] for r in result.rows]
        assert labels == [label for label, _ in GP_TARGETS]
        for row in result.rows:
            n, _, h, t, qf = row[:5]
            assert n == 16 and 1 <= h <= 16
            np.testing.assert_allclose(t, 1.0 - 2.0 * h / 16.0, rtol=1e-12)
            assert row[11] == 50  # trials column
        pn = result.details["per_n"]["16"]
        assert pn["trials"] == 50
        assert pn["net_duplicate_corr"] > 0.999999
        assert pn["gp_duplicate_corr"] > 0.999999
        assert result.details["jitter"]["16"] > 0
        assert result.details["max_abs_net_z"] >= 0
        assert set(pn["net_gp_corr_gap"]) == {label for label, _ in GP_TARGETS}

    def test_antipodal_target_reaches_h_equals_n(self):
        config = ExperimentConfig(kind=KIND_GP_CHECK, n_values=(8,), trials=4, seed=1)
        result = run_experiment(config)
        by_label = {r[1]: r for r in result.rows}
        assert by_label["-1.0"][2] == 8
        assert by_label["1-2/n"][2] == 1


class TestGveRun:
    def test_paired_rows_and_invariants(self):
        config = ExperimentConfig(
            kind=KIND_GREEDY_VS_EXACT, n_values=(6, 8), trials=6, seed=21
        )
        result = run_experiment(config)
        assert result.columns == PAIRED_COLUMNS
        assert result.details["total_violations"] == 0
        for row in result.rows:
            g, e = row[3], row[4]
            if g >= 1 and e >= 1:
                assert g >= e
        assert result.details["gap_definition"] == "greedy_distance - exact_distance"
        assert result.fit is None


class TestRefitErrors:
    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            refit_rows(KIND_GP_CHECK, [(16, 0, 1.0, 2, 5)])

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            refit_rows(KIND_CLOSEST, [])


class TestMalformedInput:
    """Inputs that used to run silently, fit NaN, or crash with a traceback
    end as a config error (exit code 2)."""

    HEADER = "# kind=closest\n" + ",".join(SCALING_COLUMNS) + "\n"

    def fit_exit_code(self, tmp_path, body):
        path = tmp_path / "rows.csv"
        path.write_text(self.HEADER + body)
        return cli.main(["fit", str(path)])

    def test_scaling_runs_need_n_of_at_least_3(self):
        assert cli.main(["closest", "--n", "1", "--trials", "3"]) == 2
        for kind in (KIND_CLOSEST, KIND_FLIPS):
            with pytest.raises(ConfigError):
                tiny_config(kind=kind, n_values=(2, 16))

    def test_geometric_range_from_zero_exits_2(self, capsys):
        assert cli.main(["closest", "--n", "0-5:x2", "--trials", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bitboundary: error:") and "0-5:x2" in err

    def assert_one_line_error(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("bitboundary: error:") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_fit_rejects_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff" + self.HEADER.encode())
        assert cli.main(["fit", str(path)]) == 2
        self.assert_one_line_error(capsys, path)

    def test_config_file_rejects_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"trials=\xff\n")
        assert cli.main(["closest", "--config", str(path)]) == 2
        self.assert_one_line_error(capsys, path)

    def test_directory_as_input_exits_2(self, tmp_path, capsys):
        assert cli.main(["fit", str(tmp_path)]) == 2
        self.assert_one_line_error(capsys, tmp_path)
        assert cli.main(["closest", "--config", str(tmp_path)]) == 2
        self.assert_one_line_error(capsys, tmp_path)

    def test_fit_rejects_rows_below_n_3(self, tmp_path):
        assert self.fit_exit_code(tmp_path, "1,0,0.5,1,1\n") == 2

    def test_fit_rejects_short_rows(self, tmp_path):
        assert self.fit_exit_code(tmp_path, "16,0\n") == 2

    def test_refit_checks_every_row(self):
        good = (16, 0, 1.0, 2, 31)
        for bad in (
            (16, 0, 1.0, 0, 31),  # distance 0
            (16, 0, 1.0, 17, 31),  # distance beyond n
            (16, 0, 1.0, 2.5, 31),  # fractional distance
            ("n", 0, 1.0, 2, 31),  # text size
            (16, 0, 1.0, 2, 31, 0),  # a pre-change row with micros
        ):
            with pytest.raises(ConfigError):
                refit_rows(KIND_CLOSEST, [good, bad])

    def test_max_h_beyond_the_shells_exits_2_before_any_trial(self, monkeypatch, capsys):
        """closest --max-h 0 used to run and exit 0 (greedy ignores max_h,
        the config hash does not), and greedy-vs-exact --max-h 99 failed
        only inside its first trial."""

        def never(config, n, trial):
            raise AssertionError("a trial ran")

        for kind, max_h in ((KIND_CLOSEST, "0"), (KIND_GREEDY_VS_EXACT, "99")):
            patch_row_worker(monkeypatch, kind, never)
            assert cli.main([kind, "--n", "8", "--trials", "1", "--max-h", max_h]) == 2
            assert "max_h" in capsys.readouterr().err

    def test_widths_must_match_layers(self):
        """Used to build 2-layer nets while reporting and hashing layers=5."""
        argv = ["closest", "--n", "12,16", "--trials", "3", "--layers", "5", "--widths", "10,10"]
        assert cli.main(argv) == 2
        with pytest.raises(ConfigError):
            tiny_config(widths=(10, 10, 10))
        assert tiny_config(layers=3, widths=(10, 10, 10)).widths == (10, 10, 10)

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-json", "--emit-plot-data"])
    def test_bad_output_path_exits_2_before_any_trial(self, flag, tmp_path, monkeypatch, capsys):
        """A directory used to fail with exit 1, and a missing directory with
        exit 2, only after every trial had run."""

        def never(config, n, trial):
            raise AssertionError("a trial ran")

        patch_row_worker(monkeypatch, KIND_CLOSEST, never)
        for path in (tmp_path, tmp_path / "missing" / "out"):
            assert cli.main(["closest", "--n", "12", "--trials", "2", flag, str(path)]) == 2
            self.assert_one_line_error(capsys, path)
            with pytest.raises(ConfigError):
                tiny_config(out_csv=str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["closest", "--n", "12", "--trials", "2", "--sigma-w2"],
            ["closest", "--n", "12", "--trials", "2", "--sigma-b2"],
            ["theory", "--n", "784", "--a"],
            ["theory", "--n", "784", "--z"],
        ],
        ids=["closest-sigma-w2", "closest-sigma-b2", "theory-a", "theory-z"],
    )
    def test_non_finite_number_exits_2_before_any_trial(
        self, argv, value, monkeypatch, capsys
    ):
        """A NaN variance used to run every trial and then exit 4 without a
        CSV; theory died on --a inf and printed invalid JSON for --z nan."""

        def never(config, n, trial):
            raise AssertionError("a trial ran")

        patch_row_worker(monkeypatch, KIND_CLOSEST, never)
        *head, flag = argv
        assert cli.main([*head, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bitboundary: error:") and value in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        if argv[0] == "closest":
            with pytest.raises(ConfigError):
                tiny_config(**{flag[2:].replace("-", "_"): float(value)})

    def test_theory_shell_beyond_n_exits_2(self, capsys):
        """A finite a whose shell overflows used to die with OverflowError."""
        assert cli.main(["theory", "--n", "784", "--a", "1e308"]) == 2
        assert "beyond n" in capsys.readouterr().err

    def test_theory_json_writes_infinity_as_null(self, capsys):
        """At h_n = 0 the exact ln N is -inf, which JSON cannot spell."""

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        assert cli.main(["theory", "--n", "784", "--a", "0.01"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["h_n"] == 0 and report["ln_N_exact"] is None
        assert report["P_n"] is None and report["ln_N_asymptotic"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--out-csv"],
            ["kernel", "--out-json"],
            ["theory", "--n", "64", "--out-json"],
            ["fit", "ROWS", "--out-json"],
        ],
    )
    def test_bad_output_path_of_kernel_theory_fit_exits_2(self, argv, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        run_experiment(tiny_config(trials=2, out_csv=str(rows)))
        argv = [str(rows) if a == "ROWS" else a for a in argv]
        for path in (tmp_path, tmp_path / "missing" / "out"):
            assert cli.main([*argv, str(path)]) == 2
            self.assert_one_line_error(capsys, path)


class TestReadRowsCsv:
    def test_type_inference_and_meta(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "# kind=closest\n# seed=3\nn,trial,start_phi,distance,evaluations\n"
            "16,0,1.25,2,31\n16,1,-0.5,-1,16\n"
        )
        meta, columns, rows = read_rows_csv(path)
        assert meta == {"kind": "closest", "seed": "3"}
        assert columns == SCALING_COLUMNS
        assert rows == [(16, 0, 1.25, 2, 31), (16, 1, -0.5, -1, 16)]
        assert isinstance(rows[0][0], int) and isinstance(rows[0][2], float)

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# kind=closest\n")
        with pytest.raises(ConfigError):
            read_rows_csv(path)


class TestNValueParsing:
    def test_forms(self):
        assert cli.parse_n_values("64") == (64,)
        assert cli.parse_n_values("64,128, 256") == (64, 128, 256)
        assert cli.parse_n_values("8-12:2") == (8, 10, 12)
        assert cli.parse_n_values("8-11") == (8, 9, 10, 11)
        assert cli.parse_n_values("64-512:x2") == (64, 128, 256, 512)
        assert cli.parse_n_values("64-600:x2") == (64, 128, 256, 512)

    def test_rejects_malformed(self):
        for bad in ("", "abc", "12-8", "8-12:0", "8-12:x1", "8-12:-2"):
            with pytest.raises(ConfigError):
                cli.parse_n_values(bad)

    def test_ordering_is_config_level(self):
        # the parser passes duplicates through; the config rejects them
        assert cli.parse_n_values("4,4") == (4, 4)
        with pytest.raises(ConfigError):
            tiny_config(n_values=(4, 4))

    def test_widths(self):
        assert cli.parse_widths("128,64") == (128, 64)
        with pytest.raises(ConfigError):
            cli.parse_widths("")
        with pytest.raises(ConfigError):
            cli.parse_widths("128,big")
        with pytest.raises(ConfigError):
            tiny_config(widths=(128, 0))


class TestCliExperiments:
    def test_closest_writes_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        out_json = tmp_path / "run.json"
        code = cli.main(
            [
                "closest",
                "--n",
                "12,16",
                "--trials",
                "3",
                "--seed",
                "9",
                "--out-csv",
                str(out_csv),
                "--out-json",
                str(out_json),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "closest: n=12,16 trials=3 seed=9" in text
        meta, _, rows = read_rows_csv(out_csv)
        assert meta["kind"] == "closest"
        assert len(rows) == 6
        obj = json.loads(out_json.read_text())
        assert obj["config"]["n_values"] == [12, 16]

    def test_cli_matches_library_run(self, tmp_path):
        out = tmp_path / "cli.csv"
        assert (
            cli.main(
                ["flips", "--n", "12", "--trials", "4", "--seed", "2", "--out-csv", str(out)]
            )
            == 0
        )
        direct = run_experiment(
            ExperimentConfig(kind=KIND_FLIPS, n_values=(12,), trials=4, seed=2)
        )
        _, _, rows = read_rows_csv(out)
        assert rows == direct.rows

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# nearest-boundary probe\n"
            "kind = closest\n"
            "n = 12,16\n"
            "trials = 3\n"
            "seed = 11\n"
        )
        out_a = tmp_path / "a.json"
        assert cli.main(["closest", "--config", str(cfg), "--out-json", str(out_a)]) == 0
        obj = json.loads(out_a.read_text())
        assert obj["config"]["seed"] == 11
        assert obj["config"]["n_values"] == [12, 16]

        out_b = tmp_path / "b.json"
        assert (
            cli.main(
                [
                    "closest",
                    "--config",
                    str(cfg),
                    "--seed",
                    "12",
                    "--out-json",
                    str(out_b),
                ]
            )
            == 0
        )
        assert json.loads(out_b.read_text())["config"]["seed"] == 12

    def test_config_file_kind_must_match(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = flips\nn = 12\ntrials = 2\n")
        assert cli.main(["closest", "--config", str(cfg)]) == 2

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = closest\nwarp = 9\n")
        assert cli.main(["closest", "--config", str(cfg)]) == 2

    def test_config_file_rejects_duplicate_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = closest\nseed = 1\nseed = 2\n")
        assert cli.main(["closest", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["closest", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestCliExitCodes:
    def test_bad_flag_value(self):
        assert cli.main(["closest", "--n", "banana", "--trials", "2"]) == 2

    def test_unknown_activation(self):
        assert (
            cli.main(["closest", "--n", "12", "--trials", "2", "--activation", "swish"])
            == 2
        )

    def test_budget_exceeded(self):
        code = cli.main(
            ["closest", "--n", "16", "--trials", "1", "--method", "exact", "--budget", "5"]
        )
        assert code == 3

    def test_numerical_fault(self):
        # sigma_w2 = 0 kills signal propagation; F'(1) is undefined
        assert cli.main(["theory", "--n", "512", "--sigma-w2", "0", "--sigma-b2", "1"]) == 4

    def test_keyboard_interrupt_is_130(self, monkeypatch):
        def boom(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["closest", "--n", "12", "--trials", "2"]) == 130

    def test_version_and_help_exit_zero(self, capsys):
        assert cli.main(["--version"]) == 0
        capsys.readouterr()
        assert cli.main(["--help"]) == 0

    def test_no_subcommand_is_config_error(self):
        assert cli.main([]) == 2


class TestCliKernelTheoryFit:
    def test_kernel_json_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "kernel.csv"
        assert cli.main(["kernel", "--out-csv", str(out_csv)]) == 0
        capsys.readouterr()
        assert cli.main(["kernel"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["Q_l"] == [2.0, 2.0, 2.0]
        assert obj["Q"] == 2.0
        assert obj["Fprime1"] == 1.0
        assert obj["activation"] == "relu"

        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# kind=kernel"
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,F_1,F_2,F_3,F"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[-1]) == 1.0

    def test_kernel_honors_params(self, capsys):
        assert cli.main(["kernel", "--sigma-w2", "1", "--sigma-b2", "1", "--layers", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["Q_l"] == [2.0, 2.0]
        np.testing.assert_allclose(obj["Fprime1"], 0.25, rtol=1e-12)

    def test_kernel_tanh_above_q_2_73(self, capsys):
        # Q_1 = 3: past where Gauss-Hermite 128/192 stopped agreeing on tanh^2
        assert cli.main(["kernel", "--activation", "tanh", "--sigma-w2", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["Q_l"][0] == 3.0

    def test_kernel_tanh_table_above_q_3_39(self, tmp_path, capsys):
        # the polar rule alone failed near c = +-1 from Q ~ 3.39 (exit 4)
        out_csv = tmp_path / "kernel.csv"
        argv = ["kernel", "--activation", "tanh", "--sigma-w2", "3.4", "--out-csv", str(out_csv)]
        assert cli.main(argv) == 0
        assert float(out_csv.read_text().splitlines()[-1].split(",")[-1]) == 1.0

    def test_theory_report_round_trip(self, capsys):
        from bitboundary.kernel import build_profile
        from bitboundary.theory import theory_report

        assert cli.main(["theory", "--n", "512", "--a", "0.4", "--z", "1.0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        expected = theory_report(build_profile(), 512, 0.4, 1.0)
        assert obj["h_n"] == expected["h_n"] == 3
        np.testing.assert_allclose(obj["P_n"], expected["P_n"], rtol=1e-12)
        np.testing.assert_allclose(obj["ln_N_exact"], expected["ln_N_exact"], rtol=1e-12)

    def test_theory_requires_n(self):
        assert cli.main(["theory"]) == 2

    def test_fit_round_trip(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        out_json = tmp_path / "run.json"
        assert (
            cli.main(
                [
                    "closest",
                    "--n",
                    "12,16",
                    "--trials",
                    "4",
                    "--seed",
                    "7",
                    "--out-csv",
                    str(out_csv),
                    "--out-json",
                    str(out_json),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert cli.main(["fit", str(out_csv)]) == 0
        refit = json.loads(capsys.readouterr().out)
        original = json.loads(out_json.read_text())
        assert refit["kind"] == "closest"
        np.testing.assert_allclose(
            refit["fit"]["coefficient"], original["fit"]["coefficient"], rtol=1e-12
        )
        assert refit["per_n"] == original["per_n"]

    def test_fit_rejects_wrong_kind(self, tmp_path, capsys):
        out_csv = tmp_path / "gve.csv"
        assert (
            cli.main(
                ["greedy-vs-exact", "--n", "6", "--trials", "2", "--out-csv", str(out_csv)]
            )
            == 0
        )
        capsys.readouterr()
        assert cli.main(["fit", str(out_csv)]) == 2

    def test_fit_missing_file(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "none.csv")]) == 2
