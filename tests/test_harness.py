"""Experiment harness: configs, runs, persistence, and the CLI on top."""

import dataclasses
import json
import math
import platform
import warnings

import numpy as np
import pytest

from bitboundary import cli, harness
from bitboundary.errors import ConfigError, NumericalFaultError
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
)
from bitboundary.kernel import build_profile, overlap
from bitboundary.rng import STREAM_WALK, derive_seed, spawn_rng
from bitboundary.search import DEFAULT_BUDGET
from bitboundary.theory import h_star

from conftest import build_linear_net


def install_fake_pool(monkeypatch):
    """Replace the harness's process pool by one that runs every task in this
    process and starts none. Returns the list of worker counts it was asked for."""
    seen = []

    class FakePool:
        def __init__(self, max_workers, initializer):
            assert initializer is harness._keep_freed_memory
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize):
            return map(fn, payloads)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    return seen


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
            tiny_config(activation="swish")
        # integer settings must be integers; a float, string or bool used to
        # crash, be truncated, or hash apart from the same rows
        for name, value in (
            ("trials", 2.5), ("trials", "3"), ("trials", True), ("seed", 1.5),
            ("layers", 2.0), ("parallel", 1.5), ("n_values", (8.7,)),
            ("widths", (8.5, 8)), ("budget", 20000000.0), ("max_h", 2.0),
        ):
            with pytest.raises(ConfigError, match=name):
                tiny_config(method="exact", **{name: value})
        numpy_trials = tiny_config(trials=np.int64(2))
        assert type(numpy_trials.trials) is int
        assert config_hash(numpy_trials) == config_hash(tiny_config(trials=2))
        # derive_seed reduces seeds mod 2**64, so only [0, 2**64) names a run
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                tiny_config(seed=seed)
        assert tiny_config(seed=2**64 - 1).seed == 2**64 - 1
        # every shell up to max_h must exist at the smallest n, whatever the method
        for max_h in (0, -1, 17):
            with pytest.raises(ConfigError):
                tiny_config(max_h=max_h)
            with pytest.raises(ConfigError):
                tiny_config(kind=KIND_GREEDY_VS_EXACT, max_h=max_h)
        assert tiny_config(method="exact", max_h=16).max_h == 16

    def test_variances_are_real_numbers(self):
        """sigma_w2 = 2, 2.0, np.float64(2.0) and True used to hash the same
        rows four ways, and "2" or None to end in a TypeError."""
        for name in ("sigma_w2", "sigma_b2"):
            for value in ("2", None, True, False):
                with pytest.raises(ConfigError, match="sigma_w2, sigma_b2"):
                    tiny_config(**{name: value})
        reference = config_hash(tiny_config(sigma_w2=2.0, sigma_b2=0.0))
        for sw2, sb2 in ((2, 0), (np.float64(2.0), np.float64(0.0)), (np.int64(2), 0.0)):
            config = tiny_config(sigma_w2=sw2, sigma_b2=sb2)
            assert type(config.sigma_w2) is float and type(config.sigma_b2) is float
            assert config_hash(config) == reference

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

    def test_details_fields(self, tiny_run):
        _, result = tiny_run
        details = result.details
        assert details["method"] == "greedy"
        assert set(details["censored"]) == {16, 24}
        assert "free_intercept_fit" in details
        assert "power_law_fit" in details


class TestPhiBinned:
    """harness._phi_binned on synthetic closest rows (n, trial, phi, distance,
    evaluations), with the default profile: Q = 2, F'(1) = 1."""

    N = 64

    def rows(self, counts, n=N):
        """counts[b] found rows in |phi| bin b, at the bin's centre with
        distance 2b + 1 and alternating signs of phi."""
        width = 0.25 * math.sqrt(2.0)
        rows = []
        for b, count in enumerate(counts):
            for k in range(count):
                phi = (b + 0.5) * width * (-1.0) ** k
                rows.append((n, len(rows), phi, 2 * b + 1, n))
        return rows

    def test_too_few_found_rows(self, default_profile):
        censored = [(self.N, 100 + k, 0.1, -1, self.N) for k in range(30)]
        rows = self.rows([19]) + censored + self.rows([40], n=32)
        assert harness._phi_binned(default_profile, rows, self.N) is None

    def test_bins_fit_and_prediction(self, default_profile):
        q, fp = default_profile.q, default_profile.f_prime_1
        binned = harness._phi_binned(default_profile, self.rows([12, 10, 9, 15]), self.N)
        assert binned["n"] == self.N
        assert binned["bin_width"] == 0.25 * math.sqrt(q)
        # the bin of 9 samples is dropped
        assert [(b["bin"], b["count"]) for b in binned["bins"]] == [(0, 12), (1, 10), (3, 15)]
        for b in binned["bins"]:
            assert b["distance_mean"] == 2 * b["bin"] + 1
            np.testing.assert_allclose(b["phi_mean"], (b["bin"] + 0.5) * binned["bin_width"])
        predicted = binned["predicted_slope"]
        assert predicted == h_star(1.0, q, fp, self.N)
        assert binned["slope_over_predicted"] == binned["fit"]["coefficient"] / predicted


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
        pool records the worker count and starts no process. A run that
        would have one worker starts no pool at all. The CPUs counted are
        the ones this process may run on: under `taskset -c 0` on two CPUs,
        --parallel 2 used to start two workers on one CPU."""
        seen = install_fake_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        serial = run_experiment(tiny_config(n_values=(12,), trials=5)).rows

        def pools(parallel, trials):
            config = tiny_config(n_values=(12,), trials=trials, parallel=parallel)
            assert run_experiment(config).rows == serial[:trials]
            started = list(seen)
            seen.clear()
            return started

        assert pools(1000, 3) == [2]
        assert pools(1000, 1) == []
        assert pools(2, 5) == [2]
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert pools(2, 5) == []
        # no affinity call (macOS, Windows): the machine's count, if known
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert pools(2, 5) == [2]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert pools(8, 3) == []

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


def interrupt_at(monkeypatch, kind, stop):
    """Make the row worker of one kind raise KeyboardInterrupt at (n, trial)
    `stop`, as Ctrl-C would, and run the real worker everywhere else."""
    real = harness.EXPERIMENTS[kind].row

    def exploding(config, n, trial):
        if (n, trial) == stop:
            raise KeyboardInterrupt
        return real(config, n, trial)

    patch_row_worker(monkeypatch, kind, exploding)


def never(config, n, trial):
    """A row worker for runs that must stop before their first trial."""
    raise AssertionError("a trial ran")


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
        interrupt_at(monkeypatch, KIND_CLOSEST, (24, 1))
        out = tmp_path / "rows.csv"
        result = run_experiment(tiny_config(trials=3, out_csv=str(out)))
        assert result.truncated
        assert len(result.rows) == 3 + 1  # all of n=16, one row of n=24
        meta, _, _ = read_rows_csv(out)
        assert meta["truncated"] == "1"

    def test_interrupted_summary_equals_fit_of_its_csv(self, monkeypatch, tmp_path):
        """A run stopped at its third trial used to write censored counts for
        sizes it never reached ({16: 0, 24: 0, 32: 0}), while `fit` of its CSV
        gave {16: 0}."""
        interrupt_at(monkeypatch, KIND_CLOSEST, (16, 2))
        out_csv, out_json = tmp_path / "rows.csv", tmp_path / "run.json"
        config = tiny_config(
            n_values=(16, 24, 32), trials=3, out_csv=str(out_csv), out_json=str(out_json)
        )
        run_experiment(config)
        run = json.loads(out_json.read_text())
        refit = json.loads(harness.json_text(harness.refit_csv(out_csv)))
        assert run["truncated"]
        assert run["per_n"] == refit["per_n"] and [e["n"] for e in run["per_n"]] == [16]
        assert run["fit"] == refit["fit"]
        assert run["details"]["censored"] == refit["censored"] == {"16": 0}

    def test_interrupted_paired_summary_covers_only_sizes_with_rows(self, monkeypatch):
        interrupt_at(monkeypatch, KIND_GREEDY_VS_EXACT, (16, 2))
        config = tiny_config(KIND_GREEDY_VS_EXACT, n_values=(16, 24, 32), trials=3)
        result = run_experiment(config)
        assert result.truncated
        assert {r[0] for r in result.rows} == {16}
        assert list(result.details["censored"]) == list(result.details["violations"]) == [16]
        assert [e["n"] for e in result.per_n] == [16]


class TestGpRun:
    def test_summary_rows_and_details(self):
        config = ExperimentConfig(
            kind=KIND_GP_CHECK, n_values=(16,), trials=50, seed=5
        )
        result = run_experiment(config)
        assert len(result.rows) == len(GP_TARGETS)
        labels = [r[1] for r in result.rows]
        assert labels == [label for label, _ in GP_TARGETS]
        profile = build_profile()
        for row in result.rows:
            n, _, h, t, qf = row[:5]
            assert n == 16 and 1 <= h <= 16
            # bit for bit: the t column and build_ensemble's covariance read one lattice
            assert t == overlap(h, n)
            assert qf == profile.q * profile.evaluate(overlap(h, n))
            assert row[11] == 50  # trials column
        pn = result.details["per_n"]["16"]
        assert pn["trials"] == 50
        assert pn["net_duplicate_corr"] > 0.999999
        assert pn["gp_duplicate_corr"] > 0.999999
        assert result.details["jitter"]["16"] > 0
        assert result.details["max_abs_net_z"] >= 0
        assert set(pn["net_gp_corr_gap"]) == {label for label, _ in GP_TARGETS}

    def test_stat(self):
        """(mean, stderr, z against the target). Without spread z is 0 on
        target and infinite, with the sign of the miss, off it."""
        assert harness._stat(np.full(3, 2.0), 0.0) == (2.0, 0.0, math.inf)
        assert harness._stat(np.full(3, 2.0), 2.0) == (2.0, 0.0, 0.0)
        assert harness._stat(np.full(3, 2.0), 3.0) == (2.0, 0.0, -math.inf)
        assert harness._stat(np.array([1.0, 3.0]), 1.0) == (2.0, 1.0, 1.0)

    def test_draws_without_spread_fail_the_z_check(self, tmp_path, capsys):
        """Width-2 ReLU nets at n = 5 are dead: every draw is 0.0, so net_var
        misses Q with no spread. Its z and max |net z| are infinite (null in
        JSON) instead of a passing 0, and no column without spread warns."""
        out = tmp_path / "gp.json"
        args = ["gp-check", "--n", "5", "--trials", "3", "--widths", "2,2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(
                ExperimentConfig(kind=KIND_GP_CHECK, n_values=(5,), trials=3, widths=(2, 2))
            )
            assert cli.main([*args, "--out-json", str(out)]) == 0
        pn = result.details["per_n"]["5"]
        assert pn["net_var"] == 0.0 and pn["net_var_z"] == -math.inf
        assert math.isnan(pn["net_duplicate_corr"])
        assert result.details["max_abs_net_z"] == math.inf
        assert "max |net z|=inf" in capsys.readouterr().out
        assert json.loads(out.read_text())["details"]["max_abs_net_z"] is None

    def test_truncation_leaves_out_an_n_with_one_row(self, monkeypatch):
        """An interrupt right after an n's first trial used to summarize that
        n from one row: zero-stderr z's of 0, NaN moments and numpy
        RuntimeWarnings."""
        interrupt_at(monkeypatch, KIND_GP_CHECK, (10, 1))
        config = ExperimentConfig(kind=KIND_GP_CHECK, n_values=(8, 10), trials=5, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_experiment(config)
        assert caught == []
        assert result.truncated
        assert list(result.details["per_n"]) == ["8"]
        assert {r[0] for r in result.rows} == {8}

    def test_antipodal_target_reaches_h_equals_n(self):
        config = ExperimentConfig(kind=KIND_GP_CHECK, n_values=(8,), trials=4, seed=1)
        result = run_experiment(config)
        by_label = {r[1]: r for r in result.rows}
        assert by_label["-1.0"][2] == 8
        assert by_label["1-2/n"][2] == 1


@pytest.fixture
def fresh_allocator_setting():
    """Let the test call _keep_freed_memory afresh; the next run sets it again."""
    harness._keep_freed_memory.cache_clear()
    yield
    harness._keep_freed_memory.cache_clear()


class TestFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_trials_reuse_freed_pages(self):
        """At n = 512 a trial under glibc's default thresholds page-faulted
        about 2400 (closest) and 1300 (flips) fresh 4 KB pages, the arrays
        the previous trial freed; kept in the process, they fault a few."""
        import resource  # Unix only, as glibc

        run_experiment(ExperimentConfig(kind=KIND_CLOSEST, n_values=(512,), trials=2))
        for kind in (KIND_CLOSEST, KIND_FLIPS):
            config = ExperimentConfig(kind=kind, n_values=(512,), trials=10, seed=3)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_experiment(config)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            assert faults < 64 * config.trials, kind

    def test_sets_both_thresholds_once(self, monkeypatch, fresh_allocator_setting):
        calls = []

        class FakeLibc:
            mallopt = staticmethod(lambda param, value: calls.append((param, value)) or 1)

        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: FakeLibc())
        harness._keep_freed_memory()
        harness._keep_freed_memory()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("error", [OSError, AttributeError])
    def test_libc_without_mallopt_is_left_alone(
        self, error, monkeypatch, fresh_allocator_setting
    ):
        def no_mallopt(name):
            if error is OSError:
                raise OSError("no libc")
            return object()

        monkeypatch.setattr(harness.ctypes, "CDLL", no_mallopt)
        assert harness._keep_freed_memory() is None
        assert harness._keep_freed_memory() is None
        result = run_experiment(tiny_config(n_values=(12,), trials=2))
        assert len(result.rows) == 2


def test_one_kernel_profile_per_run(monkeypatch):
    """The summaries of closest, flips and gp-check share one profile, built
    before the trials; greedy-vs-exact builds none."""
    calls = []
    real = harness.profile_for_config
    monkeypatch.setattr(harness, "profile_for_config", lambda c: calls.append(c) or real(c))
    for kind in (KIND_CLOSEST, KIND_FLIPS, KIND_GP_CHECK, KIND_GREEDY_VS_EXACT):
        del calls[:]
        run_experiment(tiny_config(kind=kind, n_values=(8, 10), trials=2))
        assert len(calls) == (kind != KIND_GREEDY_VS_EXACT)


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
        for kind, max_h in ((KIND_CLOSEST, "0"), (KIND_GREEDY_VS_EXACT, "99")):
            patch_row_worker(monkeypatch, kind, never)
            assert cli.main([kind, "--n", "8", "--trials", "1", "--max-h", max_h]) == 2
            assert "max_h" in capsys.readouterr().err

    def test_gp_check_with_one_trial_exits_2_before_any_trial(self, monkeypatch, capsys):
        """gp-check --trials 1 used to exit 0 after numpy RuntimeWarnings,
        with every z reported as 0 (a zero stderr) and null moments."""
        patch_row_worker(monkeypatch, KIND_GP_CHECK, never)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["gp-check", "--n", "8", "--trials", "1"]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("bitboundary: error:") and "trials >= 2" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert tiny_config(kind=KIND_GP_CHECK, trials=2).trials == 2

    def test_exact_search_settings_without_exact_search_exit_2(self, monkeypatch, capsys):
        """closest --max-h 3 --budget 5 used to write the plain greedy run's
        rows under another config_sha256."""
        patch_row_worker(monkeypatch, KIND_CLOSEST, never)
        for extra, name in (
            (["--max-h", "3", "--budget", "5"], "max_h"),
            (["--budget", "5"], "budget"),
        ):
            assert cli.main(["closest", "--n", "8", "--trials", "3", *extra]) == 2
            assert name in capsys.readouterr().err
        for kind, setting in (
            (KIND_CLOSEST, {"max_h": 3}),
            (KIND_CLOSEST, {"budget": 5}),
            (KIND_FLIPS, {"max_h": 3}),
            (KIND_GP_CHECK, {"budget": 5}),
            (KIND_FLIPS, {"method": "exact"}),
            (KIND_GREEDY_VS_EXACT, {"method": "exact"}),
        ):
            with pytest.raises(ConfigError, match=next(iter(setting))):
                tiny_config(kind=kind, **setting)
        assert tiny_config(method="exact", max_h=3, budget=5).budget == 5
        assert tiny_config(kind=KIND_GREEDY_VS_EXACT, max_h=3, budget=5).max_h == 3
        assert config_hash(tiny_config(budget=DEFAULT_BUDGET)) == config_hash(tiny_config())

    @pytest.mark.parametrize(
        "argv",
        [
            ["closest", "--n", "8", "--trials", "2", "--out-csv", "d.out", "--out-json", "d.out"],
            ["kernel", "--out-csv", "k", "--out-json", "k"],
        ],
        ids=["csv-json", "kernel"],
    )
    def test_two_outputs_naming_one_file_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        """Each used to exit 0 and leave only the file written last."""
        patch_row_worker(monkeypatch, KIND_CLOSEST, never)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        self.assert_one_line_error(capsys, argv[-1])
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ConfigError):
            tiny_config(out_csv="rows.csv", out_json=str(tmp_path / "rows.csv"))

    def test_fit_out_json_naming_its_input_exits_2(self, tmp_path, capsys):
        """fit used to overwrite its input rows CSV with the report."""
        rows = tmp_path / "rows.csv"
        run_experiment(tiny_config(trials=2, out_csv=str(rows)))
        before = rows.read_bytes()
        assert cli.main(["fit", str(rows), "--out-json", str(rows)]) == 2
        self.assert_one_line_error(capsys, rows)
        assert rows.read_bytes() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["closest", "--n", "8", "--trials", "2", "--out-csv", "run.cfg"],
            ["flips", "--n", "8", "--trials", "2", "--out-json", "./run.cfg"],
            ["kernel", "--out-csv", "run.cfg"],
            ["theory", "--n", "784", "--out-json", "run.cfg"],
        ],
        ids=["closest-csv", "flips-json", "kernel", "theory"],
    )
    def test_output_naming_the_config_file_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        """Each used to exit 0 and overwrite its own config file."""
        for kind in (KIND_CLOSEST, KIND_FLIPS):
            patch_row_worker(monkeypatch, kind, never)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("sigma_w2=2\n", encoding="utf-8")
        assert cli.main([*argv, "--config", "run.cfg"]) == 2
        self.assert_one_line_error(capsys, argv[-1])
        assert list(tmp_path.iterdir()) == [config]
        assert config.read_text(encoding="utf-8") == "sigma_w2=2\n"

    def test_kernel_fault_stops_the_run_before_any_trial(self, monkeypatch, capsys):
        """flips with a tanh kernel past its range used to run every trial,
        then exit 4 from the summary with nothing written. greedy-vs-exact
        reads no kernel, so it still runs."""
        argv = ["--n", "64", "--trials", "3", "--activation", "tanh", "--sigma-w2", "4"]
        for kind in (KIND_CLOSEST, KIND_FLIPS, KIND_GP_CHECK):
            patch_row_worker(monkeypatch, kind, never)
            assert cli.main([kind, *argv]) == 4
            assert "tanh" in capsys.readouterr().err
            with pytest.raises(NumericalFaultError):
                run_experiment(tiny_config(kind=kind, activation="tanh", sigma_w2=4.0))
        paired = tiny_config(
            kind=KIND_GREEDY_VS_EXACT, n_values=(6,), trials=2, activation="tanh", sigma_w2=4.0
        )
        assert len(run_experiment(paired).rows) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, seed, monkeypatch, capsys):
        """Seed -1 used to run and write seed 2**64 - 1's rows under another
        config_sha256."""
        patch_row_worker(monkeypatch, KIND_CLOSEST, never)
        assert cli.main(["closest", "--n", "8", "--trials", "2", "--seed", seed]) == 2
        self.assert_one_line_error(capsys, seed)

    def test_widths_must_match_layers(self):
        """Used to build 2-layer nets while reporting and hashing layers=5."""
        argv = ["closest", "--n", "12,16", "--trials", "3", "--layers", "5", "--widths", "10,10"]
        assert cli.main(argv) == 2
        with pytest.raises(ConfigError):
            tiny_config(widths=(10, 10, 10))
        assert tiny_config(layers=3, widths=(10, 10, 10)).widths == (10, 10, 10)

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-json"])
    def test_bad_output_path_exits_2_before_any_trial(self, flag, tmp_path, monkeypatch, capsys):
        """A directory used to fail with exit 1, and a missing directory with
        exit 2, only after every trial had run; an empty path ran every trial
        and wrote nothing."""
        patch_row_worker(monkeypatch, KIND_CLOSEST, never)
        for path in (tmp_path, tmp_path / "missing" / "out", ""):
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
        for path in (tmp_path, tmp_path / "missing" / "out", ""):
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
        assert "censored" not in text
        meta, _, rows = read_rows_csv(out_csv)
        assert meta["kind"] == "closest"
        assert len(rows) == 6
        obj = json.loads(out_json.read_text())
        assert obj["config"]["n_values"] == [12, 16]

    @pytest.mark.parametrize(
        "argv", [["closest"], ["closest", "--method", "exact"], ["greedy-vs-exact"]]
    )
    def test_summary_names_censored_trials(self, argv, capsys):
        """A run whose every trial was censored used to print only its
        header, with nothing on the console to say no distance was found."""
        assert cli.main([*argv, "--n", "8,10", "--trials", "3", "--sigma-b2", "1e300"]) == 0
        text = capsys.readouterr().out
        assert "n=8: 3 of 3 trials censored" in text
        assert "n=10: 3 of 3 trials censored" in text

    def test_parallel_run_notes_an_unpinned_blas(self, monkeypatch, capsys):
        """Each worker's multithreaded BLAS oversubscribed the CPUs (on two
        CPUs, --parallel 2 took 13.9 s against 10.3 s serially) and nothing
        said so. The note goes to stderr; stdout and the exit code stay."""
        install_fake_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)

        def run(parallel, trials="3"):
            argv = ["closest", "--n", "12", "--trials", trials, "--parallel", parallel]
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
            return out, [line for line in err.splitlines() if "note" in line]

        out, notes = run("2")
        assert len(notes) == 1 and notes[0].startswith("bitboundary: note: ")
        assert "README" in notes[0]
        assert run("1") == (out, [])
        # only a run that starts a pool notes it: one trial runs in this
        # process, and so does a run that may use one CPU
        assert run("4", trials="1") == (run("1", trials="1")[0], [])
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert run("2") == (out, [])
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert run("2") == (out, [])

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

    def test_config_file_hash_inside_a_value_is_not_a_comment(self, tmp_path, monkeypatch):
        """Each line used to be cut at its first `#`, so `out_csv = run#1.csv`
        wrote the rows to a file named `run` and exited 0. A `#` starts a
        comment only at the start of a line or after whitespace."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# probe\ntrials = 3  # three\nout_csv = run#1.csv\n")
        assert cli.main(["closest", "--n", "8", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "run#1.csv"]
        _, _, rows = read_rows_csv(tmp_path / "run#1.csv")
        assert len(rows) == 3
        cfg.write_text("trials=3#x\n")
        assert cli.main(["closest", "--n", "8", "--config", str(cfg)]) == 2

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
        # the tanh table builds at Q_1 = 3.4, near its limit Q_1 ~ 3.67, with
        # F(1) = 1 exactly
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
