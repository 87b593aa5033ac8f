import argparse
import hashlib
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsetrace import harness
from sparsetrace.harness import (
    EXIT_ACCEPTANCE,
    EXIT_BUG,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    main,
    parse_cli,
    run,
)
from sparsetrace.learners import LEARNER_KINDS, SUBSAMPLE
from sparsetrace.problems import BOX_LP, VARIANTS
from sparsetrace.tracers import ROW_LIMIT

SEED = 20240906
ROOT = Path(__file__).resolve().parents[1]
TEST_PID = os.getpid()  # forked workers inherit it, so a trial can tell it runs in one


def _fails_in_a_worker(cfg, plan, trial, rng):
    if os.getpid() != TEST_PID:
        raise ValueError(f"bug in trial {trial}")
    return (trial,)


def _killed_in_a_worker(cfg, plan, trial, rng):
    if os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return (trial,)


def _trial_runner(fn):
    """A trace runner that maps the module-level fn over the trials.  Only this process reads
    EXPERIMENTS, so patching it leaves no patched code in the kept worker pool."""
    def runner(cfg, plan, threads):
        return ("trial_index",), harness._map_trials(cfg, plan, "trace", threads, fn), [], []
    return harness.Experiment("maps a test function", runner, harness._TRIAL_FIELDS)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _flags(command):
    """{dest: option strings} of every option of one subcommand but --help."""
    sub = next(a for a in harness._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"}


def _summary(path, column) -> float:
    """The mean in a CSV's #summary row for one column."""
    line = next(l for l in path.read_text().splitlines() if l.startswith(f"#summary,{column},"))
    return float(line.split(",")[2])


def _summary_pair(path, column) -> tuple[float, float]:
    """The mean and CI half-width in a CSV's #summary row for one column."""
    line = next(l for l in path.read_text().splitlines() if l.startswith(f"#summary,{column},"))
    return float(line.split(",")[2]), float(line.split(",")[3])


def _small_trace(tmp_path, **overrides):
    base = dict(experiment="trace", d=64, n=16, M=50, trials=10, alpha_target=0.1,
                master_seed=SEED, output_path=str(tmp_path / "out.csv"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(
            experiment="sweep", d=48, p=2.5, k=12, learner="gaussian_dp",
            epsilon=0.7, delta=3e-6, xi=0.02, beta=4.25, n=33, M=77, trials=5,
            noise_scales=(0.5, 1.25, 3.0), master_seed=987654321,
            output_path="dir/results.csv")
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_unparsable_value_is_usage_error(self):
        for text in ("experiment = trace\nd = 1.5\n", "experiment = sweep\nnoise_scales = 1,x\n"):
            with pytest.raises(UsageError, match="could not parse"):
                ExperimentConfig.from_text(text)

    def test_round_trip_preserves_none_and_floats(self):
        cfg = ExperimentConfig(experiment="trace", alpha_target=0.1234567890123456,
                               k=None, s=None)
        assert "p = none\n" in cfg.to_text()
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again.p is None and again.k is None and again.alpha_target == cfg.alpha_target

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_text("experiment = trace\nbogus = 1\n")

    def test_validate_names_offending_field(self):
        inf, nan = float("inf"), float("nan")
        cases = [
            (dict(p=0.5, alpha_target=0.1), "p"),
            (dict(xi=1.5, alpha_target=0.1), "xi"),
            (dict(), "beta"),
            # The l1 prior takes its gamma from alpha_target.
            (dict(variant="l1_capped", s=4, beta=2.0), "alpha_target"),
            # epsilon / inf = 0 is outside gaussian_dp's range.
            (dict(experiment="sweep", learner="gaussian_dp", beta=2.0, noise_scales=(1.0, inf)),
             "noise_scales"),
            # Non-finite values that would otherwise reach the CSV as NaN.
            (dict(beta=inf), "beta"),
            (dict(beta=nan), "beta"),
            (dict(p=inf, alpha_target=0.1), "p"),
            (dict(t_hat=inf, alpha_target=0.1), "t_hat"),
            # Only l1_capped has a cap; on box_lp s would just rescale the score.
            (dict(k=8, s=4, alpha_target=0.1), "s"),
            # The plain l_1 ball is l1_capped at s = 1, not a variant of its own.
            (dict(variant="l1_counterexample", alpha_target=0.1), "variant"),
            # Only box_lp reads p and k; l1_capped data are dense.
            (dict(variant="l1_capped", s=4, p=3.0, alpha_target=0.1), "p"),
            (dict(variant="l1_capped", s=4, k=8, alpha_target=0.1), "k"),
            (dict(master_seed=-1, alpha_target=0.1), "master_seed"),
            (dict(n=0, alpha_target=0.1), "n"),
            (dict(M=0, alpha_target=0.1), "M"),
            (dict(trials=0, alpha_target=0.1), "trials"),
            (dict(learner="subsample", subsample_m=65, alpha_target=0.1), "subsample_m"),
            # Only the subsample learner reads subsample_m.
            (dict(subsample_m=3, alpha_target=0.1), "subsample_m"),
            (dict(experiment="sweep", learner="gaussian_dp", beta=2.0, noise_scales=(1.0, -2.0)),
             "noise_scales"),
            # Adjacent scales are compared in the order given, which must be rising noise.
            (dict(experiment="sweep", learner="gaussian_dp", beta=2.0, noise_scales=(4.0, 1.0, 0.25)),
             "noise_scales"),
            (dict(experiment="sweep", learner="gaussian_dp", beta=2.0, noise_scales=(1.0, 1.0)),
             "noise_scales"),
            (dict(experiment="sweep", learner="gaussian_dp", beta=2.0, noise_scales=(1.0, nan)),
             "noise_scales"),
        ]
        for overrides, field in cases:
            cfg = ExperimentConfig(**{"experiment": "trace", **overrides})
            with pytest.raises(UsageError, match=f"^{field}: "):
                cfg.validate()

    def test_validate_returns_the_domain_objects(self):
        plan = ExperimentConfig(experiment="sweep", learner="gaussian_dp", epsilon=2.0,
                                beta=3.0, noise_scales=(0.5, 4.0)).validate()
        assert [lc.epsilon for lc in plan.learners] == [4.0, 0.5]
        assert (plan.prior.beta, plan.policy.xi, plan.spec.k) == (3.0, 0.05, 64)
        assert ExperimentConfig(experiment="verify").validate() is None


class TestParseCli:
    def test_spec_example_flags(self):
        cfg = parse_cli(["trace", "--d", "1024", "--n", "64", "--p", "2",
                         "--learner", "erm", "--xi", "0.05", "--seed", "7",
                         "--alpha-target", "0.1"])
        assert (cfg.d, cfg.n, cfg.p, cfg.learner, cfg.xi, cfg.master_seed) == \
            (1024, 64, 2.0, "erm", 0.05, 7)

    def test_invalid_p_is_usage_error(self):
        assert main(["trace", "--p", "0.5", "--alpha-target", "0.1",
                     "--out", "/tmp/never.csv"]) == EXIT_USAGE

    def test_unknown_flag_rejected(self):
        assert main(["trace", "--frobnicate", "1"]) == EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = ExperimentConfig(experiment="trace", d=32, trials=7, alpha_target=0.1,
                               output_path=str(tmp_path / "a.csv"))
        path = tmp_path / "exp.cfg"
        path.write_text(cfg.to_text())
        parsed = parse_cli(["trace", "--config", str(path), "--trials", "500"])
        assert parsed.trials == 500 and parsed.d == 32

    def test_missing_config_file_is_usage_error(self):
        assert main(["trace", "--config", "/nonexistent/x.cfg"]) == EXIT_USAGE

    def test_config_file_cannot_change_the_subcommand(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = sweep\nlearner = gaussian_dp\nbeta = 2\n")
        assert main(["trace", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: experiment: the config file sets 'sweep', the subcommand 'trace'\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("extra", [
        ["--variant", "l1_capped", "--s", "4", "--p", "3"],
        ["--variant", "l1_capped", "--s", "4", "--k", "8"],
        ["--variant", "l1_counterexample"],
        ["--subsample-m", "3"],
    ])
    def test_settings_the_run_would_ignore_are_usage_errors(self, tmp_path, extra):
        assert main(["trace", "--d", "64", "--trials", "2", "--alpha-target", "0.1",
                     "--out", str(tmp_path / "t.csv")] + extra) == EXIT_USAGE
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("extra", [
        ["--d", "3", "--k", "1", "--xi", "1e-12"],
        ["--d", "3", "--k", "1", "--xi", "1e-300"],
        ["--variant", "l1_capped", "--s", "2", "--d", "8", "--xi", "1e-12"],
    ])
    def test_a_sampled_null_past_the_row_limit_is_a_usage_error(self, tmp_path, capsys, extra):
        # ceil(10 / xi) null rows: 72.8 TiB of rows at 1e-12, past numpy's largest dimension at 1e-300.
        out = tmp_path / "t.csv"
        assert main(["trace", "--n", "16", "--trials", "1", "--alpha-target", "0.1",
                     "--out", str(out)] + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: xi: ") and f"limit of {ROW_LIMIT} rows" in err
        assert "exact path" in err and not out.exists()

    @pytest.mark.parametrize("extra, field", [
        (["--d", "3", "--k", "1", "--n", "16", "--M", "10000000000000"], "M"),
        (["--d", "3", "--k", "1", "--n", "10000000000000", "--M", "50"], "n"),
        (["--d", "64", "--n", "10000000000000"], "n"),
    ])
    def test_samples_past_the_row_limit_are_usage_errors(self, tmp_path, capsys, extra, field):
        # Without the limit each asks numpy for about 73 TiB of rows and exits 4.
        out = tmp_path / "t.csv"
        assert main(["trace", "--trials", "1", "--alpha-target", "0.1", "--out", str(out)] + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {field}: must be <= {ROW_LIMIT}, the most rows one sample may hold\n"
        assert not out.exists()

    def test_the_exact_path_takes_a_tiny_xi(self, tmp_path):
        # Vertex learners at k = d draw no null rows, so the row limit does not apply.
        out = tmp_path / "t.csv"
        assert main(["trace", "--d", "64", "--n", "16", "--trials", "2", "--xi", "1e-12",
                     "--alpha-target", "0.1", "--out", str(out)]) == EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("key, flag, value", [
        ("d", "--d", "1.5"), ("d", "--d", "none"), ("xi", "--xi", "abc"),
        ("noise_scales", "--noise-scales", "1,x"),
    ])
    def test_bad_value_fails_alike_as_flag_and_config_line(self, tmp_path, capsys, key, flag,
                                                           value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"experiment = sweep\n{key} = {value}\n")
        expected = f"error: {key}: could not parse {value!r}\n"
        for argv in (["sweep", flag, value], ["sweep", "--config", str(path)]):
            assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
            assert capsys.readouterr() == ("", expected)

    def test_none_clears_an_optional_config_value(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = trace\nk = 8\nalpha_target = 0.1\n")
        assert parse_cli(["trace", "--config", str(path)]).k == 8
        assert parse_cli(["trace", "--config", str(path), "--k", "none"]).k is None

    def test_trace_has_one_flag_per_config_field(self):
        flags = _flags("trace")
        names = {f.name for f in fields(ExperimentConfig)} - {"experiment", "noise_scales"}
        assert set(flags) == names | {"config", "threads"}
        assert all(len(options) == 1 for options in flags.values())
        assert flags["master_seed"] == ["--seed"] and flags["output_path"] == ["--out"]
        assert flags["alpha_target"] == ["--alpha-target"] and flags["M"] == ["--M"]

    def test_noise_scales_flag_only_on_sweep(self):
        for command in ("verify", "trace", "dp-audit", "sweep", "trace-value"):
            assert ("noise_scales" in _flags(command)) == (command == "sweep")

    def test_verify_takes_only_run_flags(self):
        assert set(_flags("verify")) == {"master_seed", "output_path", "config", "threads"}

    def test_trace_value_takes_only_flags_it_reads(self, tmp_path):
        assert not {"M", "xi", "t_hat"} & set(_flags("trace-value"))
        assert main(["trace-value", "--M", "5", "--alpha-target", "0.1",
                     "--out", str(tmp_path / "tv.csv")]) == EXIT_USAGE
        assert ExperimentConfig(experiment="trace_value", M=0, alpha_target=0.1).validate().policy is None

    def test_dp_audit_takes_no_t_hat(self, tmp_path):
        # The recall ceiling n e^eps xi + n delta assumes the xi null-quantile
        # threshold; a t_hat / 2 threshold flags at another rate.
        assert "t_hat" not in _flags("dp-audit")
        assert main(["dp-audit", "--d", "64", "--n", "16", "--M", "50", "--trials", "9",
                     "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                     "--t-hat", "-100", "--out", str(tmp_path / "dp.csv")]) == EXIT_USAGE
        plan = ExperimentConfig(experiment="dp_audit", learner="gaussian_dp", t_hat=-100.0,
                                alpha_target=0.1).validate()
        assert (plan.policy.xi, plan.policy.t_hat) == (0.05, None)

    def test_tracer_is_not_a_setting(self):
        with pytest.raises(UsageError, match="unknown key 'tracer'"):
            ExperimentConfig.from_text("experiment = trace\ntracer = sparse\n")
        assert main(["trace", "--tracer", "sparse"]) == EXIT_USAGE

    def test_policy_is_not_a_setting(self, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text("experiment = trace\npolicy = half_trace_value\n")
        assert main(["trace", "--config", str(tmp_path / "exp.cfg")]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: config line 2: unknown key 'policy'\n")
        assert main(["trace", "--policy", "half_trace_value"]) == EXIT_USAGE


class TestRun:
    def test_trace_deterministic_across_thread_counts(self, tmp_path):
        cfg = _small_trace(tmp_path)
        run(cfg, threads=1)
        h1 = _digest(cfg.output_path)
        run(cfg, threads=8)
        assert _digest(cfg.output_path) == h1

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_worker_count_is_the_cpus_this_process_may_use(self, tmp_path, monkeypatch,
                                                                   affinity):
        seen = []

        def runner(cfg, plan, threads):
            seen.append(threads)
            return ("trial_index",), [], [], []

        monkeypatch.setitem(harness.EXPERIMENTS, "trace", harness.Experiment("", runner))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run(_small_trace(tmp_path)) == EXIT_OK
        assert seen == [3 if affinity else 64]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_worker_count_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        cfg = _small_trace(tmp_path)
        with pytest.raises(UsageError, match="threads: must be >= 1"):
            run(cfg, threads=threads)
        assert main(["trace", "--d", "64", "--trials", "2", "--alpha-target", "0.1",
                     "--threads", str(threads), "--out", cfg.output_path]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: threads: must be >= 1\n"
        assert not Path(cfg.output_path).exists()

    def test_worker_count_past_the_bound_is_a_usage_error(self, tmp_path, capsys):
        # Refused before any worker is forked: the bound is max(8, 4 x the CPUs), far below 10^6.
        cfg, pools = _small_trace(tmp_path), dict(harness._pools)
        with pytest.raises(UsageError, match=r"^threads: must be <= \d+"):
            run(cfg, threads=10**6)
        assert main(["trace", "--d", "64", "--trials", "2", "--alpha-target", "0.1",
                     "--threads", "1000000", "--out", cfg.output_path]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: threads: must be <= ")
        assert not Path(cfg.output_path).exists() and harness._pools == pools

    def test_identical_configs_reproduce_bytes(self, tmp_path):
        cfg_a = _small_trace(tmp_path, output_path=str(tmp_path / "a.csv"))
        cfg_b = _small_trace(tmp_path, output_path=str(tmp_path / "b.csv"))
        run(cfg_a, threads=2)
        run(cfg_b, threads=2)
        assert _digest(cfg_a.output_path) == _digest(cfg_b.output_path)

    def test_verify_writes_rows_and_exits_zero(self, tmp_path):
        out = tmp_path / "verify.csv"
        cfg = ExperimentConfig(experiment="verify", output_path=str(out))
        assert run(cfg, threads=2) == EXIT_OK
        text = out.read_text()
        assert text.splitlines()[1] == "instance,lhs,rhs,rel_error"
        assert "#summary,max_rel_error," in text

    def test_trace_csv_schema(self, tmp_path):
        cfg = _small_trace(tmp_path)
        run(cfg, threads=1)
        lines = open(cfg.output_path).read().splitlines()
        assert lines[0] == "# sparsetrace-csv schema=14 experiment=trace"
        header = lines[1].split(",")
        assert header == ["trial_index", "mu_norm_l1", "excess_risk",
                          "t_hat_contribution", "recall", "soundness", "lambda",
                          "clip_events"]
        body = [l for l in lines[2:] if not l.startswith("#")]
        assert len(body) == cfg.trials
        for row in body:
            fields = row.split(",")
            recall, soundness = float(fields[4]), float(fields[5])
            assert 0.0 <= recall <= cfg.n and 0.0 <= soundness <= 1.0
        assert sum(l.startswith("#summary,") for l in lines) == 7

    def test_float_formatting_round_trips(self, tmp_path):
        cfg = _small_trace(tmp_path)
        run(cfg, threads=1)
        lines = open(cfg.output_path).read().splitlines()
        row = lines[2].split(",")
        assert float(row[1]) == float(format(float(row[1]), ".17g"))

    def test_unwritable_output_is_io_error(self, capsys):
        assert main(["trace", "--d", "16", "--n", "8", "--M", "8", "--trials", "2",
                     "--alpha-target", "0.1",
                     "--out", "/nonexistent-dir/deep/out.csv"]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_dp_audit_within_ceiling(self, tmp_path):
        cfg = ExperimentConfig(experiment="dp_audit", d=1024, n=100, M=200,
                               trials=30, learner="gaussian_dp", epsilon=0.1,
                               delta=1e-6, xi=0.05, alpha_target=0.1,
                               master_seed=SEED, output_path=str(tmp_path / "dp.csv"))
        assert run(cfg, threads=4) == EXIT_OK
        assert "#summary,dp_recall_ceiling," in open(cfg.output_path).read()

    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_small_d_dp_audit_is_sound_on_the_lattice(self, tmp_path, d):
        # gaussian_dp at k = d scores on a lattice, whose atom at lambda once
        # lifted soundness to 0.129, 0.102 and 0.070.  Under the exact null law
        # each trial's soundness is the law's flagged mass, xi up to rounding; the
        # band, 4 standard errors of M fresh rows over the trials, is the one the
        # sampled estimate it replaced had to meet.
        out = tmp_path / "small.csv"
        assert main(["dp-audit", "--d", str(d), "--n", "64", "--learner", "gaussian_dp",
                     "--epsilon", "0.1", "--delta", "1e-5", "--xi", "0.05", "--beta", "1",
                     "--trials", "300", "--seed", "5", "--out", str(out)]) == EXIT_OK
        soundness = _summary(out, "soundness")
        assert abs(soundness - 0.05) <= 4 * (0.05 * 0.95 / (1000 * 300)) ** 0.5

    def test_plain_l1_ball_is_sound(self, tmp_path):
        # At s = 1 the scaling-matrix score takes two values, so most null rows
        # tie at lambda (soundness was 0.879).  A trial's soundness mixes the
        # sampled null's error with the fresh sample's: each has variance at
        # most xi (1 - xi) over its 1000 rows, and the band is 4 standard errors
        # over the 10 trials.
        out = tmp_path / "l1.csv"
        assert main(["trace", "--variant", "l1_capped", "--s", "1", "--d", "128",
                     "--alpha-target", "0.1", "--trials", "10", "--out", str(out)]) == EXIT_OK
        soundness = _summary(out, "soundness")
        assert abs(soundness - 0.05) <= 4 * (0.05 * 0.95 * (1 / 1000 + 1 / 1000) / 10) ** 0.5

    def test_vertex_recall_and_soundness_do_not_depend_on_p(self, tmp_path):
        # A vertex learner's theta is d^(-1/p) sign(mu_hat), and the score's scale
        # d^(1/p) / sqrt(k) cancels p, so the flagged counts are the same for every p
        # and p only scales each trial's excess risk, by (d/k)^((p-1)/p) against p = 1.
        for d, k, args in ((512, 512, ["--alpha-target", "0.05"]), (1024, 32, ["--beta", "4"])):
            columns, risks = set(), {}
            for p in (1.0, 1.5, 2.0, 3.0, 4.0):
                out = tmp_path / f"d{d}-p{p}.csv"
                assert main(["trace", "--d", str(d), "--k", str(k), "--n", "64", "--p", str(p), *args,
                             "--trials", "20", "--seed", "7", "--out", str(out)]) == EXIT_OK
                rows = [line.split(",") for line in out.read_text().splitlines()[2:]
                        if not line.startswith("#")]
                columns.add(tuple((r[4], r[5]) for r in rows))
                risks[p] = [float(r[2]) for r in rows]
            assert len(columns) == 1
            for p, risk in risks.items():
                assert risk == pytest.approx([(d / k) ** ((p - 1) / p) * r for r in risks[1.0]], rel=1e-12)

    def test_sweep_recall_non_increasing_in_noise(self, tmp_path):
        cfg = ExperimentConfig(experiment="sweep", d=256, n=100, M=100, trials=500,
                               learner="gaussian_dp", epsilon=2.0, delta=1e-5,
                               beta=4.0, noise_scales=(0.25, 1.0, 4.0),
                               master_seed=SEED, output_path=str(tmp_path / "sw.csv"))
        assert run(cfg, threads=8) == EXIT_OK
        text = open(cfg.output_path).read()
        means = [float(l.split(",")[2]) for l in text.splitlines()
                 if l.startswith("#summary,recall@")]
        assert len(means) == 3 and means[0] > means[1] > means[2]

    def test_sweep_scales_share_each_trials_draw(self, tmp_path):
        # Every scale of a trial runs on one draw, so they share its mean.
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--d", "64", "--n", "16", "--M", "50", "--trials", "5",
                     "--learner", "gaussian_dp", "--beta", "2", "--noise-scales", "0.5,1,4",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]
                if not line.startswith("#")]
        assert [r[0] for r in rows] == ["0.5"] * 5 + ["1"] * 5 + ["4"] * 5
        means = {}
        for r in rows:
            means.setdefault(r[1], set()).add(r[2])
        assert len(means) == 5 and all(len(v) == 1 for v in means.values())

    def test_half_trace_value_policy_via_cli(self, tmp_path):
        # --t-hat alone selects the t_hat / 2 threshold.
        out = tmp_path / "ht.csv"
        code = main(["trace", "--d", "32", "--n", "8", "--M", "16", "--trials", "4",
                     "--alpha-target", "0.2", "--t-hat", "1.6", "--out", str(out)])
        assert code == EXIT_OK
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        lam = {row.split(",")[6] for row in rows}
        assert lam == {format(0.8, ".17g")}

    def test_trace_value_summary_present(self, tmp_path):
        cfg = ExperimentConfig(experiment="trace_value", d=64, n=32, trials=40,
                               alpha_target=0.1, master_seed=SEED,
                               output_path=str(tmp_path / "tv.csv"))
        assert run(cfg, threads=2) == EXIT_OK
        assert "#summary,t_hat," in open(cfg.output_path).read()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cfg = _small_trace(tmp_path)
        run(cfg, threads=1)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".sparsetrace-")]
        assert leftovers == []


class TestAcceptanceFailurePaths:
    def test_verify_exits_one_on_identity_violation(self, tmp_path, monkeypatch, capsys):
        from sparsetrace.oracles import IdentityCheckResult

        broken = IdentityCheckResult.compare(1.0, 1.001, "forced-violation")
        fine = IdentityCheckResult.compare(1.0, 1.0, "fine")
        monkeypatch.setattr(harness, "verification_grid", lambda: [fine, broken])
        cfg = ExperimentConfig(experiment="verify", output_path=str(tmp_path / "v.csv"))
        assert run(cfg, threads=1) == EXIT_ACCEPTANCE
        err = capsys.readouterr().err
        assert err.startswith("verify: 1 of 2 identities above rel_error 1e-08; ")
        assert "worst forced-violation at rel_error 0.000999" in err

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_verify_exits_one_on_a_nan_identity(self, tmp_path, monkeypatch, capsys, nan_first):
        from sparsetrace.oracles import IdentityCheckResult

        broken = IdentityCheckResult.compare(float("nan"), 1.0, "nan-instance")
        fine = IdentityCheckResult.compare(1.0, 1.0, "fine")
        grid = [broken, fine] if nan_first else [fine, broken]
        monkeypatch.setattr(harness, "verification_grid", lambda: grid)
        cfg = ExperimentConfig(experiment="verify", output_path=str(tmp_path / "v.csv"))
        assert run(cfg, threads=1) == EXIT_ACCEPTANCE
        assert "worst nan-instance at rel_error nan" in capsys.readouterr().err
        assert "#summary,max_rel_error,nan,0" in (tmp_path / "v.csv").read_text()

    def test_dp_audit_exits_one_when_recall_exceeds_ceiling(self, tmp_path, monkeypatch, capsys):
        real = harness.run_trace_trial

        def inflated(learner, spec, kind, prior, n, M, policy, rng):
            report = real(learner, spec, kind, prior, n, M, policy, rng)
            from dataclasses import replace
            return replace(report, recall_estimate=float(n))

        monkeypatch.setattr(harness, "run_trace_trial", inflated)
        cfg = ExperimentConfig(experiment="dp_audit", d=64, n=40, M=50, trials=6,
                               learner="gaussian_dp", epsilon=0.1, delta=1e-6,
                               xi=0.05, alpha_target=0.1, master_seed=SEED,
                               output_path=str(tmp_path / "dp.csv"))
        assert run(cfg, threads=1) == EXIT_ACCEPTANCE
        # recall is n = 40 in every trial (CI 0); the ceiling is 40 e^0.1 0.05 + 40e-6.
        assert capsys.readouterr().err == \
            "dp-audit: mean recall 40 > ceiling 2.21 + 4×0 (over by 37.8)\n"
        assert "mean recall" not in open(cfg.output_path).read()

    def test_sweep_exits_one_when_recall_grows_with_noise(self, tmp_path, monkeypatch, capsys):
        real = harness.run_trace_arms

        def rigged(learners, spec, kind, prior, n, M, policy, rng):
            reports = real(learners, spec, kind, prior, n, M, policy, rng)
            # recall increases with the learner's sigma (smaller epsilon)
            return [replace(r, recall_estimate=float(n) / lc.epsilon) for lc, r in zip(learners, reports)]

        monkeypatch.setattr(harness, "run_trace_arms", rigged)
        cfg = ExperimentConfig(experiment="sweep", d=64, n=40, M=50, trials=6,
                               learner="gaussian_dp", epsilon=1.0, delta=1e-5,
                               beta=2.0, noise_scales=(0.5, 2.0), master_seed=SEED,
                               output_path=str(tmp_path / "sw.csv"))
        assert run(cfg, threads=1) == EXIT_ACCEPTANCE
        # recall is n / epsilon: 40 / 2 = 20 at scale 0.5 and 40 / 0.5 = 80 at scale 2.
        assert capsys.readouterr().err == \
            "sweep: mean recall rose by 60 ± 0 from scale 0.5 to scale 2 (over by 60)\n"

    def test_sweep_paired_check_catches_a_rise_within_ci_overlap(self, tmp_path, monkeypatch, capsys):
        # A constant per-trial rise of 1 has paired CI 0, so it fails, while the
        # unpaired means still overlap: m1 - m0 = 1 <= c0 + c1.  Whole recalls
        # keep the differences exact.
        real = harness.run_trace_arms

        def rigged(learners, *args):
            first, second = real(learners, *args)
            recall = float(round(first.recall_estimate))
            return [replace(first, recall_estimate=recall), replace(second, recall_estimate=recall + 1.0)]

        monkeypatch.setattr(harness, "run_trace_arms", rigged)
        cfg = ExperimentConfig(experiment="sweep", d=64, n=40, M=50, trials=10,
                               learner="gaussian_dp", epsilon=1.0, delta=1e-5,
                               beta=2.0, noise_scales=(0.5, 2.0), master_seed=SEED,
                               output_path=str(tmp_path / "sw.csv"))
        assert run(cfg, threads=1) == EXIT_ACCEPTANCE
        assert capsys.readouterr().err == \
            "sweep: mean recall rose by 1 ± 0 from scale 0.5 to scale 2 (over by 1)\n"
        (m0, c0), (m1, c1) = (_summary_pair(tmp_path / "sw.csv", f"recall@scale={s}") for s in ("0.5", "2"))
        assert m1 - m0 == pytest.approx(1.0) and c0 + c1 > 1.0

    def test_passing_run_prints_nothing(self, tmp_path, capsys):
        assert run(_small_trace(tmp_path), threads=1) == EXIT_OK
        assert capsys.readouterr() == ("", "")


class TestMainExitCodes:
    def test_verify_via_main(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--out", str(out)]) == EXIT_OK

    def test_sweep_requires_gaussian_dp(self, tmp_path):
        assert main(["sweep", "--learner", "erm", "--alpha-target", "0.1",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["trace", "--help"]) == 0
        text = capsys.readouterr().out
        assert "xi in (0, 1)" in text and "p in [1, inf)" in text

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_program_error_keeps_its_traceback(self, tmp_path, monkeypatch, capsys):
        # Only UsageError means exit 2; a ValueError from inside a trial is a
        # bug, with an exit code of its own and its traceback on stderr.
        def broken(*args):
            raise ValueError("bug inside a trial")

        monkeypatch.setattr(harness, "run_trace_trial", broken)
        assert main(["trace", "--d", "16", "--trials", "2", "--alpha-target", "0.1",
                     "--threads", "1", "--out", str(tmp_path / "t.csv")]) == EXIT_BUG
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("ValueError: bug inside a trial\n")

    def test_worker_error_is_a_bug_with_the_worker_traceback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(harness.EXPERIMENTS, "trace", _trial_runner(_fails_in_a_worker))
        assert main(["trace", "--trials", "2", "--alpha-target", "0.1", "--threads", "2",
                     "--out", str(tmp_path / "t.csv")]) == EXIT_BUG
        err = capsys.readouterr().err
        # The worker's own frames, then the caller's, which re-raised its error.
        worker, _, caller = err.partition("The above exception was the direct cause")
        assert f", in {_fails_in_a_worker.__name__}\n" in worker
        assert "ValueError: bug in trial 1" in worker
        assert caller.endswith("ValueError: bug in trial 1\n")

    def test_killed_worker_is_a_bug_and_the_next_run_forks_a_new_pool(self, tmp_path, monkeypatch,
                                                                      capsys):
        out = str(tmp_path / "t.csv")
        with monkeypatch.context() as patch:
            patch.setitem(harness.EXPERIMENTS, "trace", _trial_runner(_killed_in_a_worker))
            assert main(["trace", "--trials", "2", "--alpha-target", "0.1", "--threads", "2",
                         "--out", out]) == EXIT_BUG
        assert "BrokenProcessPool" in capsys.readouterr().err
        assert os.getpid() not in harness._pools
        argv = ["trace", "--d", "64", "--n", "16", "--M", "50", "--trials", "4",
                "--alpha-target", "0.1", "--out", out]
        assert main(argv + ["--threads", "2"]) == EXIT_OK
        assert os.getpid() in harness._pools
        parallel = _digest(out)
        assert main(argv + ["--threads", "1"]) == EXIT_OK
        assert _digest(out) == parallel

    @pytest.mark.parametrize("argv, status", [
        (["trace", "--d", "64", "--n", "16", "--trials", "4", "--alpha-target", "0.1"], EXIT_OK),
        # Two trials of recall 1 (CI 0) against a ceiling of 0.808: the audit fails by chance.
        (["dp-audit", "--d", "256", "--k", "8", "--n", "16", "--M", "50", "--trials", "2",
          "--learner", "gaussian_dp", "--epsilon", "0.01", "--alpha-target", "0.1", "--seed", "5"],
         EXIT_ACCEPTANCE),
    ])
    def test_no_worker_outlives_the_cli(self, tmp_path, argv, status):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen([sys.executable, "-m", "sparsetrace", *argv, "--threads", "2",
                                 "--out", str(tmp_path / "out.csv")], stderr=subprocess.PIPE,
                                text=True, env=env, start_new_session=True)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == status, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # the CLI led its own process group, which its workers joined

    def test_python_dash_m_package_runs_without_warnings(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "v.csv"
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "sparsetrace", "verify",
                               "--out", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Warning" not in proc.stderr
        assert "#summary,max_rel_error," in out.read_text()

    @pytest.mark.parametrize("argv", [
        ["trace", "--M", "5", "--alpha-target", "1e-300"],
        ["trace-value", "--alpha-target", "1e-300"],
        ["trace", "--M", "5", "--p", "1", "--alpha-target", "1e-160"],
    ])
    def test_alpha_target_too_small_for_a_finite_beta_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--d", "16", "--n", "4", "--trials", "3",
                            "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: alpha_target: ")

    def test_tiny_beta_trace_writes_finite_mu(self, tmp_path):
        # At beta = 1e-3 the prior's variates underflow; its means must stay finite.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "t.csv"
        proc = subprocess.run([sys.executable, "-m", "sparsetrace", "trace", "--d", "16",
                               "--beta", "1e-3", "--trials", "3", "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = out.read_text().splitlines()
        mu_l1 = [float(line.split(",")[1]) for line in lines[2:] if not line.startswith("#")]
        assert len(mu_l1) == 3 and all(0.0 <= v <= 16.0 for v in mu_l1)

    def test_cli_start_up_does_not_import_scipy(self):
        # scipy is needed only for the quadrature rules of the identity oracles, and
        # multiprocessing only once a run forks its worker pool.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys\nimport sparsetrace.harness as h\n"
                "h.parse_cli(['trace', '--d', '64', '--alpha-target', '0.1'])\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('scipy', 'multiprocessing')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


@st.composite
def _small_cli_run(draw):
    """The argv of one trial-running CLI command at d, n <= 64, M <= 200 and trials <= 5.
    Every other field is drawn over its accepted range or left to its default.  A field the
    variant or learner would refuse is left out, and one it needs is given: s on l1_capped,
    subsample_m for subsample, and alpha_target unless box_lp is given beta."""
    name = draw(st.sampled_from(sorted(e for e in harness.EXPERIMENTS if harness.EXPERIMENTS[e].fields)))
    experiment = harness.EXPERIMENTS[name]
    d, n = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    variant = draw(st.sampled_from(VARIANTS))
    learner = experiment.learner or draw(st.sampled_from(LEARNER_KINDS))
    values = {"variant": variant, "learner": learner, "d": d, "n": n, "M": draw(st.integers(1, 200)),
              "trials": draw(st.integers(1, 5)), "master_seed": draw(st.integers(0, 2**32 - 1))}
    optional = {
        "epsilon": st.floats(0, 10, exclude_min=True), "delta": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "xi": st.floats(0, 1, exclude_min=True, exclude_max=True) | st.floats(1e-300, 1e-12),
        "t_hat": st.floats(-1e3, 1e3), "beta": st.floats(1e-3, 1e3),
        "noise_scales": st.lists(st.floats(0.01, 100), min_size=1, max_size=3, unique=True).map(
            lambda v: ",".join(map(repr, sorted(v)))),
    }
    if variant == BOX_LP:
        optional.update(p=st.floats(1, 1e3), k=st.integers(1, d))
    else:
        values["s"] = draw(st.integers(1, d))
    if learner == SUBSAMPLE:
        values["subsample_m"] = draw(st.integers(1, n))
    for field, values_of in optional.items():
        if draw(st.booleans()):
            values[field] = draw(values_of)
    if variant != BOX_LP or "beta" not in values or draw(st.booleans()):
        values["alpha_target"] = draw(st.floats(1e-3, 10))
    flags = (f"{harness._FLAG_NAMES.get(f, '--' + f.replace('_', '-'))}={values[f]}"
             for f in ("master_seed",) + experiment.fields if f in values)
    return [name.replace("_", "-"), "--threads", "1", *flags]


class TestConfigSpace:
    # The largest sample a run below can hold is 10^5 null rows at d = 64: their int64
    # supports take up to 50 MB (k = 63), beside the sampler's draws and the scores.
    PEAK_BYTES = 128 * 2**20

    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(argv=_small_cli_run())
    def test_every_run_finishes_in_bounded_memory_or_is_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "run.csv"
        out.unlink(missing_ok=True)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_ACCEPTANCE, EXIT_USAGE), (argv, err)
        assert peak < self.PEAK_BYTES, (argv, peak)
        if code == EXIT_USAGE:
            field = re.match(r"error: (\w+): ", err)
            assert field and field[1] in harness._FIELD_TYPES, (argv, err)
            assert not out.exists()
            return
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            cells = line.split(",")
            names = [cells[1]] * len(cells) if cells[0] == "#summary" else header
            for name, cell in zip(names, cells):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value) or name == "excess_risk", (argv, line)


def test_readme_lists_every_config_key():
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    listed = text.split("Keys are exactly the fields of `ExperimentConfig` (", 1)[1].split(")", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(ExperimentConfig)]


def test_readme_csv_example_has_the_current_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"# sparsetrace-csv schema=(\d+)", text) == [str(harness.SCHEMA_VERSION)]


def test_readme_commands_parse(tmp_path):
    # Every `sparsetrace ...` command in README's fenced blocks, `\` continuations joined.
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("sparsetrace ")]
    assert len(commands) == 6
    assert {argv[0] for argv in commands} == {name.replace("_", "-") for name in harness.EXPERIMENTS}
    for argv in commands:
        if "--config" in argv:
            config = tmp_path / "experiment.cfg"
            config.write_text(f"experiment = {argv[0].replace('-', '_')}\nalpha_target = 0.1\n")
            argv = [str(config) if arg == "experiment.cfg" else arg for arg in argv]
        assert parse_cli(argv).experiment == argv[0].replace("-", "_")
