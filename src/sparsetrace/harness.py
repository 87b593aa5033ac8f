"""Experiment configuration, seeded parallel execution, CSV output, and the CLI.

Five experiments are exposed as subcommands:

* ``verify``       -- run the exact identity-check battery; exit 1 on any
                      relative error above 1e-8.
* ``trace``        -- repeated attack trials for one learner/tracer pair.
* ``dp-audit``     -- trace trials for the private learner plus the recall
                      ceiling n e^eps xi + n delta; exit 1 if exceeded.
* ``sweep``        -- trace trials across Gaussian noise scales; exit 1 if
                      mean recall increases with noise beyond CI overlap.
* ``trace-value``  -- plug-in trace-value estimation.

Output is a versioned CSV written atomically (temp file + rename): a
header row, one record per line with floats at 17 significant digits, and
trailing ``#summary`` comment rows.  Records are keyed by trial index and
every trial owns a substream derived from (master_seed, trial, purpose),
so the bytes are identical for any thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .learners import GAUSSIAN_DP, LEARNER_KINDS, LearnerConfig
from .oracles import verification_grid_tasks
from .problems import BOX_LP, L1_CAPPED, VARIANTS, ProblemSpec
from .rng import substream
from .tracers import (
    HALF_TRACE_VALUE,
    NULL_QUANTILE,
    SCALING_MATRIX_SCORE,
    SPARSE_SCORE,
    TRACER_KINDS,
    ThresholdPolicy,
    default_prior,
    run_trace_trial,
    trace_value_contribution,
)

EXPERIMENTS = ("verify", "trace", "dp_audit", "sweep", "trace_value")
IDENTITY_TOL = 1e-8
SCHEMA_VERSION = 1
THREADS_ENV = "SPARSETRACE_THREADS"

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    """Invalid configuration or conflicting flags; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; serializes to diff-able key=value text."""

    experiment: str
    variant: str = BOX_LP
    d: int = 64
    p: float = 2.0
    k: int | None = None
    s: int | None = None
    learner: str = "erm"
    epsilon: float = 1.0
    delta: float = 1e-5
    subsample_m: int | None = None
    tracer: str | None = None
    xi: float = 0.05
    policy: str = NULL_QUANTILE
    t_hat: float | None = None
    beta: float | None = None
    alpha_target: float | None = None
    n: int = 64
    M: int = 1000
    trials: int = 100
    noise_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    master_seed: int = 0
    output_path: str = "results.csv"

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                text = "none"
            elif f.name == "noise_scales":
                text = ",".join(format(v, ".17g") for v in value)
            elif isinstance(value, float):
                text = format(value, ".17g")
            else:
                text = str(value)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in known:
                raise UsageError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _parse_field(key, val)
        if "experiment" not in values:
            raise UsageError("config file must set 'experiment'")
        return cls(**values)

    def resolved_spec(self) -> ProblemSpec:
        k = self.k if self.k is not None else (self.d if self.variant == BOX_LP else None)
        return ProblemSpec(self.variant, d=self.d, p=self.p, k=k, s=self.s)

    def resolved_tracer(self) -> str:
        if self.tracer is not None:
            return self.tracer
        return SPARSE_SCORE if self.variant == BOX_LP else SCALING_MATRIX_SCORE

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise UsageError(f"experiment: must be one of {EXPERIMENTS}")
        if self.experiment == "verify":
            return
        if self.variant not in VARIANTS:
            raise UsageError(f"variant: must be one of {VARIANTS}")
        if self.d < 1:
            raise UsageError("d: must be >= 1")
        if not self.p >= 1:
            raise UsageError("p: must lie in [1, inf)")
        if self.variant == BOX_LP and self.k is not None and not 1 <= self.k <= self.d:
            raise UsageError("k: must lie in [1, d]")
        if self.variant == L1_CAPPED and (self.s is None or not 1 <= self.s <= self.d):
            raise UsageError("s: l1_capped requires a cap in [1, d]")
        if self.learner not in LEARNER_KINDS:
            raise UsageError(f"learner: must be one of {LEARNER_KINDS}")
        if self.learner == GAUSSIAN_DP or self.experiment in ("dp_audit", "sweep"):
            if not 0 < self.epsilon <= 10:
                raise UsageError("epsilon: must lie in (0, 10]")
            if not 0 < self.delta < 1:
                raise UsageError("delta: must lie in (0, 1)")
        if self.learner == "subsample":
            if self.subsample_m is None or not 1 <= self.subsample_m <= self.n:
                raise UsageError("subsample_m: must lie in [1, n]")
        if self.tracer is not None and self.tracer not in TRACER_KINDS:
            raise UsageError(f"tracer: must be one of {TRACER_KINDS}")
        if self.tracer == SPARSE_SCORE and self.variant != BOX_LP:
            raise UsageError("tracer: the sparse score requires the box_lp variant")
        if self.tracer == SCALING_MATRIX_SCORE and self.variant == BOX_LP:
            raise UsageError("tracer: the scaling-matrix score requires an l1 variant")
        if not 0 < self.xi < 1:
            raise UsageError("xi: must lie in (0, 1)")
        if self.policy not in (NULL_QUANTILE, HALF_TRACE_VALUE):
            raise UsageError(f"policy: must be one of ({NULL_QUANTILE}, {HALF_TRACE_VALUE})")
        if self.policy == HALF_TRACE_VALUE and (self.t_hat is None or not math.isfinite(self.t_hat)):
            raise UsageError("t_hat: half_trace_value requires a finite value")
        if self.beta is not None and not self.beta > 0:
            raise UsageError("beta: must be positive")
        if self.alpha_target is not None and not self.alpha_target > 0:
            raise UsageError("alpha_target: must be positive")
        if self.beta is None and self.alpha_target is None:
            raise UsageError("beta: trace experiments need beta or alpha_target")
        if self.n < 1:
            raise UsageError("n: must be >= 1")
        if self.M < 1:
            raise UsageError("M: must be >= 1")
        if self.trials < 1:
            raise UsageError("trials: must be >= 1")
        if self.experiment == "sweep":
            if not self.noise_scales or any(not v > 0 for v in self.noise_scales):
                raise UsageError("noise_scales: must be positive")
            if any(self.epsilon / v > 10 for v in self.noise_scales):
                raise UsageError("noise_scales: a scale drives epsilon above its bound of 10")
            if self.learner != GAUSSIAN_DP:
                raise UsageError("learner: sweep requires gaussian_dp")
        if self.experiment == "dp_audit" and self.learner != GAUSSIAN_DP:
            raise UsageError("learner: dp_audit requires gaussian_dp")
        if not self.output_path:
            raise UsageError("output_path: must be nonempty")
        self.resolved_spec()  # re-raises geometry errors, mapped below


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row of a trace-style experiment."""

    trial_index: int
    mu_norm_l1: float
    excess_risk: float
    t_hat_contribution: float
    recall: float
    soundness: float
    lam: float
    flags_count: int
    clip_events: int


TRACE_COLUMNS = (
    "trial_index", "mu_norm_l1", "excess_risk", "t_hat_contribution",
    "recall", "soundness", "lambda", "flags_count", "clip_events",
)


def _parse_field(key: str, val: str):
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    if val == "none":
        return None
    if key == "noise_scales":
        return tuple(float(part) for part in val.split(",") if part.strip())
    kind = kinds[key]
    try:
        if kind == "int" or kind == "int | None":
            return int(val)
        if kind == "float" or kind == "float | None":
            return float(val)
    except ValueError as exc:
        raise UsageError(f"{key}: could not parse {val!r}") from exc
    return val


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple], summaries: list[str],
               experiment: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".sparsetrace-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="\n") as out:
            out.write(f"# sparsetrace-csv schema={SCHEMA_VERSION} experiment={experiment}\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
            for line in summaries:
                out.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _mean_ci(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()) if arr.size else float("nan"), 0.0
    return float(arr.mean()), 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)


def _summaries(rows: list[tuple], header: tuple[str, ...], skip=("trial_index",)) -> list[str]:
    lines = []
    for i, col in enumerate(header):
        if col in skip:
            continue
        values = [float(r[i]) for r in rows]
        mean, ci = _mean_ci(values)
        lines.append(f"#summary,{col},{_fmt(mean)},{_fmt(ci)}")
    return lines


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"{THREADS_ENV}: could not parse {env!r}") from exc
    return os.cpu_count() or 1


def _map_trials(fn, count: int, threads: int) -> list:
    """Run fn(0..count-1), collecting results in index order."""
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _learner_config(cfg: ExperimentConfig, epsilon: float | None = None) -> LearnerConfig:
    if cfg.learner == GAUSSIAN_DP:
        return LearnerConfig(GAUSSIAN_DP, epsilon=epsilon if epsilon is not None else cfg.epsilon,
                             delta=cfg.delta)
    if cfg.learner == "subsample":
        return LearnerConfig("subsample", subsample_m=cfg.subsample_m)
    if cfg.learner == "constant":
        raise UsageError("learner: the constant learner is not runnable from the CLI")
    return LearnerConfig(cfg.learner)


def _policy(cfg: ExperimentConfig) -> ThresholdPolicy:
    if cfg.policy == HALF_TRACE_VALUE:
        return ThresholdPolicy(HALF_TRACE_VALUE, t_hat=cfg.t_hat)
    return ThresholdPolicy(NULL_QUANTILE, xi=cfg.xi)


def _trace_record(cfg: ExperimentConfig, spec, learner, prior, policy, trial: int,
                  purpose: str) -> TrialRecord:
    rng = substream(cfg.master_seed, trial, purpose)
    report = run_trace_trial(learner, spec, cfg.resolved_tracer(), prior, cfg.n, cfg.M, policy, rng)
    return TrialRecord(
        trial_index=trial,
        mu_norm_l1=report.mu_l1,
        excess_risk=report.excess_risk,
        t_hat_contribution=float(report.scores_train.mean()),
        recall=report.recall_estimate,
        soundness=report.soundness_estimate,
        lam=report.threshold,
        flags_count=int(report.flagged.size),
        clip_events=report.clip_events,
    )


def _record_row(rec: TrialRecord) -> tuple:
    return (rec.trial_index, rec.mu_norm_l1, rec.excess_risk, rec.t_hat_contribution,
            rec.recall, rec.soundness, rec.lam, rec.flags_count, rec.clip_events)


def _run_verify(cfg: ExperimentConfig, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    tasks = verification_grid_tasks()
    checks = _map_trials(lambda i: tasks[i](), len(tasks), threads)
    rows = [(c.instance, c.lhs, c.rhs, c.rel_error) for c in checks]
    worst = max(checks, key=lambda c: c.rel_error)
    summaries = [f"#summary,max_rel_error,{_fmt(worst.rel_error)},0",
                 f"#summary,instances,{len(checks)},0"]
    failures = []
    if worst.rel_error > IDENTITY_TOL:
        over = sum(c.rel_error > IDENTITY_TOL for c in checks)
        failures.append(f"{over} of {len(checks)} identities above rel_error {IDENTITY_TOL:g}; "
                        f"worst {worst.instance} at rel_error {worst.rel_error:.3g}")
    return rows, summaries, failures


def _run_trace(cfg: ExperimentConfig, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    spec = cfg.resolved_spec()
    prior = default_prior(spec, cfg.alpha_target, cfg.beta)
    learner = _learner_config(cfg)
    policy = _policy(cfg)
    records = _map_trials(
        lambda t: _trace_record(cfg, spec, learner, prior, policy, t, "trace"),
        cfg.trials, threads)
    rows = [_record_row(r) for r in records]
    summaries = _summaries(rows, TRACE_COLUMNS)
    failures = []
    if cfg.experiment == "dp_audit":
        ceiling = cfg.n * math.exp(cfg.epsilon) * cfg.xi + cfg.n * cfg.delta
        mean_recall, ci = _mean_ci([r.recall for r in records])
        summaries.append(f"#summary,dp_recall_ceiling,{_fmt(ceiling)},0")
        if mean_recall > ceiling + 4.0 * ci:
            failures.append(f"mean recall {mean_recall:.3g} > ceiling {ceiling:.3g} + 4×{ci:.2g} "
                            f"(over by {mean_recall - ceiling - 4.0 * ci:.3g})")
    return rows, summaries, failures


def _run_sweep(cfg: ExperimentConfig, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    spec = cfg.resolved_spec()
    prior = default_prior(spec, cfg.alpha_target, cfg.beta)
    policy = _policy(cfg)
    rows: list[tuple] = []
    means: list[tuple[float, float, float]] = []
    summaries: list[str] = []
    for si, scale in enumerate(cfg.noise_scales):
        # sigma scales as 1/epsilon, so a noise multiplier c is epsilon / c.
        learner = _learner_config(cfg, epsilon=cfg.epsilon / scale)
        records = _map_trials(
            lambda t: _trace_record(cfg, spec, learner, prior, policy, t, f"sweep{si}"),
            cfg.trials, threads)
        rows.extend((scale,) + _record_row(r) for r in records)
        mean, ci = _mean_ci([r.recall for r in records])
        means.append((scale, mean, ci))
        summaries.append(f"#summary,recall@scale={scale:g},{_fmt(mean)},{_fmt(ci)}")
    failures = []
    for (s0, m0, c0), (s1, m1, c1) in zip(means, means[1:]):
        if m1 > m0 + c0 + c1:
            failures.append(f"mean recall rose from {m0:.3g} ± {c0:.2g} at scale {s0:g} "
                            f"to {m1:.3g} ± {c1:.2g} at scale {s1:g} "
                            f"(over by {m1 - m0 - c0 - c1:.3g})")
    return rows, summaries, failures


def _run_trace_value(cfg: ExperimentConfig, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    spec = cfg.resolved_spec()
    prior = default_prior(spec, cfg.alpha_target, cfg.beta)
    learner = _learner_config(cfg)

    def one(trial: int) -> tuple:
        rng = substream(cfg.master_seed, trial, "trace_value")
        value = trace_value_contribution(learner, spec, cfg.resolved_tracer(), prior, cfg.n, rng)
        return (trial, value)

    rows = _map_trials(one, cfg.trials, threads)
    mean, ci = _mean_ci([r[1] for r in rows])
    summaries = [f"#summary,t_hat,{_fmt(mean)},{_fmt(ci)}"]
    return rows, summaries, []


def run(config: ExperimentConfig, threads: int | None = None) -> int:
    """Execute one experiment, write its CSV, and return the exit status.

    A failed acceptance check prints one line per failure to stderr, naming
    the check and its margin, and returns EXIT_ACCEPTANCE.
    """
    config.validate()
    nthreads = resolve_threads(threads)
    if config.experiment == "verify":
        header: tuple[str, ...] = ("instance", "lhs", "rhs", "rel_error")
        rows, summaries, failures = _run_verify(config, nthreads)
    elif config.experiment in ("trace", "dp_audit"):
        header = TRACE_COLUMNS
        rows, summaries, failures = _run_trace(config, nthreads)
    elif config.experiment == "sweep":
        header = ("noise_scale",) + TRACE_COLUMNS
        rows, summaries, failures = _run_sweep(config, nthreads)
    else:
        header = ("trial_index", "t_hat")
        rows, summaries, failures = _run_trace_value(config, nthreads)
    _write_csv(config.output_path, header, rows, summaries, config.experiment)
    command = config.experiment.replace("_", "-")
    for failure in failures:
        print(f"{command}: {failure}", file=sys.stderr, flush=True)
    return EXIT_ACCEPTANCE if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsetrace",
        description="Tracing attacks and fingerprinting identity checks for "
                    "hard stochastic convex optimization instances.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    specs = {
        "verify": "run the exact identity-check battery",
        "trace": "soundness/recall trials for one learner",
        "dp-audit": "trace trials plus the DP recall ceiling",
        "sweep": "trace trials across Gaussian noise scales",
        "trace-value": "plug-in trace value estimation",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="config file; flags override its values")
        p.add_argument("--seed", type=int, dest="master_seed", help="64-bit master seed")
        p.add_argument("--out", dest="output_path", help="CSV output path")
        p.add_argument("--threads", type=int, help=f"worker threads (default: ${THREADS_ENV} or CPU count)")
        if name == "verify":
            continue
        p.add_argument("--variant", choices=VARIANTS, help="problem geometry")
        p.add_argument("--d", type=int, help="dimension, d >= 1")
        p.add_argument("--p", type=float, help="norm index, p in [1, inf) (box_lp)")
        p.add_argument("--k", type=int, help="data sparsity, 1 <= k <= d (box_lp; default d)")
        p.add_argument("--s", type=int, help="box cap, 1 <= s <= d (l1_capped)")
        p.add_argument("--learner", choices=[k for k in LEARNER_KINDS if k != "constant"],
                       help="learner kind")
        p.add_argument("--epsilon", type=float, help="DP epsilon in (0, 10] (gaussian_dp)")
        p.add_argument("--delta", type=float, help="DP delta in (0, 1) (gaussian_dp)")
        p.add_argument("--subsample-m", type=int, dest="subsample_m",
                       help="subsample size, 1 <= m <= n (subsample)")
        p.add_argument("--tracer", choices=TRACER_KINDS, help="score kind (default: by variant)")
        p.add_argument("--xi", type=float, help="soundness level, xi in (0, 1)")
        p.add_argument("--policy", choices=(NULL_QUANTILE, HALF_TRACE_VALUE),
                       help="threshold calibration policy")
        p.add_argument("--t-hat", type=float, dest="t_hat",
                       help="finite trace value for half_trace_value")
        p.add_argument("--beta", type=float, help="prior shape override, beta > 0")
        p.add_argument("--alpha-target", type=float, dest="alpha_target",
                       help="target excess risk used to derive beta, > 0")
        p.add_argument("--n", type=int, help="training set size, n >= 1")
        p.add_argument("--M", type=int, dest="M", help="fresh evaluation points, M >= 1")
        p.add_argument("--trials", type=int, help="independent trials, >= 1")
        if name == "sweep":
            p.add_argument("--noise-scales", dest="noise_scales",
                           help="comma-separated positive noise multipliers")
    return parser


def _parse_args(argv=None) -> tuple[ExperimentConfig, int | None]:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    experiment = args.pop("experiment").replace("-", "_")
    threads = args.pop("threads", None)
    config_path = args.pop("config", None)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = ExperimentConfig.from_text(fh.read())
        except OSError as exc:
            raise UsageError(f"config: cannot read {config_path!r}: {exc}") from exc
        if config.experiment != experiment:
            config = replace(config, experiment=experiment)
    else:
        config = ExperimentConfig(experiment=experiment)
    overrides = {}
    for key, value in args.items():
        if value is None:
            continue
        overrides[key] = _parse_field(key, value) if key == "noise_scales" else value
    if overrides:
        config = replace(config, **overrides)
    return config, threads


def parse_cli(argv=None) -> ExperimentConfig:
    """Parse CLI arguments into a validated ExperimentConfig."""
    config, _ = _parse_args(argv)
    config.validate()
    return config


def main(argv=None) -> int:
    """Console entry point; returns the process exit code."""
    try:
        config, threads = _parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", flush=True)
        return EXIT_USAGE
    try:
        return run(config, threads=threads)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", flush=True)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", flush=True)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
