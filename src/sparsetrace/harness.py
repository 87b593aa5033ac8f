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
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .distributions import BetaPrior
from .learners import GAUSSIAN_DP, LEARNER_KINDS, SUBSAMPLE, LearnerConfig
from .oracles import verification_grid_tasks
from .problems import BOX_LP, VARIANTS, ProblemSpec
from .rng import substream
from .tracers import (
    HALF_TRACE_VALUE,
    NULL_QUANTILE,
    SCALING_MATRIX_SCORE,
    SPARSE_SCORE,
    TRACER_KINDS,
    ThresholdPolicy,
    TraceReport,
    default_prior,
    run_trace_trial,
    trace_value_contribution,
    tracer_for,
)

EXPERIMENTS = ("verify", "trace", "dp_audit", "sweep", "trace_value")
IDENTITY_TOL = 1e-8
SCHEMA_VERSION = 2
THREADS_ENV = "SPARSETRACE_THREADS"

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    """Invalid configuration or conflicting flags; maps to exit code 2."""


class Plan(NamedTuple):
    """The domain objects a validated trace-style config describes."""

    spec: ProblemSpec
    tracer: str
    prior: BetaPrior
    learners: tuple[LearnerConfig, ...]  # one per noise scale for sweep
    policy: ThresholdPolicy


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
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _FIELD_TYPES:
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

    def validate(self) -> Plan | None:
        """Build the domain objects this config describes, or raise UsageError.

        Each object checks its own parameters (see `_build`); only the rules
        that no object makes are written here.  Returns None for verify,
        which takes no parameters.
        """
        if self.experiment not in EXPERIMENTS:
            raise UsageError(f"experiment: must be one of {EXPERIMENTS}")
        if self.experiment == "verify":
            return None
        for name in ("n", "M", "trials"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name}: must be >= 1")
        if not self.output_path:
            raise UsageError("output_path: must be nonempty")
        spec = _build("variant", self.resolved_spec)
        learner = _build("learner", LearnerConfig, self.learner, epsilon=self.epsilon,
                         delta=self.delta, subsample_m=self.subsample_m)
        if self.learner == SUBSAMPLE and self.subsample_m > self.n:
            raise UsageError("subsample_m: must lie in [1, n]")
        if self.experiment in ("dp_audit", "sweep") and self.learner != GAUSSIAN_DP:
            raise UsageError(f"learner: {self.experiment} requires gaussian_dp")
        learners = (learner,)
        if self.experiment == "sweep":
            if not self.noise_scales or not all(v > 0 for v in self.noise_scales):
                raise UsageError("noise_scales: must be positive")
            # sigma scales as 1/epsilon, so a noise multiplier c is epsilon / c.
            try:
                learners = tuple(replace(learner, epsilon=self.epsilon / v) for v in self.noise_scales)
            except ValueError as exc:
                raise UsageError(f"noise_scales: epsilon / scale is out of range ({exc})") from exc
        policy = _build("policy", ThresholdPolicy, self.policy, xi=self.xi, t_hat=self.t_hat)
        prior = _build("alpha_target", default_prior, spec, self.alpha_target, self.beta)
        tracer = self.resolved_tracer()
        _build("tracer", tracer_for, spec, np.zeros(spec.d), tracer, prior.gamma)
        return Plan(spec, tracer, prior, learners, policy)


_FIELD_TYPES = get_type_hints(ExperimentConfig)

TRACE_COLUMNS = (
    "trial_index", "mu_norm_l1", "excess_risk", "t_hat_contribution",
    "recall", "soundness", "lambda", "clip_events",
)
RECALL = TRACE_COLUMNS.index("recall")


def _trace_row(trial: int, report: TraceReport) -> tuple:
    """One TRACE_COLUMNS row."""
    return (trial, report.mu_l1, report.excess_risk, float(report.scores_train.mean()),
            report.recall_estimate, report.soundness_estimate, report.threshold,
            report.clip_events)


def _build(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError turned into a UsageError.

    Domain objects start an error about one parameter with its name
    ('p: must lie in [1, inf)').  The UsageError names that parameter when it
    is a config field, and `field` otherwise.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        name, _, reason = str(exc).partition(": ")
        if name not in _FIELD_TYPES:
            name, reason = field, str(exc)
        raise UsageError(f"{name}: {reason}") from exc


def _parse_field(key: str, val: str):
    if val == "none":
        return None
    kind = _FIELD_TYPES[key]
    try:
        if key == "noise_scales":
            return tuple(float(part) for part in val.split(",") if part.strip())
        for number in (int, float):
            if kind is number or number in get_args(kind):
                return number(val)
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


def _run_verify() -> tuple[list[tuple], list[str], list[str]]:
    # Serial: the battery's tasks are millisecond-sized and interpreter-bound,
    # so a thread pool only slows them down.
    checks = [task() for task in verification_grid_tasks()]
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


def _trace_rows(cfg: ExperimentConfig, plan: Plan, learner: LearnerConfig, purpose: str,
                threads: int) -> list[tuple]:
    def one(trial: int) -> tuple:
        rng = substream(cfg.master_seed, trial, purpose)
        report = run_trace_trial(learner, plan.spec, plan.tracer, plan.prior, cfg.n, cfg.M,
                                 plan.policy, rng)
        return _trace_row(trial, report)

    return _map_trials(one, cfg.trials, threads)


def _run_trace(cfg: ExperimentConfig, plan: Plan, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    rows = _trace_rows(cfg, plan, plan.learners[0], "trace", threads)
    summaries = _summaries(rows, TRACE_COLUMNS)
    failures = []
    if cfg.experiment == "dp_audit":
        ceiling = cfg.n * math.exp(cfg.epsilon) * cfg.xi + cfg.n * cfg.delta
        mean_recall, ci = _mean_ci([r[RECALL] for r in rows])
        summaries.append(f"#summary,dp_recall_ceiling,{_fmt(ceiling)},0")
        if mean_recall > ceiling + 4.0 * ci:
            failures.append(f"mean recall {mean_recall:.3g} > ceiling {ceiling:.3g} + 4×{ci:.2g} "
                            f"(over by {mean_recall - ceiling - 4.0 * ci:.3g})")
    return rows, summaries, failures


def _run_sweep(cfg: ExperimentConfig, plan: Plan, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    rows: list[tuple] = []
    means: list[tuple[float, float, float]] = []
    summaries: list[str] = []
    for si, (scale, learner) in enumerate(zip(cfg.noise_scales, plan.learners)):
        scale_rows = _trace_rows(cfg, plan, learner, f"sweep{si}", threads)
        rows.extend((scale,) + r for r in scale_rows)
        mean, ci = _mean_ci([r[RECALL] for r in scale_rows])
        means.append((scale, mean, ci))
        summaries.append(f"#summary,recall@scale={scale:g},{_fmt(mean)},{_fmt(ci)}")
    failures = []
    for (s0, m0, c0), (s1, m1, c1) in zip(means, means[1:]):
        if m1 > m0 + c0 + c1:
            failures.append(f"mean recall rose from {m0:.3g} ± {c0:.2g} at scale {s0:g} "
                            f"to {m1:.3g} ± {c1:.2g} at scale {s1:g} "
                            f"(over by {m1 - m0 - c0 - c1:.3g})")
    return rows, summaries, failures


def _run_trace_value(cfg: ExperimentConfig, plan: Plan, threads: int) -> tuple[list[tuple], list[str], list[str]]:
    def one(trial: int) -> tuple:
        rng = substream(cfg.master_seed, trial, "trace_value")
        value = trace_value_contribution(plan.learners[0], plan.spec, plan.tracer, plan.prior,
                                         cfg.n, rng)
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
    plan = config.validate()
    nthreads = resolve_threads(threads)
    if config.experiment == "verify":
        header: tuple[str, ...] = ("instance", "lhs", "rhs", "rel_error")
        rows, summaries, failures = _run_verify()
    elif config.experiment in ("trace", "dp_audit"):
        header = TRACE_COLUMNS
        rows, summaries, failures = _run_trace(config, plan, nthreads)
    elif config.experiment == "sweep":
        header = ("noise_scale",) + TRACE_COLUMNS
        rows, summaries, failures = _run_sweep(config, plan, nthreads)
    else:
        header = ("trial_index", "t_hat")
        rows, summaries, failures = _run_trace_value(config, plan, nthreads)
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
    except UsageError as exc:  # any other exception is a bug and keeps its traceback
        print(f"error: {exc}", flush=True)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", flush=True)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
