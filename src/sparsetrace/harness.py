"""Experiment configuration, seeded parallel execution, CSV output, and the CLI.

Five experiments are exposed as subcommands, described in EXPERIMENTS:
``verify``, ``trace``, ``dp-audit``, ``sweep`` and ``trace-value``.  Each
takes one flag per config field it reads.

Output is a versioned CSV written atomically (temp file + rename): a
header row, one record per line with floats at 17 significant digits, and
trailing ``#summary`` comment rows.  Records are keyed by trial index and
every trial owns a substream derived from (master_seed, trial, purpose),
so the bytes are identical for any worker count.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import sys
import tempfile
import traceback
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, get_args, get_type_hints

from .distributions import BetaPrior, mean_ci
from .learners import GAUSSIAN_DP, LEARNER_KINDS, SUBSAMPLE, LearnerConfig
from .oracles import verification_grid
from .problems import BOX_LP, VARIANTS, ProblemSpec
from .rng import substream
from .tracers import (ROW_LIMIT, ThresholdPolicy, TraceReport, default_prior, half_trace_value,
                      null_quantile, null_sample_size, run_trace_arms, run_trace_trial, score_kind,
                      trace_value_contribution)

IDENTITY_TOL = 1e-8
SCHEMA_VERSION = 13

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUG = 4


class UsageError(Exception):
    """Invalid configuration or conflicting flags; maps to exit code 2."""


class Plan(NamedTuple):
    """The domain objects a validated trace-style config describes."""

    spec: ProblemSpec
    prior: BetaPrior
    learners: tuple[LearnerConfig, ...]  # one per noise scale for sweep
    policy: ThresholdPolicy | None  # None for trace_value, which sets no threshold


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; serializes to diff-able key=value text."""

    experiment: str
    variant: str = BOX_LP
    d: int = 64
    p: float | None = None
    k: int | None = None
    s: int | None = None
    learner: str = "erm"
    epsilon: float = 1.0
    delta: float = 1e-5
    subsample_m: int | None = None
    xi: float = 0.05
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
                value = "none"
            elif isinstance(value, tuple):
                value = ",".join(_fmt(v) for v in value)
            lines.append(f"{f.name} = {_fmt(value)}")
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
        return ProblemSpec(self.variant, d=self.d, p=self.p, k=self.k, s=self.s)

    def validate(self) -> Plan | None:
        """Build the domain objects this config describes, or raise UsageError.

        Each object checks its own parameters (see `_build`); only the rules
        that no object makes are written here.  Returns None for an
        experiment that reads no trial parameters (verify).
        """
        experiment = EXPERIMENTS.get(self.experiment)
        if experiment is None:
            raise UsageError(f"experiment: must be one of {tuple(EXPERIMENTS)}")
        if not self.output_path:
            raise UsageError("output_path: must be nonempty")
        if not experiment.fields:
            return None
        for name in ("n", "M", "trials"):
            if name in experiment.fields and getattr(self, name) < 1:
                raise UsageError(f"{name}: must be >= 1")
            if name in experiment.fields and name != "trials" and getattr(self, name) > ROW_LIMIT:
                raise UsageError(f"{name}: must be <= {ROW_LIMIT}, the most rows one sample may hold")
        if self.master_seed < 0:
            raise UsageError("master_seed: must be >= 0")  # a SeedSequence entropy word
        spec = _build("variant", self.resolved_spec)
        learner = _build("learner", LearnerConfig, self.learner, epsilon=self.epsilon,
                         delta=self.delta, subsample_m=self.subsample_m)
        if self.learner == SUBSAMPLE and self.subsample_m > self.n:
            raise UsageError("subsample_m: must lie in [1, n]")
        if experiment.learner not in (None, self.learner):
            raise UsageError(f"learner: {self.experiment} requires {experiment.learner}")
        learners = (learner,)
        if "noise_scales" in experiment.fields:
            scales = self.noise_scales
            if not (scales and scales[0] > 0 and all(a < b for a, b in zip(scales, scales[1:]))):
                raise UsageError("noise_scales: must be positive and strictly increasing")
            # sigma scales as 1/epsilon, so a noise multiplier c is epsilon / c.
            try:
                learners = tuple(replace(learner, epsilon=self.epsilon / v) for v in scales)
            except ValueError as exc:
                raise UsageError(f"noise_scales: epsilon / scale is out of range ({exc})") from exc
        policy = _build("xi", null_quantile, self.xi) if "xi" in experiment.fields else None
        if "t_hat" in experiment.fields and self.t_hat is not None:
            policy = _build("t_hat", half_trace_value, self.t_hat)
        if policy is not None:
            _build("xi", null_sample_size, learners, spec, policy)
        prior = _build("alpha_target", default_prior, spec, self.alpha_target, self.beta)
        return Plan(spec, prior, learners, policy)


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
    """Parse one config-file or flag value; 'none' clears an optional field."""
    kind = _FIELD_TYPES[key]
    if val == "none" and type(None) in get_args(kind):
        return None
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


def _summaries(rows: list[tuple], header: tuple[str, ...]) -> list[str]:
    lines = []
    for i, col in enumerate(header):
        if col == "trial_index":
            continue
        values = [float(r[i]) for r in rows]
        mean, ci = mean_ci(values)
        lines.append(f"#summary,{col},{_fmt(mean)},{_fmt(ci)}")
    return lines


_pools: dict[int, tuple] = {}  # pid -> (workers, executor), forked at the first parallel run
atexit.register(_pools.clear)  # drop the pool while the modules it needs are still loaded


def _chunk(fn, cfg: ExperimentConfig, plan: Plan, purpose: str, start: int, stop: int) -> list:
    return [fn(cfg, plan, i, substream(cfg.master_seed, i, purpose)) for i in range(start, stop)]


def _map_trials(cfg: ExperimentConfig, plan: Plan, purpose: str, threads: int, fn) -> list:
    """fn(cfg, plan, trial, rng) for every trial, in trial order; rng is the trial's substream.

    Of min(threads, trials) contiguous chunks of trials, the caller runs the first and forked
    worker processes the others, so fn must be a module-level function."""
    chunks = min(threads, cfg.trials)
    ends = [cfg.trials * (i + 1) // chunks for i in range(chunks)]
    pool = _pools.get(os.getpid(), (0, None))
    if pool[0] < chunks - 1:
        if pool[1] is not None:
            pool[1].shutdown()  # so that no pool thread is alive when the new workers fork
        # Imported here, so that serial runs load no multiprocessing; why fork: README.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        pool = _pools[os.getpid()] = (chunks - 1, ProcessPoolExecutor(chunks - 1, get_context("fork")))
    try:
        futures = [pool[1].submit(_chunk, fn, cfg, plan, purpose, a, b)
                   for a, b in zip(ends, ends[1:])]
        rows = _chunk(fn, cfg, plan, purpose, 0, ends[0])
        for future in futures:
            rows += future.result()
    except BrokenExecutor:  # a worker died: join what is left, and fork a new pool next time
        _pools.pop(os.getpid())[1].shutdown()
        raise
    return rows


Outcome = tuple[tuple[str, ...], list[tuple], list[str], list[str]]  # header, rows, summaries, failures


def _run_verify(cfg: ExperimentConfig, plan: None, threads: int) -> Outcome:
    """The identity battery; fails on any relative error above IDENTITY_TOL or NaN."""
    # Serial: the instances are millisecond-sized and interpreter-bound.
    checks = verification_grid()
    rows = [(c.instance, c.lhs, c.rhs, c.rel_error) for c in checks]
    worst = max(checks, key=lambda c: (math.isnan(c.rel_error), c.rel_error))
    summaries = [f"#summary,max_rel_error,{_fmt(worst.rel_error)},0",
                 f"#summary,instances,{len(checks)},0"]
    failures = []
    over = sum(not c.rel_error <= IDENTITY_TOL for c in checks)
    if over:
        failures.append(f"{over} of {len(checks)} identities above rel_error {IDENTITY_TOL:g}; "
                        f"worst {worst.instance} at rel_error {worst.rel_error:.3g}")
    return ("instance", "lhs", "rhs", "rel_error"), rows, summaries, failures


def _trace_trial(cfg: ExperimentConfig, plan: Plan, trial: int, rng) -> tuple:
    return _trace_row(trial, run_trace_trial(plan.learners[0], plan.spec, score_kind(plan.spec),
                                             plan.prior, cfg.n, cfg.M, plan.policy, rng))


def _run_trace(cfg: ExperimentConfig, plan: Plan, threads: int) -> Outcome:
    rows = _map_trials(cfg, plan, "trace", threads, _trace_trial)
    return TRACE_COLUMNS, rows, _summaries(rows, TRACE_COLUMNS), []


def _run_dp_audit(cfg: ExperimentConfig, plan: Plan, threads: int) -> Outcome:
    """Trace trials that fail when mean recall exceeds n e^eps xi + n delta by 4 CIs."""
    header, rows, summaries, failures = _run_trace(cfg, plan, threads)
    ceiling = cfg.n * math.exp(cfg.epsilon) * cfg.xi + cfg.n * cfg.delta
    mean_recall, ci = mean_ci([r[RECALL] for r in rows])
    summaries.append(f"#summary,dp_recall_ceiling,{_fmt(ceiling)},0")
    if mean_recall > ceiling + 4.0 * ci:
        failures.append(f"mean recall {mean_recall:.3g} > ceiling {ceiling:.3g} + 4×{ci:.2g} "
                        f"(over by {mean_recall - ceiling - 4.0 * ci:.3g})")
    return header, rows, summaries, failures


def _sweep_trial(cfg: ExperimentConfig, plan: Plan, trial: int, rng) -> list[tuple]:
    return [_trace_row(trial, report) for report in run_trace_arms(
        plan.learners, plan.spec, score_kind(plan.spec), plan.prior, cfg.n, cfg.M, plan.policy, rng)]


def _run_sweep(cfg: ExperimentConfig, plan: Plan, threads: int) -> Outcome:
    """Every noise scale on each trial's one draw; fails where the paired rise in recall from one
    scale to the next exceeds its CI half-width, a one-sided test of about 2.5% at equal means."""
    arms = list(zip(*_map_trials(cfg, plan, "sweep", threads, _sweep_trial)))  # rows per scale
    rows = [(scale,) + r for scale, arm in zip(cfg.noise_scales, arms) for r in arm]
    recalls = [[r[RECALL] for r in arm] for arm in arms]
    summaries = [f"#summary,recall@scale={scale:g},{_fmt(mean)},{_fmt(ci)}"
                 for scale, (mean, ci) in zip(cfg.noise_scales, map(mean_ci, recalls))]
    failures = []
    for s0, s1, r0, r1 in zip(cfg.noise_scales, cfg.noise_scales[1:], recalls, recalls[1:]):
        rise, ci = mean_ci([b - a for a, b in zip(r0, r1)])
        if rise > ci:
            failures.append(f"mean recall rose by {rise:.3g} ± {ci:.2g} from scale {s0:g} "
                            f"to scale {s1:g} (over by {rise - ci:.3g})")
    return ("noise_scale",) + TRACE_COLUMNS, rows, summaries, failures


def _trace_value_trial(cfg: ExperimentConfig, plan: Plan, trial: int, rng) -> tuple:
    return (trial, trace_value_contribution(plan.learners[0], plan.spec, score_kind(plan.spec),
                                            plan.prior, cfg.n, rng))


def _run_trace_value(cfg: ExperimentConfig, plan: Plan, threads: int) -> Outcome:
    rows = _map_trials(cfg, plan, "trace_value", threads, _trace_value_trial)
    mean, ci = mean_ci([r[1] for r in rows])
    return ("trial_index", "t_hat"), rows, [f"#summary,t_hat,{_fmt(mean)},{_fmt(ci)}"], []


class Experiment(NamedTuple):
    """One subcommand: its help line, its runner, and what it reads."""

    help: str
    runner: Callable[[ExperimentConfig, Plan | None, int], Outcome]
    fields: tuple[str, ...] = ()  # config fields read besides master_seed and output_path
    learner: str | None = None  # the learner kind it requires, if any


_TRIAL_FIELDS = tuple(f.name for f in fields(ExperimentConfig)
                      if f.name not in ("experiment", "noise_scales", "master_seed", "output_path"))

# Keyed by config name; the subcommand is the same name with '-' for '_'.
EXPERIMENTS = {
    "verify": Experiment("run the exact identity-check battery", _run_verify),
    "trace": Experiment("soundness/recall trials for one learner", _run_trace, _TRIAL_FIELDS),
    # The recall ceiling assumes the xi null-quantile threshold, so no t_hat.
    "dp_audit": Experiment("trace trials plus the DP recall ceiling", _run_dp_audit,
                           tuple(f for f in _TRIAL_FIELDS if f != "t_hat"), GAUSSIAN_DP),
    "sweep": Experiment("trace trials across Gaussian noise scales", _run_sweep,
                        _TRIAL_FIELDS + ("noise_scales",), GAUSSIAN_DP),
    "trace_value": Experiment("plug-in trace value estimation", _run_trace_value,
                              tuple(f for f in _TRIAL_FIELDS if f not in ("M", "xi", "t_hat"))),
}

_FIELD_HELP = {
    "master_seed": "master seed, >= 0",
    "output_path": "CSV output path",
    "variant": "problem geometry",
    "d": "dimension, d >= 1",
    "p": "norm index, p in [1, inf) (box_lp only; default 2)",
    "k": "data sparsity, 1 <= k <= d (default d; l1_capped takes only d)",
    "s": "box cap, 1 <= s <= d (l1_capped only; s = 1 is the plain l1 ball)",
    "learner": "learner kind",
    "epsilon": "DP epsilon in (0, 10] (gaussian_dp)",
    "delta": "DP delta in (0, 1) (gaussian_dp)",
    "subsample_m": "subsample size, 1 <= m <= n (subsample)",
    "xi": f"soundness level, xi in (0, 1); >= {10 / ROW_LIMIT:g} where the null is sampled, not exact",
    "t_hat": "finite trace value; sets the threshold to t_hat / 2 (else the xi null quantile)",
    "beta": "prior shape override, beta > 0",
    "alpha_target": "target excess risk used to derive beta, > 0",
    "n": f"training set size, 1 <= n <= {ROW_LIMIT}",
    "M": f"fresh evaluation points, 1 <= M <= {ROW_LIMIT} (unused where the null law is exact)",
    "trials": "independent trials, >= 1",
    "noise_scales": "comma-separated positive noise multipliers",
}
_FIELD_CHOICES = {"variant": VARIANTS, "learner": LEARNER_KINDS}
_FLAG_NAMES = {"master_seed": "--seed", "output_path": "--out"}


def run(config: ExperimentConfig, threads: int | None = None) -> int:
    """Execute one experiment, write its CSV, and return the exit status.

    `threads` counts the trial processes, this one included, and must be
    >= 1 (default: the CPUs this process may use).  A failed check prints
    one line per failure to stderr, naming the check and its margin, and
    returns EXIT_ACCEPTANCE.
    """
    if threads is not None and threads < 1:
        raise UsageError("threads: must be >= 1")
    plan = config.validate()
    nthreads = threads or (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    header, rows, summaries, failures = EXPERIMENTS[config.experiment].runner(config, plan, nthreads)
    _write_csv(config.output_path, header, rows, summaries, config.experiment)
    command = config.experiment.replace("_", "-")
    for failure in failures:
        print(f"{command}: {failure}", file=sys.stderr, flush=True)
    return EXIT_ACCEPTANCE if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per EXPERIMENTS entry; flag values stay strings for `_parse_field`."""
    parser = argparse.ArgumentParser(
        prog="sparsetrace",
        description="Tracing attacks and fingerprinting identity checks for "
                    "hard stochastic convex optimization instances.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name.replace("_", "-"), help=experiment.help)
        p.add_argument("--config", metavar="FILE", help="config file; flags override its values")
        p.add_argument("--threads", type=int,
                       help="worker processes, >= 1, this one included (default: the CPUs it may use)")
        for field in ("master_seed", "output_path") + experiment.fields:
            p.add_argument(_FLAG_NAMES.get(field, "--" + field.replace("_", "-")), dest=field,
                           choices=_FIELD_CHOICES.get(field), help=_FIELD_HELP[field])
    return parser


def _parse_args(argv=None) -> tuple[ExperimentConfig, int | None]:
    args = vars(_build_parser().parse_args(argv))
    experiment = args.pop("experiment").replace("-", "_")
    threads = args.pop("threads")
    config_path = args.pop("config")
    if config_path is None:
        config = ExperimentConfig(experiment=experiment)
    else:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = ExperimentConfig.from_text(fh.read())
        except OSError as exc:
            raise UsageError(f"config: cannot read {config_path!r}: {exc}") from exc
        if config.experiment != experiment:
            raise UsageError(f"experiment: the config file sets {config.experiment!r}, "
                             f"the subcommand {experiment!r}")
    overrides = {key: _parse_field(key, value) for key, value in args.items() if value is not None}
    return replace(config, **overrides), threads


def parse_cli(argv=None) -> ExperimentConfig:
    """Parse CLI arguments into a validated ExperimentConfig."""
    config, _ = _parse_args(argv)
    config.validate()
    return config


def main(argv=None) -> int:
    """Console entry point; returns the process exit code."""
    try:
        config, threads = _parse_args(argv)
        return run(config, threads=threads)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr, flush=True)
        return EXIT_IO
    except Exception:  # anything else is a bug: keep its traceback
        traceback.print_exc()
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
