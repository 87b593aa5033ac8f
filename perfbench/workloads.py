"""The benchmark's workloads: inputs, one timed pass, and correctness checks.

Every input is spelled out here as CLI arguments, the prior shape beta
included (computed from the package's documented box_lp rule
beta = ((k/d)^(1/p) / (6 alpha))^2 rather than passed as an alpha-target),
so a change to a default inside the package cannot change the workload.
A pass is one experiment run at a given thread count; the serial and the
nproc pass of a round share a seed and must produce identical bytes.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from scipy import integrate

from sparsetrace import harness, oracles

IDENTITY_TOL = 1e-8
SUMMARY_RTOL = 1e-9
# The small-d dp-audit cases run on this fixed seed, not on --seed: they fail
# on every run until the tie fault in calibrate_threshold is mended.
SMALL_D_SEED = 5


@dataclass
class PassResult:
    trials: int
    seconds: float
    csv: bytes
    extra: str = ""  # results the CSV does not hold; compared across thread counts too
    errors: list[str] = field(default_factory=list)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def parse_csv(data: bytes):
    """Split a sparsetrace CSV into header, rows and {name: (mean, ci)} summaries."""
    lines = data.decode("utf-8").splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    summaries = {}
    for line in lines[2:]:
        if line.startswith("#summary,"):
            _, name, mean, ci = line.split(",")
            summaries[name] = (float(mean), float(ci))
    return header, rows, summaries


def _close(a: float, b: float, rtol: float = SUMMARY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-15


def _mean_ci(values: list[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def beta_abs_moments(beta: float, gamma: float) -> tuple[float, float]:
    """E|X| and Var|X| of the symmetric beta law on [-gamma, gamma], by quadrature."""
    density = lambda x: (1.0 - x * x) ** (beta - 1.0)
    mass = integrate.quad(density, 0.0, 1.0)[0]
    first = integrate.quad(lambda x: x * density(x), 0.0, 1.0)[0] / mass
    second = integrate.quad(lambda x: x * x * density(x), 0.0, 1.0)[0] / mass
    return gamma * first, gamma * gamma * (second - first * first)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    balanced_counts: tuple[str, ...] = ()  # traced counts every pass keeps equal

    def extra_ops(self, out_dir, nproc: int) -> tuple[int, int, list[str]]:
        """Operations beyond the passes: (attempted, failed, errors)."""
        return 0, 0, []

    def check_run(self) -> list[str]:
        """Checks made once per run, outside the rounds."""
        return []


class TraceWorkload(Workload):
    """A trace-style experiment run through `harness.run` at 1 and nproc threads."""

    name = ""
    argv: list[str] = []
    trials = 0
    required_sites = (
        "sparsetrace.harness.run", "sparsetrace.harness.substream",
        "sparsetrace.harness.run_trace_trial", "sparsetrace.tracers.score_batch",
        "sparsetrace.tracers.calibrate_threshold", "sparsetrace.tracers.sample_prior",
        "sparsetrace.tracers.sample_matrix", "sparsetrace.tracers.Dataset",
        "sparsetrace.tracers.train", "sparsetrace.learners.support_argmax",
        "sparsetrace.tracers.excess_risk",
    )
    # Every sampled row is scored, so a traced pass keeps these counts equal.
    balanced_counts = ("entries_sampled", "entries_scored")

    @property
    def setup_argv(self) -> list[str]:
        return self.argv + ["--trials", str(self.trials)]

    def run_pass(self, threads: int, seed: int, path: str) -> PassResult:
        config = harness.parse_cli(self.setup_argv + ["--seed", str(seed), "--out", path])
        start = time.perf_counter()
        status = harness.run(config, threads=threads)
        seconds = time.perf_counter() - start
        errors = [] if status == 0 else [f"{self.name}: run exited {status} at {threads} threads"]
        return PassResult(self.trials, seconds, _read(path), errors=errors)

    def check(self, result: PassResult) -> list[str]:
        config = harness.parse_cli(self.setup_argv)
        header, rows, summaries = parse_csv(result.csv)
        errors = []
        if len(rows) != self.trials:
            return [f"{self.name}: {len(rows)} rows, expected {self.trials}"]
        cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
        for name, values in cols.items():
            if name == "trial_index":
                continue
            mean, ci = _mean_ci(values)
            got = summaries.get(name)
            if got is None or not (_close(got[0], mean) and _close(got[1], ci)):
                errors.append(f"{self.name}: #summary {name} {got} != recomputed ({mean}, {ci})")
        # Per-trial anomaly columns may later move into #summary rows or be
        # dropped; they are checked while they exist.
        if any(v != 0 for v in cols.get("clip_events", ())):
            errors.append(f"{self.name}: nonzero clip_events")
        if cols.get("flags_count", cols["recall"]) != cols["recall"]:
            errors.append(f"{self.name}: flags_count differs from recall")

        xi, M = config.xi, config.M
        soundness = statistics.fmean(cols["soundness"])
        # Standard error of one trial's soundness at level xi over M fresh points.
        limit = xi + 3.0 * math.sqrt(xi * (1.0 - xi) / M)
        if soundness > limit:
            errors.append(f"{self.name}: mean soundness {soundness:.5f} > {limit:.5f}")

        # Each trial's mu_norm_l1 / d averages d independent |X|; the band is
        # five standard errors of the mean over all trials under the prior law,
        # so a correct sampler fails it about once in two million passes.
        spec = config.resolved_spec()
        gamma = spec.k / spec.d
        e_abs, var_abs = beta_abs_moments(config.beta, gamma)
        mu_mean = statistics.fmean(cols["mu_norm_l1"]) / spec.d
        band = 5.0 * math.sqrt(var_abs / (spec.d * self.trials))
        if abs(mu_mean - e_abs) > band:
            errors.append(f"{self.name}: mean mu_norm_l1/d {mu_mean:.6g} outside "
                          f"E|X| = {e_abs:.6g} +- {band:.3g}")
        return errors + self.check_recall(config, cols["recall"], summaries)

    def check_recall(self, config, recall, summaries) -> list[str]:
        raise NotImplementedError


class TraceDense(TraceWorkload):
    """Criterion-5 config: dense sampling and scoring, ERM learner."""

    name = "trace_dense"
    trials = 8
    argv = ["trace", "--variant", "box_lp", "--p", "2", "--d", "4096", "--k", "4096",
            "--learner", "erm", "--n", "400", "--M", "200", "--xi", "0.01",
            "--beta", repr((1.0 / (6.0 * 0.0375)) ** 2)]

    def check_recall(self, config, recall, summaries) -> list[str]:
        mean = statistics.fmean(recall)
        if mean < config.xi * config.n:
            return [f"{self.name}: mean recall {mean:.2f} < xi*n = {config.xi * config.n:g}"]
        return []


class AuditSparse(TraceWorkload):
    """dp-audit on random k-sparse supports, plus the small-d tie-fault cases."""

    name = "audit_sparse"
    trials = 4
    argv = ["dp-audit", "--variant", "box_lp", "--p", "2", "--d", "8192", "--k", "64",
            "--learner", "gaussian_dp", "--epsilon", "0.5", "--delta", "1e-5",
            "--n", "200", "--M", "1000", "--xi", "0.05",
            "--beta", repr((math.sqrt(64 / 8192) / (6.0 * 0.0025)) ** 2)]
    small_d = (8, 16, 32)

    def small_d_argv(self, d: int, path: str, threads: int) -> list[str]:
        return ["dp-audit", "--variant", "box_lp", "--d", str(d), "--n", "64",
                "--learner", "gaussian_dp", "--epsilon", "0.1", "--delta", "1e-5",
                "--xi", "0.05", "--beta", "1", "--trials", "300",
                "--seed", str(SMALL_D_SEED), "--out", path, "--threads", str(threads)]

    def extra_ops(self, out_dir, nproc: int) -> tuple[int, int, list[str]]:
        """Run the small-d cases; exit 1 is the known tie fault, counted as failed."""
        failed, errors = 0, []
        for d in self.small_d:
            status = harness.main(self.small_d_argv(d, str(out_dir / f"small-d{d}.csv"), nproc))
            if status == 1:
                failed += 1
            elif status != 0:
                errors.append(f"{self.name}: small-d dp-audit d={d} exited {status}")
        return len(self.small_d), failed, errors

    def check_recall(self, config, recall, summaries) -> list[str]:
        mean, ci = _mean_ci(recall)
        ceiling = config.n * math.exp(config.epsilon) * config.xi + config.n * config.delta
        errors = []
        reported = summaries.get("dp_recall_ceiling", (float("nan"),))[0]
        if not _close(reported, ceiling):
            errors.append(f"{self.name}: dp_recall_ceiling {reported} != {ceiling}")
        if mean > ceiling + 4.0 * ci:
            errors.append(f"{self.name}: mean recall {mean:.3f} > ceiling {ceiling:.3f} + 4x{ci:.3f}")
        return errors


def mean_identity(z):
    """The identity learner for n = 1 (the mean of a single sample)."""
    return z.mean(axis=0)


class VerifyOracles(Workload):
    """The CLI verify battery plus enumeration-heavy identity instances."""

    name = "verify_oracles"
    setup_argv = ["verify"]
    required_sites = ("sparsetrace.harness.run", "sparsetrace.oracles.prior_quadrature",
                      "sparsetrace.oracles.support_argmax",
                      "sparsetrace.oracles.verify_sparse_identity",
                      "sparsetrace.oracles.verify_scaling_identity")
    # Instances near ENUMERATION_LIMIT, one per shape, covering the three grid
    # learners: (oracle, arguments before the learner, learner name).  The
    # oracles have no thread setting, so both passes run them one by one.
    heavy = (
        ("verify_sparse_identity", (5, 5, 3, 2.0), "mean_cubed"),
        ("verify_scaling_identity", (6, 2, 2.0, 0.9), "mean_clipped"),
        ("verify_sparse_identity", (7, 1, 3, 2.0), "mean_box_vertex"),
        ("verify_scaling_identity", (4, 3, 2.0, 0.9), "mean_box_vertex"),
    )

    @staticmethod
    def _heavy_instance(task):
        oracle, args, name = task
        # Looked up at call time so the traced run sees the wrapped oracle.
        return getattr(oracles, oracle)(*args, getattr(oracles, name), name=name)

    def run_pass(self, threads: int, seed: int, path: str) -> PassResult:
        start = time.perf_counter()
        status = harness.main(["verify", "--out", path, "--threads", str(threads)])
        heavy = [self._heavy_instance(t) for t in self.heavy]
        seconds = time.perf_counter() - start
        data = _read(path)
        errors = [] if status == 0 else [f"{self.name}: verify exited {status} at {threads} threads"]
        errors += [f"{self.name}: {c.instance} rel_error {c.rel_error:.3g}"
                   for c in heavy if not c.rel_error <= IDENTITY_TOL]
        battery = len(parse_csv(data)[1])
        return PassResult(battery + len(heavy), seconds, data, repr(heavy), errors)

    def check(self, result: PassResult) -> list[str]:
        _, rows, summaries = parse_csv(result.csv)
        errors = []
        worst = 0.0
        for instance, lhs, rhs, rel in rows:
            lhs, rhs, rel = float(lhs), float(rhs), float(rel)
            recomputed = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            if not rel <= IDENTITY_TOL or not _close(rel, recomputed, 1e-6):
                errors.append(f"{self.name}: {instance} rel_error {rel:.3g} (recomputed {recomputed:.3g})")
            worst = max(worst, rel)
        if summaries.get("max_rel_error", (None,))[0] != worst:
            errors.append(f"{self.name}: #summary max_rel_error != {worst}")
        if summaries.get("instances", (None,))[0] != len(rows):
            errors.append(f"{self.name}: #summary instances != {len(rows)}")
        return errors

    def check_run(self) -> list[str]:
        """Closed-form anchor and oracle agreement, independent of the battery."""
        errors = []
        for beta in (1.0, 2.0, 5.0):
            expected = 2.0 * beta / (2.0 * beta + 1.0)
            r = oracles.verify_sparse_identity(1, 1, 1, beta, mean_identity, name="identity")
            if not (_close(r.lhs, expected, 1e-12) and _close(r.rhs, expected, 1e-12)):
                errors.append(f"{self.name}: identity learner at beta={beta:g} gives "
                              f"({r.lhs}, {r.rhs}), expected {expected}")
        for name, fn in oracles.GRID_LEARNERS:
            sparse = oracles.verify_sparse_identity(3, 3, 2, 2.0, fn, name=name)
            dense = oracles.verify_scaling_identity(3, 2, 2.0, 1.0, fn, name=name)
            if not (_close(sparse.lhs, dense.lhs, IDENTITY_TOL)
                    and _close(sparse.rhs, dense.rhs, IDENTITY_TOL)):
                errors.append(f"{self.name}: sparse and scaling oracles disagree at k=d=3, "
                              f"gamma=1 for {name}")
        return errors


WORKLOADS = {w.name: w for w in (TraceDense(), AuditSparse(), VerifyOracles())}
