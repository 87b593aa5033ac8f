"""The benchmark's traced run must still reach every site it wraps.

`perfbench/tracing.py` swaps named module attributes for timing wrappers
and stops a traced run when one is missing or never called.  These tests
run each workload's call path at a small size under that recorder, so a
refactor that moves a call off a wrapped name fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sparsetrace import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

SMALL = {
    "trace_dense": ["trace", "--d", "64", "--n", "16", "--M", "50", "--trials", "3",
                    "--alpha-target", "0.1"],
    "audit_sparse": ["dp-audit", "--d", "64", "--k", "8", "--n", "16", "--M", "50",
                     "--trials", "3", "--learner", "gaussian_dp", "--epsilon", "0.5",
                     "--alpha-target", "0.1"],
    "verify_oracles": ["verify"],
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_reaches_every_traced_site(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    recorder = tracing.Recorder()
    with recorder.traced_pass(2):
        status = harness.main(SMALL[name] + ["--threads", "2", "--seed", "1",
                                             "--out", str(tmp_path / "out.csv")])
    assert status == harness.EXIT_OK
    recorder.require(workload.required_sites, workload.balanced_counts)
    assert recorder.row_errors == []
