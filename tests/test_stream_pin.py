"""Pin the random stream: the exact bytes of five small seeded CSVs.

Each digest covers the bytes after the schema line, which is checked on
its own, so a digest that survives a schema bump shows that its run's
draws and values did not move.  A change that moves any draw (the
generator, the substream seeding, the order of draws, the k < d support
sampler's redraw rounds, the one-byte sign rule, the prior) or any
formula on the way to the CSV fails here; if the move is meant, bump
SCHEMA_VERSION and record the new digests.  They were taken with numpy 2.4.6, whose Generator samplers numpy
itself may change between feature releases.
"""

import hashlib

import pytest

from sparsetrace.harness import EXIT_OK, SCHEMA_VERSION, main

PINNED = {
    # k = d with ERM: the dense sign path and the exact null law, whose flagged mass is the soundness.
    "trace": (["trace", "--d", "64", "--n", "16", "--M", "50", "--trials", "4",
               "--alpha-target", "0.1", "--seed", "11"],
              "61a09d819568e6ad4a9f0deba26fa1080409837319a8b2f2694a9a5893d00caa"),
    # k = d with gaussian_dp: no fresh rows, so the noise vector follows the training rows.
    "dp_audit_dense": (["dp-audit", "--d", "64", "--n", "16", "--M", "50", "--trials", "4",
                        "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                        "--seed", "11"],
                       "af8196463ca9a20be1b37190160b5a5c9ef3069ebe7cd7cb762728f302382733"),
    # k < d: redraw-until-distinct supports, then one byte per sign on them, and a sampled null law.
    "dp_audit": (["dp-audit", "--d", "256", "--k", "8", "--n", "16", "--M", "50", "--trials", "4",
                  "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                  "--seed", "11"],
                 "b634134a91ecc26c9d46151b00e54fe7ba86b34a393b4ff214b84890b6700dfc"),
    # l1_capped at s = 1, the plain l_1 ball: dense +/-1 rows, the scaling-matrix score.
    "trace_l1": (["trace", "--variant", "l1_capped", "--s", "1", "--d", "64", "--n", "16",
                  "--M", "50", "--trials", "4", "--alpha-target", "0.1", "--seed", "11"],
                 "1bcaf29ef2d1554441a83d15371d750fc7442afa6847ee2b815281f649d002ec"),
    # Two noise scales on one draw per trial: shared rows, null sample and noise vector.
    "sweep": (["sweep", "--d", "256", "--k", "8", "--n", "16", "--M", "50", "--trials", "4",
               "--learner", "gaussian_dp", "--epsilon", "1", "--alpha-target", "0.1",
               "--noise-scales", "0.5,2", "--seed", "11"],
              "5a6e42f46e4de07c8450530530ca279a317811eb3d250e0113180fc92ee64d66"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_csv_bytes_are_pinned(name, threads, tmp_path):
    assert SCHEMA_VERSION == 12
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--threads", str(threads), "--out", str(out)]) == EXIT_OK
    schema, _, body = out.read_bytes().partition(b"\n")
    experiment = argv[0].replace("-", "_")
    assert schema == f"# sparsetrace-csv schema={SCHEMA_VERSION} experiment={experiment}".encode()
    assert hashlib.sha256(body).hexdigest() == digest
