"""Pin the random stream: the exact bytes of four small seeded CSVs.

Each digest covers the bytes after the schema line, which is checked on
its own, so a digest that survives a schema bump shows that its run's
draws and values did not move.  A change that moves any draw (the
generator, the substream seeding, the order of draws, the Floyd support
sampler for k < d, the prior) or any formula on the way to the CSV fails
here; if the move is meant, bump SCHEMA_VERSION and record the new
digests.  They were taken with numpy 2.4.6, whose Generator samplers numpy
itself may change between feature releases.
"""

import hashlib

import pytest

from sparsetrace.harness import EXIT_OK, SCHEMA_VERSION, main

PINNED = {
    # k = d with ERM: the dense sign path and the exact null law.
    "trace": (["trace", "--d", "64", "--n", "16", "--M", "50", "--trials", "4",
               "--alpha-target", "0.1", "--seed", "11"],
              "88e6c3501cd4f0fc8b22b8d5b07564464f23d5e60dc8fec20be13feec3196a01"),
    # k < d: Floyd supports, then signs on them, and a sampled null law.
    "dp_audit": (["dp-audit", "--d", "256", "--k", "8", "--n", "16", "--M", "50", "--trials", "4",
                  "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                  "--seed", "11"],
                 "23dd18e712ed9deb97bc0995a0e20a303056c115d4fada7defc66637696af1ae"),
    # l1_capped at s = 1, the plain l_1 ball: dense +/-1 rows, the scaling-matrix score.
    "trace_l1": (["trace", "--variant", "l1_capped", "--s", "1", "--d", "64", "--n", "16",
                  "--M", "50", "--trials", "4", "--alpha-target", "0.1", "--seed", "11"],
                 "bae23d18fa31a020f0c0c30c17a7ac4101456766ae468c7d6bf24d3d6a55e052"),
    # Two noise scales on one draw per trial: shared rows, null sample and noise vector.
    "sweep": (["sweep", "--d", "256", "--k", "8", "--n", "16", "--M", "50", "--trials", "4",
               "--learner", "gaussian_dp", "--epsilon", "1", "--alpha-target", "0.1",
               "--noise-scales", "0.5,2", "--seed", "11"],
              "cdc4cd946e0e8edc0b971c3e6a43c040bab806058e62156a25e278adc9ff1faa"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_csv_bytes_are_pinned(name, threads, tmp_path):
    assert SCHEMA_VERSION == 7
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--threads", str(threads), "--out", str(out)]) == EXIT_OK
    schema, _, body = out.read_bytes().partition(b"\n")
    experiment = argv[0].replace("-", "_")
    assert schema == f"# sparsetrace-csv schema={SCHEMA_VERSION} experiment={experiment}".encode()
    assert hashlib.sha256(body).hexdigest() == digest
