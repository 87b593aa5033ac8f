"""Pin the random stream: the exact bytes of three small seeded CSVs.

The digests change only together with `harness.SCHEMA_VERSION`.  A change
that moves any draw (the generator, the substream seeding, the order of
draws, the Floyd support sampler for k < d, the prior) or any formula on the
way to the CSV fails here; if the move is meant, bump SCHEMA_VERSION and
record the new digests.  They were taken with numpy 2.4.6, whose Generator
samplers numpy itself may change between feature releases.
"""

import hashlib

import pytest

from sparsetrace.harness import EXIT_OK, SCHEMA_VERSION, main

PINNED = {
    # k = d: the dense sign path.
    "trace": (["trace", "--d", "64", "--n", "16", "--M", "50", "--trials", "4",
               "--alpha-target", "0.1", "--seed", "11"],
              "462106b2d30f7f1196203ceb5d065fda7c6c9fc79217a6701bb2aa61b41f4d57"),
    # k < d: Floyd supports, then signs on them.
    "dp_audit": (["dp-audit", "--d", "256", "--k", "8", "--n", "16", "--M", "50", "--trials", "4",
                  "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                  "--seed", "11"],
                 "cea8dafbadc1cdd0a5c3b1b0130be4df3c72a928ccc9ee33bde5875b76a43106"),
    # l1_capped at s = 1, the plain l_1 ball: dense +/-1 rows, the scaling-matrix score.
    "trace_l1": (["trace", "--variant", "l1_capped", "--s", "1", "--d", "64", "--n", "16",
                  "--M", "50", "--trials", "4", "--alpha-target", "0.1", "--seed", "11"],
                 "7d7ec29eb38ea82e10411601ad4e538772500476eb8600047dd167ef170804e8"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_csv_bytes_are_pinned(name, threads, tmp_path):
    assert SCHEMA_VERSION == 3
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--threads", str(threads), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
