"""Pin the random stream: the exact bytes of ten small CSVs, nine of them seeded.

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
              "bdaadc4e5208c328ae3554a518efe4a6ebaf9d4109cc16919595590cba2f8d9f"),
    # k = d with gaussian_dp: no fresh rows, so the noise vector follows the training rows.
    "dp_audit_dense": (["dp-audit", "--d", "64", "--n", "16", "--M", "50", "--trials", "4",
                        "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                        "--seed", "11"],
                       "353127e3cb27735751c79c689f226f0b3d46eb35cb1f25837f7741ebeae1d305"),
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
    # Odd widths: at d = 37 (and k = 5) most rows start partway through a raw 8-byte word.
    "trace_odd": (["trace", "--d", "37", "--n", "16", "--M", "50", "--trials", "4",
                   "--alpha-target", "0.1", "--seed", "11"],
                  "378ac2adfc1e79b2e8fc2a73096ffc7bcf82104afe7144f002c5396763164451"),
    "dp_audit_odd": (["dp-audit", "--d", "37", "--k", "5", "--n", "16", "--M", "50", "--trials", "4",
                      "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                      "--seed", "11"],
                     "5723bc4c6c999d92d5923bd1d6eea29ee85b2213c2da50c99f019290ce10df7d"),
    # Past d/2: the drawn columns are the ones left out, and the support is the rest.
    "dp_audit_complement": (["dp-audit", "--d", "37", "--k", "30", "--n", "16", "--M", "50", "--trials", "4",
                             "--learner", "gaussian_dp", "--epsilon", "0.5", "--alpha-target", "0.1",
                             "--seed", "11"],
                            "9487e12065ee3dd410a413735ef72664b300570a8c096b78ee663ff94ec1223d"),
    # A non-vertex learner on dense rows: sampled fresh and null rows, scored by the float64 product.
    "trace_l1_odd": (["trace", "--variant", "l1_capped", "--s", "3", "--d", "37",
                      "--learner", "normalized_mean_l2", "--n", "16", "--M", "50", "--trials", "4",
                      "--alpha-target", "0.1", "--seed", "11"],
                     "d7f0d059df01470f59df20aaf994d3b2c0ea9230e5b85eaecf93638c1e1a102d"),
    # The exact identity battery draws nothing: this pins its enumeration, Gauss rules and
    # grid learners to the last bit, which its 1e-8 tolerance would not catch.
    "verify": (["verify"], "f55a30141b0dc46f74a2ac31c07f407f0d5c2f8e39bd6212ee367e7cd29bd570"),
}


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_csv_bytes_are_pinned(name, threads, tmp_path):
    assert SCHEMA_VERSION == 13
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--threads", str(threads), "--out", str(out)]) == EXIT_OK
    schema, _, body = out.read_bytes().partition(b"\n")
    experiment = argv[0].replace("-", "_")
    assert schema == f"# sparsetrace-csv schema={SCHEMA_VERSION} experiment={experiment}".encode()
    assert hashlib.sha256(body).hexdigest() == digest
