import numpy as np

from sparsetrace.rng import substream


def test_substream_is_deterministic():
    a = substream(42, 3, "data").random(8)
    b = substream(42, 3, "data").random(8)
    assert np.array_equal(a, b)


def test_substreams_differ_across_trial_and_purpose():
    base = substream(42, 0, "data").random(8)
    for other in (substream(42, 1, "data"), substream(42, 0, "noise"), substream(43, 0, "data"),
                  substream(42, 0, "data\0"), substream(42, 0, "")):
        assert not np.array_equal(base, other.random(8))
