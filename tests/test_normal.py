"""mtkit.normal against numpy.random, its independent oracle."""

import math
from itertools import islice

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtkit import normal
from mtkit.normal import default_rng_normal


def _draws(seed, loc, scale, count):
    return np.fromiter(default_rng_normal(seed, loc, scale, count), float, count=count)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**70 - 1), count=st.integers(0, 3000))
def test_draws_equal_default_rngs(seed, count):
    expected = np.random.default_rng(seed).normal(0.0, 0.01, count)
    assert _draws(seed, 0.0, 0.01, count).tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**140), count=st.integers(0, 200))
@example(seed=2**128, count=8)
@example(seed=2**140, count=8)
def test_pcg64_words_equal_numpys(seed, count):
    # seeds of up to five 32-bit words: SeedSequence mixes a word beyond its
    # pool of four into every pool word; the examples always take that path
    words = np.array(list(islice(normal._pcg64(seed), count)), dtype=np.uint64)
    assert words.tobytes() == np.random.PCG64(seed).random_raw(count).tobytes()


def test_long_run_takes_the_tail_and_wedge_paths(monkeypatch):
    # 200,000 standard normals at seed 0: a wedge test calls exp once, a
    # tail sample calls log1p twice per try
    calls = {"exp": 0, "log1p": 0}

    def counted(name):
        real = getattr(math, name)

        def call(x):
            calls[name] += 1
            return real(x)
        return call

    for name in calls:
        monkeypatch.setattr(math, name, counted(name))
    count = 200_000
    got = _draws(0, 0.0, 1.0, count)
    assert got.tobytes() == np.random.default_rng(0).normal(0.0, 1.0, count).tobytes()
    assert (np.abs(got) > 3.6541528853610088).sum() >= 1  # beyond the ziggurat's base, r
    assert calls["log1p"] >= 2 and calls["exp"] >= 2000, calls


def test_first_draws_are_pinned():
    # the stream stays fixed even if a later numpy changes its generator
    assert [z.hex() for z in default_rng_normal(0, 0.0, 1.0, 3)] == [
        "0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1"]
    assert [z.hex() for z in default_rng_normal(1, 0.0, 1.0, 3)] == [
        "0x1.61e0d28bbb3a1p-2", "0x1.a4ab22204681fp-1", "0x1.525e18ce5fc0ap-2"]


def test_loc_turns_a_negative_zero_into_positive_zero(monkeypatch):
    # a word of layer 2 with the sign bit set and no magnitude bits is the
    # draw -0.0; loc + scale * z, numpy's form, makes it +0.0 at loc 0.0
    monkeypatch.setattr(normal, "_pcg64", lambda seed: iter([2 | 1 << 8] * 2))
    assert math.copysign(1.0, next(default_rng_normal(0, -0.0, 1.0, 1))) == -1.0
    assert math.copysign(1.0, next(default_rng_normal(0, 0.0, 0.01, 1))) == 1.0
