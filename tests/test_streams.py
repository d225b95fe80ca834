"""Block seeding pinned to numpy's own SeedSequence and PCG64 seeding.

These tests compare with the installed numpy and nothing else, so they hold
on every numpy that pyproject.toml accepts.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybf import engine

# both sides of 2**32 and 2**64, where SeedSequence takes one more word
_WIDE_INTS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1) \
    | st.integers(2**64, 2**80)
_STREAMS = st.sampled_from([engine._STREAM_CHANNEL, engine._STREAM_NOISE])


@settings(max_examples=200)
@given(seed=_WIDE_INTS,
       start=_WIDE_INTS | st.integers(2**32 - 8, 2**32 + 2),
       count=st.integers(1, 8), stream=_STREAMS)
@example(seed=2**32 - 1, start=2**32 - 3, count=6, stream=1)
@example(seed=2**128, start=0, count=3, stream=0)  # five seed words
def test_stream_states_equal_numpys(seed, start, count, stream):
    states = list(engine._stream_states(seed, start, count, stream))
    assert states == [
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, stream)))
        .state for i in range(start, start + count)]


@settings(max_examples=100)
@given(seed=_WIDE_INTS, start=_WIDE_INTS, stream=_STREAMS,
       n_normal=st.integers(1, 9), n_uniform=st.integers(0, 9),
       n_bits=st.integers(0, 4).map(lambda k: 2 * k + 1))
def test_reused_generator_draws_as_fresh_ones(seed, start, stream, n_normal,
                                              n_bits, n_uniform):
    # realization A leaves a buffered 32-bit value behind (an odd count of
    # bits); realization B must not see it
    streams = engine._block_streams(seed, start, 2, stream)
    for i, rng in zip((start, start + 1), streams):
        ref = engine._stream(seed, i, stream)
        for draw in (lambda g: g.standard_normal(n_normal),
                     lambda g: g.integers(0, 2, size=n_bits),
                     lambda g: g.uniform(0.0, 1.0, size=n_uniform)):
            assert draw(rng).tobytes() == draw(ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == 1
