"""Block seeding pinned to numpy's own SeedSequence and PCG64 seeding, and
tracking's data bits pinned to numpy's `Generator.integers`.

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


@settings(max_examples=100, deadline=None)
@given(seed=_WIDE_INTS, start=st.integers(0, 2**32 + 8), count=st.integers(1, 5),
       r=st.integers(1, 4), num_pilots=st.integers(0, 6),
       num_data=st.integers(1, 13), num_frames=st.integers(3, 5),
       noise=st.sampled_from([1.0, 0.3, 1e-4]))
@example(seed=0, start=0, count=3, r=3, num_pilots=4, num_data=5,
         num_frames=4, noise=0.3)
@example(seed=1, start=7, count=2, r=1, num_pilots=0, num_data=1,
         num_frames=3, noise=1.0)
@example(seed=2, start=0, count=2, r=2, num_pilots=2, num_data=6,
         num_frames=3, noise=1.0)
def test_frame_bits_equal_numpys_integers(seed, start, count, r, num_pilots,
                                          num_data, num_frames, noise):
    # per frame and stream, numpy draws the noise, then
    # integers(0, 2, size=num_data); an odd num_data leaves a 32-bit half in
    # the generator, which the block carries itself
    s_total = num_pilots + num_data
    rngs, refs = ([engine._stream(seed, i, engine._STREAM_NOISE)
                   for i in range(start, start + count)] for _ in range(2))
    scale = np.sqrt(noise / 2.0)
    spare = None
    for _ in range(num_frames):
        n, v, bits, spare = engine._draw_frame_noise(rngs, spare, s_total, r,
                                                     num_data, noise)
        for j, ref in enumerate(refs):
            z = ref.standard_normal(2 * s_total * (r + 1))
            zn = z[:2 * s_total * r].reshape(2, s_total, r)
            zv = z[2 * s_total * r:].reshape(2, s_total)
            assert bits[j].tobytes() \
                == ref.integers(0, 2, size=num_data).tobytes()
            assert np.ascontiguousarray(n[:, j].T).tobytes() \
                == (scale * (zn[0] + 1j * zn[1])).tobytes()
            assert v[j].tobytes() == (scale * (zv[0] + 1j * zv[1])).tobytes()
    for j, (rng, ref) in enumerate(zip(rngs, refs)):
        state = ref.bit_generator.state
        assert rng.bit_generator.state["state"] == state["state"]
        if state["has_uint32"]:
            assert spare[j] == state["uinteger"]
        else:
            assert spare is None
