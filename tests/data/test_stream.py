"""``RandomStream`` draws what ``np.random.default_rng(seed)`` draws.

Every call is made on the stream and on a fresh numpy Generator with the
same seed; each pair of results must be equal in value and in Python type.
"""

from __future__ import annotations

import random as pyrandom
from collections import Counter

import numpy as np
import pytest

from repro.data.synthetic import corruption, stream as stream_module
from repro.data.synthetic.magellan import load_dataset
from repro.data.synthetic.stream import BLOCK, RandomStream
from repro.data.synthetic.vocabularies import ALL_FACTORIES

SEEDS = range(30)
CALLS_PER_SEED = 700

# (weight, call) — a call takes a ``random.Random`` and returns
# ``(method name, args, kwargs)``.  Native draws dominate so that runs of
# them cross block boundaries between the delegated calls.
CALLS = (
    (30, lambda r: ("random", (), {})),
    (20, lambda r: ("integers", (r.randrange(1, 60),), {})),
    (6, lambda r: ("integers", _span(r, 0), {})),
    (6, lambda r: ("integers", _span(r, 1), {})),
    (6, lambda r: ("integers", _span(r, 2**31 + r.randrange(-9, 9)), {})),
    (2, lambda r: ("integers", _span(r, 2**32 - 2 + r.randrange(4)), {})),
    (1, lambda r: ("integers", _span(r, 2**40), {})),
    (8, lambda r: ("uniform", (r.uniform(-5.0, 5.0), r.uniform(5.0, 9.0)), {})),
    (3, lambda r: ("normal", (0.0, 0.02), {})),
    (1, lambda r: ("choice", (r.randrange(5, 40), r.randrange(1, 5)), {"replace": False})),
    (1, lambda r: ("permutation", (r.randrange(1, 12),), {})),
)


def _span(r: pyrandom.Random, span: int) -> tuple[int, int]:
    """``(low, high)`` whose closed range ``[low, high - 1]`` is *span* wide."""
    low = r.randrange(-50, 50)
    return low, low + span + 1


def _assert_same(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {type(got)} != {type(want)}"
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _replay(seed: int, calls) -> None:
    stream, generator = RandomStream(seed), np.random.default_rng(seed)
    for index, (name, args, kwargs) in enumerate(calls):
        _assert_same(
            getattr(stream, name)(*args, **kwargs),
            getattr(generator, name)(*args, **kwargs),
            f"seed {seed} call {index} {name}{args}",
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_match_numpy(seed):
    r = pyrandom.Random(seed)
    weights, makers = zip(*CALLS)
    _replay(seed, [r.choices(makers, weights)[0](r) for _ in range(CALLS_PER_SEED)])


def test_block_boundaries_are_crossed_without_a_seam():
    calls = [("random", (), {})] * (3 * BLOCK + 7)
    calls += [("integers", (1000,), {})] * (5 * BLOCK + 3)
    calls += [("normal", (), {})] + [("random", (), {})] * (BLOCK + 1)
    _replay(7, calls)


RANDOM = ("random", (), {})
INTEGERS = ("integers", (1000,), {})
UNIFORM = ("uniform", (1.5, 2.5), {})
DRIFT = ("normal", (0.0, 0.02), {})


@pytest.mark.parametrize("before", [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("edge", [RANDOM, INTEGERS, UNIFORM, DRIFT])
def test_each_draw_at_each_block_position(before, edge):
    # A block's floats and its raw outputs are read at one position: a
    # draw taken as the block's last output, as the first of the next
    # block, or with nothing left to rewind must not shift the other.
    # The integer pair fills and empties the half-word buffer around it.
    for lead in ([], [INTEGERS]):
        calls = lead + [RANDOM] * (before - len(lead))
        calls += [edge, INTEGERS, edge, RANDOM, INTEGERS, INTEGERS, DRIFT]
        calls += [RANDOM] * BLOCK + [INTEGERS, UNIFORM]
        _replay(before, calls)


@pytest.mark.parametrize("delegated", [
    ("normal", (0.0, 1.0), {}),
    ("choice", (30, 4), {"replace": False}),
    ("permutation", (9,), {}),
    ("integers", (0, 2**40), {}),
    ("integers", (10,), {"size": 3}),
    ("random", (2,), {}),
    ("normal", (0.0, 0.02), {}),  # the corpus's numeric drift
    ("normal", (0.0, 1.0), {"size": 3}),
])
def test_delegated_call_right_after_a_buffered_half_word(delegated):
    # integers(n) uses the low half of a 64-bit output and buffers the
    # high half; the delegated call must see that buffer, and the stream
    # must see whatever buffer the call leaves behind.
    buffered = ("integers", (17,), {})
    for seed in range(5):
        _replay(seed, [buffered, delegated, buffered, buffered, delegated,
                       ("random", (), {}), buffered, buffered])


def test_a_span_of_one_value_consumes_nothing():
    stream, generator = RandomStream(3), np.random.default_rng(3)
    assert stream.integers(5, 6) == 5
    _assert_same(stream.random(), generator.random(), "next draw")


def test_failed_delegated_call_keeps_the_stream_in_step():
    stream, generator = RandomStream(4), np.random.default_rng(4)
    _assert_same(stream.integers(9), generator.integers(9), "before")
    for bad in ((0,), (5, 2)):
        with pytest.raises(ValueError):
            stream.integers(*bad)
    with pytest.raises(ValueError):
        stream.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        stream.normal(0.0, -1.0)
    _assert_same(stream.integers(9), generator.integers(9), "after")
    _assert_same(stream.random(), generator.random(), "after")


def test_only_public_generator_methods_are_delegated():
    stream = RandomStream(0)
    with pytest.raises(AttributeError):
        stream.bit_generator  # its position runs ahead of the stream's
    with pytest.raises(AttributeError):
        stream._private


def test_normal_keeps_the_half_word_across_failed_and_direct_calls():
    # normal() never reads the half-word buffer, so a buffered high half
    # must survive it, failed or not, and serve the next integers() call.
    stream, generator = RandomStream(6), np.random.default_rng(6)
    _assert_same(stream.integers(17), generator.integers(17), "fill")
    with pytest.raises(ValueError):
        stream.normal(0.0, -1.0)
    _assert_same(stream.normal(0.0, 0.02), generator.normal(0.0, 0.02), "drift")
    _assert_same(stream.integers(17), generator.integers(17), "half")
    _assert_same(stream.integers(17), generator.integers(17), "fresh")


@pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.name)
def test_factories_and_corruption_draw_the_same_through_either_generator(factory):
    # The factories and the corruption operators must make the same calls
    # on a numpy Generator as on the stream, in the same order.
    config = corruption.CorruptionConfig()
    outputs = []
    for rng in (np.random.default_rng(11), RandomStream(11)):
        drawn = []
        for _ in range(40):
            world = factory.make(rng)
            sibling = factory.make_similar(rng, world)
            drawn += [world, sibling, corruption.corrupt_entity(world, rng, config)]
        drawn.append(float(rng.random()))  # both end at the same position
        outputs.append(drawn)
    assert outputs[0] == outputs[1]


#: The only draws the Table 1 corpus still runs through
#: ``RandomStream._delegate`` (a bit-generator state round trip each): the
#: final shuffle.  A factory that starts calling ``rng.choice`` or a
#: shaped draw shows up here.
DELEGATED = {"permutation": 1}


@pytest.mark.parametrize("code, cap, normals", [("S-WA", 2000, 1169), ("S-BR", None, 274)])
def test_corpus_builds_delegate_only_the_final_shuffle(monkeypatch, code, cap, normals):
    delegated, direct = Counter(), Counter()
    delegate = RandomStream._delegate
    normal = RandomStream.normal

    def counting_delegate(self, method, /, *args, **kwargs):
        delegated[method.__name__] += 1
        return delegate(self, method, *args, **kwargs)

    def counting_normal(self, *args, **kwargs):
        direct["normal"] += 1
        return normal(self, *args, **kwargs)

    monkeypatch.setattr(stream_module.RandomStream, "_delegate", counting_delegate)
    monkeypatch.setattr(stream_module.RandomStream, "normal", counting_normal)
    load_dataset(code, seed=0, size_cap=cap)
    assert dict(delegated) == DELEGATED
    # The numeric drift's normal() draws run directly, not delegated.
    assert direct["normal"] == normals
