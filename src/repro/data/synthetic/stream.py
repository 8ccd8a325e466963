"""A seeded random stream that draws raw PCG64 outputs in blocks.

The corpus generator makes about 150k scalar draws for a 2000-pair dataset
(``random()`` per corruption decision, ``integers(n)`` per vocabulary
choice), and numpy's per-call overhead is most of their cost.
:class:`RandomStream` draws the underlying 64-bit PCG64 outputs in blocks
and computes the common scalar draws with numpy's own algorithms, so for
the same call sequence every value it returns equals the one
``np.random.default_rng(seed)`` returns, with the same Python type:

* ``random()`` is ``(u >> 11) * 2**-53`` of the next 64-bit output; one
  numpy pass derives these floats for a whole block when it is drawn, so
  the call only steps an iterator;
* ``integers(low, high=None)`` is numpy's 32-bit Lemire rejection on
  ``next_uint32``, which serves the high half of a 64-bit output on the
  call after the one that used its low half (PCG64's ``has_uint32`` /
  ``uinteger`` buffer, kept here as ``_half``); a span of one value
  consumes nothing;
* ``uniform(low, high)`` is ``low + (high - low) * random()``.

``normal`` runs on the real :class:`numpy.random.Generator`, but directly:
numpy's normal reads whole 64-bit outputs only, never the half-word
buffer, so the bit generator is rewound to the stream's position, the
call runs, and the stream keeps its own half-word and starts a new block.

Every other call (``choice``, ``permutation``, ``integers`` with a
``size`` or a span wider than 32 bits, ...) is delegated: the bit
generator is rewound and given the stream's half-word buffer, the call
runs, and the stream reads the buffer back and starts a new block.  The
delegating methods are plain methods made once per public ``Generator``
method; a ``__getattr__`` hook would slow every attribute read of the
stream itself.
"""

from __future__ import annotations

import math

import numpy as np

#: Raw outputs per block.  A delegated or ``normal`` call discards the
#: rest of its block, so blocks stay small.
BLOCK = 256

_TWO_M53 = 2.0**-53
_MASK32 = 0xFFFFFFFF
_ELEVEN = np.uint64(11)
# numpy returns a scalar ``integers()`` draw as ``np.int64``; building one
# costs about as much as the draw itself, so small values come prebuilt.
_INT64 = list(np.arange(10_000, dtype=np.int64))
_N_INT64 = len(_INT64)
_DTYPE = np.int64
_EXHAUSTED = iter(())


class RandomStream:
    """Scalar draws bit-identical to ``np.random.default_rng(seed)``.

    ``_floats`` iterates over the current block's ``random()`` values and
    is the stream's position; ``_raws`` holds the same block's raw outputs,
    read at that position by ``integers``.
    """

    __slots__ = ("_generator", "_bit_generator", "_floats", "_raws", "_half")

    def __init__(self, seed: int) -> None:
        self._generator = np.random.default_rng(seed)
        self._bit_generator = self._generator.bit_generator
        self._half: int | None = None
        self._floats = _EXHAUSTED
        self._raws = np.empty(0, dtype=np.uint64)

    def _refill(self) -> float:
        """Draw a new block and return its first ``random()`` value."""
        raws = self._raws = self._bit_generator.random_raw(BLOCK)
        self._floats = iter(((raws >> _ELEVEN) * _TWO_M53).tolist())
        return next(self._floats)

    # The hot paths step the block with ``for value in self._floats``
    # (``break`` or ``return`` on the first item, a refill when empty): a
    # list iterator's loop step is cheaper than a ``next()`` call.

    def random(self, size=None):
        if size is not None:
            return self._delegate(self._generator.random, size)
        for value in self._floats:
            return value
        return self._refill()

    def uniform(self, low=0.0, high=1.0, size=None):
        span = high - low
        if (
            size is not None
            or type(low) is not float
            or type(high) is not float
            or not 0.0 <= span < math.inf  # numpy checks these itself
        ):
            return self._delegate(self._generator.uniform, low, high, size)
        for value in self._floats:
            break
        else:
            value = self._refill()
        return low + span * value

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if high is None:
            value, span = 0, low
        else:
            value, span = low, high - low
        if (
            size is not None
            or dtype is not _DTYPE
            or endpoint
            or type(span) is not int
            or not 0 < span <= _MASK32
        ):
            return self._delegate(
                self._generator.integers, low, high, size, dtype, endpoint
            )
        if span > 1:  # numpy's closed range [0, span - 1] is not one value
            # _next32, inlined: this is the corpus's most frequent draw.
            half = self._half
            if half is None:
                for _ in self._floats:
                    break
                else:
                    self._refill()
                raw = self._raws.item(-1 - self._floats.__length_hint__())
                self._half = raw >> 32
                m = (raw & _MASK32) * span
            else:
                self._half = None
                m = half * span
            if m & _MASK32 < span:
                m = self._reject(m, span)
            value += m >> 32
        if 0 <= value < _N_INT64:
            return _INT64[value]
        return np.int64(value)

    def _reject(self, m: int, span: int) -> int:
        """The rare tail of Lemire's method: redraw while the low word is
        below ``2**32 % span``."""
        threshold = (1 << 32) % span
        while m & _MASK32 < threshold:
            m = self._next32() * span
        return m

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        for _ in self._floats:
            break
        else:
            self._refill()
        raw = self._raws.item(-1 - self._floats.__length_hint__())
        self._half = raw >> 32
        return raw & _MASK32

    def normal(self, loc=0.0, scale=1.0, size=None):
        # numpy's normal (the ziggurat and its tail) reads whole 64-bit
        # outputs only and leaves the half-word buffer alone, so the
        # stream's ``_half`` stays valid across the call.  advance() clears
        # the bit generator's own buffer, which nothing here reads.
        self._bit_generator.advance(-self._floats.__length_hint__())
        self._floats = _EXHAUSTED
        return self._generator.normal(loc, scale, size)

    def _delegate(self, method, /, *args, **kwargs):
        bit_generator = self._bit_generator
        # Rewind over the unused rest of the block; advance() also clears
        # the bit generator's half-word buffer.
        bit_generator.advance(-self._floats.__length_hint__())
        self._floats = _EXHAUSTED
        if self._half is not None:
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, self._half
            bit_generator.state = state
        try:
            return method(*args, **kwargs)
        finally:
            state = bit_generator.state
            self._half = state["uinteger"] if state["has_uint32"] else None


def _delegating(name: str):
    def method(self, /, *args, **kwargs):
        return self._delegate(getattr(self._generator, name), *args, **kwargs)

    method.__name__ = method.__qualname__ = name
    return method


for _name, _attribute in vars(np.random.Generator).items():
    if (
        not _name.startswith("_")
        and callable(_attribute)
        and not hasattr(RandomStream, _name)
    ):
        setattr(RandomStream, _name, _delegating(_name))
del _name, _attribute
