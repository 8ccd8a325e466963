"""A seeded random stream that draws raw PCG64 outputs in blocks.

The corpus generator makes about 150k scalar draws for a 2000-pair dataset
(``random()`` per corruption decision, ``integers(n)`` per vocabulary
choice), and numpy's per-call overhead is most of their cost.
:class:`RandomStream` draws the underlying 64-bit PCG64 outputs in blocks
and computes the common scalar draws in Python with numpy's own algorithms,
so for the same call sequence every value it returns equals the one
``np.random.default_rng(seed)`` returns, with the same Python type:

* ``random()`` is ``(u >> 11) * 2**-53`` of the next 64-bit output;
* ``integers(low, high=None)`` is numpy's 32-bit Lemire rejection on
  ``next_uint32``, which serves the high half of a 64-bit output on the
  call after the one that used its low half (PCG64's ``has_uint32`` /
  ``uinteger`` buffer); a span of one value consumes nothing;
* ``uniform(low, high)`` is ``low + (high - low) * random()``.

Every other call (``normal``, ``choice``, ``permutation``, ``integers``
with a ``size`` or a span wider than 32 bits, ...) runs on the real
:class:`numpy.random.Generator`: the bit generator is rewound to the
stream's position and given its half-word buffer, the call runs, and the
stream reads the buffer back and starts a new block.
"""

from __future__ import annotations

import math

import numpy as np

#: Raw outputs per block.  A delegated call discards the rest of its
#: block, so blocks stay small.
BLOCK = 256

_TWO_M53 = 2.0**-53
_MASK32 = 0xFFFFFFFF
# numpy returns a scalar ``integers()`` draw as ``np.int64``; building one
# costs about as much as the draw itself, so small values come prebuilt.
_INT64 = list(np.arange(10_000, dtype=np.int64))
_N_INT64 = len(_INT64)
_DTYPE = np.int64


class RandomStream:
    """Scalar draws bit-identical to ``np.random.default_rng(seed)``."""

    __slots__ = ("_generator", "_bit_generator", "_raw", "_has_half", "_half")

    def __init__(self, seed: int) -> None:
        self._generator = np.random.default_rng(seed)
        self._bit_generator = self._generator.bit_generator
        self._has_half = False
        self._half = 0
        self._raw = iter(())

    def _refill(self) -> int:
        """Draw a new block and return its first output."""
        self._raw = iter(self._bit_generator.random_raw(BLOCK).tolist())
        return next(self._raw)

    # The hot paths take the next raw output with ``for raw in self._raw:
    # break`` (``else`` refills): a list iterator's loop step is cheaper
    # than a ``next()`` call.

    def random(self, size=None):
        if size is not None:
            return self._delegate(self._generator.random, size)
        for raw in self._raw:
            break
        else:
            raw = self._refill()
        return (raw >> 11) * _TWO_M53

    def uniform(self, low=0.0, high=1.0, size=None):
        span = high - low
        if (
            size is not None
            or type(low) is not float
            or type(high) is not float
            or not 0.0 <= span < math.inf  # numpy checks these itself
        ):
            return self._delegate(self._generator.uniform, low, high, size)
        return low + span * self.random()

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        start, span = (0, low) if high is None else (low, high - low)
        if (
            type(span) is not int
            or not 0 < span <= _MASK32
            or size is not None
            or dtype is not _DTYPE
            or endpoint
        ):
            return self._delegate(
                self._generator.integers, low, high, size, dtype, endpoint
            )
        value = start
        if span > 1:  # numpy's closed range [0, span - 1] is not one value
            if self._has_half:
                self._has_half = False
                m = self._half * span
            else:
                for raw in self._raw:
                    break
                else:
                    raw = self._refill()
                self._has_half = True
                self._half = raw >> 32
                m = (raw & _MASK32) * span
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
        if self._has_half:
            self._has_half = False
            return self._half
        for raw in self._raw:
            break
        else:
            raw = self._refill()
        self._has_half = True
        self._half = raw >> 32
        return raw & _MASK32

    def _delegate(self, method, /, *args, **kwargs):
        bit_generator = self._bit_generator
        # Rewind over the unused rest of the block; advance() also clears
        # the bit generator's half-word buffer.
        bit_generator.advance(-self._raw.__length_hint__())
        if self._has_half:
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, self._half
            bit_generator.state = state
        try:
            return method(*args, **kwargs)
        finally:
            state = bit_generator.state
            self._has_half = bool(state["has_uint32"])
            self._half = state["uinteger"]
            self._raw = iter(())

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        method = getattr(self._generator, name)
        if not callable(method):
            raise AttributeError(name)
        return lambda *args, **kwargs: self._delegate(method, *args, **kwargs)
