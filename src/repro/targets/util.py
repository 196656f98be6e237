"""Structural helpers for register-vector state machines (BOOM plumbing).

The DSL has no first-class Vec; these helpers build the mux trees,
decoders, and priority encoders an out-of-order core needs over plain
Python lists of registers.
"""

from __future__ import annotations

from ..hdl import mux, const
from ..hdl.ir import lift


def vec_read(values, index):
    """Dynamic read of a Python list of equal-width nodes."""
    index = lift(index)
    result = values[0]
    for i, value in enumerate(values[1:], start=1):
        result = mux(index.eq(i), value, result)
    return result


def vec_write(module, regs, index, value, en=1):
    """Dynamic write: ``regs[index] <<= value`` when ``en``."""
    index = lift(index)
    en = lift(en)
    for i, reg in enumerate(regs):
        with module.when(en & index.eq(i)):
            reg <<= value


def priority_index(valids, width):
    """Index of the first set bit (undefined when none); plus any-bit."""
    any_set = valids[0]
    index = const(0, width)
    found = valids[0]
    for i, v in enumerate(valids[1:], start=1):
        index = mux(~found & v, const(i, width), index)
        found = found | v
        any_set = any_set | v
    return index, any_set


def priority_two(valids, width):
    """First and second set-bit indices: ((idx0, any0), (idx1, any1))."""
    idx0, any0 = priority_index(valids, width)
    masked = [v & ~(any0 & idx0.eq(i)) for i, v in enumerate(valids)]
    idx1, any1 = priority_index(masked, width)
    return (idx0, any0), (idx1, any1)


def mod_inc(index, amount, modulus):
    """``(index + amount) % modulus`` for circular queue pointers.

    ``amount`` may be a small node or int; correct for non-power-of-two
    moduli (plain bit truncation is not).
    """
    width = max((modulus - 1).bit_length(), 1)
    raw = (lift(index).pad(width + 2) + amount).trunc(width + 2)
    wrapped = (raw - modulus).trunc(width + 2)
    return mux(raw.uge(modulus), wrapped, raw).trunc(width)


def mod_sub(a, b, modulus):
    """``(a - b) % modulus`` — circular distance (ages)."""
    width = max((modulus - 1).bit_length(), 1)
    a, b = lift(a), lift(b)
    diff = (a.pad(width + 2) - b.pad(width + 2)).trunc(width + 2)
    fixed = (diff + modulus).trunc(width + 2)
    return mux(a.uge(b), diff.trunc(width), fixed.trunc(width))
