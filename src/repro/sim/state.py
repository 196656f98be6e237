"""Columnar architectural state and the name orders that index it.

A :class:`SimState` is the scan-chain readout of Section III-B in a
fixed order: every register's value in one ``uint64`` vector (in the
circuit's register order) and every memory as one flat array of the
narrowest unsigned dtype that holds its width.  Which register sits in
which slot is not stored per state: a :class:`NameOrder` interns the
ordered path tuple once per process, and states (and the I/O matrices
of replayable snapshots) carry only its 64-bit fingerprint.  Anything
holding the names - the RTL simulator, the formal name map, the replay
engine - interns them with :func:`name_order`, after which
:func:`resolve_order` maps a fingerprint back to names.

States pickle as this columnar tuple only; the ``(regs dict, mems
dict, cycle)`` layout of pre-v3 snapshots is not read, so a run
journal holding one reruns fresh.
"""

from __future__ import annotations

import hashlib

import numpy as np


class SimStateError(Exception):
    pass


def mem_dtype(width):
    """The narrowest unsigned numpy dtype holding a ``width``-bit word."""
    for bits, dtype in ((8, np.uint8), (16, np.uint16), (32, np.uint32)):
        if width <= bits:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


class NameOrder:
    """An ordered tuple of names and its 64-bit fingerprint."""

    __slots__ = ("names", "fingerprint", "index")

    def __init__(self, names, fingerprint):
        self.names = names
        self.fingerprint = fingerprint
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)


_ORDERS = {}


def order_fingerprint(names):
    digest = hashlib.blake2b("\x1f".join(names).encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


def name_order(names):
    """The interned :class:`NameOrder` of ``names`` (registers it)."""
    names = tuple(names)
    fingerprint = order_fingerprint(names)
    order = _ORDERS.get(fingerprint)
    if order is None:
        order = _ORDERS.setdefault(fingerprint,
                                   NameOrder(names, fingerprint))
    if order.names != names:
        raise SimStateError(
            f"name order fingerprint collision at {fingerprint:#018x}")
    return order


def resolve_order(fingerprint):
    """The :class:`NameOrder` a fingerprint stands for in this process."""
    order = _ORDERS.get(fingerprint)
    if order is None:
        raise SimStateError(
            f"unknown name order {fingerprint:#018x}: nothing in this "
            f"process (simulator, name map or replay engine) declared it")
    return order


class SimState:
    """A full architectural state snapshot (registers + memories).

    ``reg_values`` is a ``uint64`` vector in the register order named by
    the ``reg_order`` fingerprint; ``mems`` maps memory path to a flat
    word array.  Both are plain numpy buffers, so capture, checksumming,
    pickling and loading never touch individual words in Python.
    """

    __slots__ = ("reg_values", "reg_order", "mems", "cycle")

    def __init__(self, reg_values, reg_order, mems, cycle=0):
        self.reg_values = reg_values
        self.reg_order = reg_order
        self.mems = mems
        self.cycle = cycle

    @property
    def reg_paths(self):
        return resolve_order(self.reg_order).names

    def reg(self, path):
        """One register's value, by path."""
        index = resolve_order(self.reg_order).index.get(path)
        if index is None:
            raise SimStateError(f"snapshot has no register {path}")
        return int(self.reg_values[index])

    def reg_dict(self):
        """``{path: int}`` copy of the registers (editing it changes
        nothing here)."""
        return dict(zip(self.reg_paths, self.reg_values.tolist()))

    def copy(self):
        return SimState(self.reg_values.copy(), self.reg_order,
                        {k: v.copy() for k, v in self.mems.items()},
                        self.cycle)

    # __slots__ classes need explicit state hooks to pickle under every
    # protocol; snapshots embed a SimState and cross process boundaries.
    # Buffers travel as raw bytes.
    def __getstate__(self):
        return ("c", self.reg_order, self.reg_values.tobytes(),
                tuple((path, words.dtype.str, words.tobytes())
                      for path, words in self.mems.items()),
                self.cycle)

    def __setstate__(self, state):
        if len(state) != 5:
            from ..scan.snapshot import SnapshotError
            raise SnapshotError("pre-v3 snapshot state layout; those "
                                "formats are no longer read")
        _tag, self.reg_order, regs, mems, self.cycle = state
        self.reg_values = np.frombuffer(regs, dtype=np.uint64).copy()
        self.mems = {path: np.frombuffer(raw, dtype=dtype).copy()
                     for path, dtype, raw in mems}

    def state_bits(self, circuit):
        reg_bits = sum(r.width for r in circuit.regs)
        mem_bits = sum(m.depth * m.width for m in circuit.mems)
        return reg_bits + mem_bits
