"""DRAM timing model + host memory endpoint (Sections IV-B1, V-C).

In Strober the target's main memory lives on the host platform; a timing
model enforces the configured DRAM latency in *target* cycles (this is
what Figure 7 validates by sweeping the simulated latency).  This module
implements that endpoint for the FAME1 simulator: a simple
one-outstanding-request burst protocol with a configurable latency.

Protocol (all signals are top-level ports of the target SoC):

  target -> host:  mem_req_valid, mem_req_rw (1=write), mem_req_addr
                   (word address), mem_req_len (burst words),
                   mem_wdata_valid, mem_wdata
  host -> target:  mem_req_ready, mem_resp_valid, mem_resp_data

A read returns ``len`` consecutive beats starting ``latency`` target
cycles after the request is accepted.  A write consumes ``len`` data
beats and acks with a single ``mem_resp_valid`` after ``latency``.
"""

from __future__ import annotations

from ..fame.simulator import Endpoint
from .counters import DramActivityCounters


class MemoryEndpoint(Endpoint):
    """Latency-pipe memory model with a host-side backing store."""

    def __init__(self, latency=100, counters=None, line_words=8):
        self.latency = latency
        self.counters = counters
        self.line_words = line_words
        self.store = {}          # word address -> 32-bit value
        self.reset()

    def reset(self):
        self._busy = False
        self._rw = 0
        self._addr = 0
        self._len = 0
        self._wait = 0
        self._beats_left = 0
        self._write_beats = 0
        self.requests = 0
        self.read_requests = 0
        self.write_requests = 0

    # -- host-side memory access (program loading, result checking) -------

    def load_words(self, base_word_addr, words):
        for i, word in enumerate(words):
            self.store[base_word_addr + i] = word & 0xFFFFFFFF

    def read_word(self, word_addr):
        return self.store.get(word_addr, 0)

    def tick(self, outputs):
        inputs = {"mem_req_ready": 0, "mem_resp_valid": 0,
                  "mem_resp_data": 0}
        if not self._busy:
            inputs["mem_req_ready"] = 1
            if outputs.get("mem_req_valid"):
                self._busy = True
                self._rw = outputs["mem_req_rw"]
                self._addr = outputs["mem_req_addr"]
                self._len = max(outputs.get("mem_req_len", self.line_words),
                                1)
                self._wait = self.latency
                self._beats_left = self._len
                self._write_beats = self._len if self._rw else 0
                self.requests += 1
                if self._rw:
                    self.write_requests += 1
                else:
                    self.read_requests += 1
                if self.counters is not None:
                    self.counters.record(self._addr, bool(self._rw),
                                         self._len)
                inputs["mem_req_ready"] = 0
            return inputs

    # busy: absorb write beats, count down latency, stream response
        if self._rw and self._write_beats > 0:
            if outputs.get("mem_wdata_valid"):
                beat = self._len - self._write_beats
                self.store[self._addr + beat] = outputs["mem_wdata"]
                self._write_beats -= 1
            return inputs
        if self._wait > 0:
            self._wait -= 1
            return inputs
        if self._rw:
            inputs["mem_resp_valid"] = 1
            self._busy = False
            return inputs
        beat = self._len - self._beats_left
        inputs["mem_resp_valid"] = 1
        inputs["mem_resp_data"] = self.store.get(self._addr + beat, 0)
        self._beats_left -= 1
        if self._beats_left == 0:
            self._busy = False
        return inputs

    def quiet(self, outputs):
        """Idle (until a request), absorbing write beats (until a beat)
        and latency waits are quiet; accepting a request, a response
        beat and a write ack need a tick."""
        stall = {"mem_req_ready": 0, "mem_resp_valid": 0,
                 "mem_resp_data": 0}
        if not self._busy:
            if outputs.get("mem_req_valid"):
                return None
            return dict(stall, mem_req_ready=1), ("mem_req_valid",), None
        if self._rw and self._write_beats > 0:
            if outputs.get("mem_wdata_valid"):
                return None
            return stall, ("mem_wdata_valid",), None
        if self._wait > 0:
            return stall, (), self._wait
        return None

    def skip(self, n):
        if self._busy and not (self._rw and self._write_beats > 0):
            self._wait -= n


def make_memory_endpoint(latency=100, with_counters=True, line_words=8,
                         **counter_kwargs):
    """Convenience constructor pairing the endpoint with DRAM counters."""
    counters = (DramActivityCounters(**counter_kwargs)
                if with_counters else None)
    return MemoryEndpoint(latency=latency, counters=counters,
                          line_words=line_words)
