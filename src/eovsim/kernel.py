"""Deterministic event-driven simulation core.

Virtual clock, (fire_at, seq)-ordered event queue, named seeded random
streams, and latency-distribution sampling. Everything else in the package
runs inside this loop; one kernel per run, no shared mutable state.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Callable

import numpy as np

__all__ = [
    "SimulationError",
    "SchedulingError",
    "SimulationIntegrityError",
    "EventKind",
    "SimKernel",
    "DistributionSpec",
    "FAMILY_PARAMS",
    "RngStream",
]

_SAMPLE_CHUNK = 4096


class SimulationError(Exception):
    """Base class for simulator failures."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past (a bug in the caller)."""


class SimulationIntegrityError(SimulationError):
    """A run violated one of its own invariants (e.g. out-of-order phase 2)."""


class EventKind(Enum):
    ARRIVAL = "arrival"
    ENDORSE_DONE = "endorsement-done"
    BLOCK_CUT = "block-cut"
    PHASE1_DONE = "phase1-done"
    PHASE2_DONE = "phase2-done"
    GENERIC = "generic"


class SimKernel:
    """Single-threaded event loop with a monotone virtual clock (seconds).

    The heap holds [fire_at, seq, callback] entries; schedule() returns the
    entry as the handle that cancel() takes.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self.dispatched = 0

    def schedule(self, fire_at: float, kind: EventKind, callback: Callable[[], None]) -> list:
        """Queue callback to run at fire_at.

        The loop does not read kind; it names the event for outside tools,
        such as the benchmark tracer's per-kind event spans.
        """
        if fire_at < self.now:
            raise SchedulingError(f"event scheduled at {fire_at} before now={self.now}")
        entry = [fire_at, self._seq, callback]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Drop entry's callback: the loop skips it and pending() does not
        count it. Cancelling an event that already fired does nothing."""
        entry[2] = None

    def pending(self) -> int:
        return sum(1 for entry in self._heap if entry[2] is not None)

    def run_until(self, t_end: float = math.inf) -> float:
        """Dispatch every event with fire_at <= t_end, in (fire_at, seq) order.

        If the queue drains, the clock rests at the last dispatched event
        (or at t_end when nothing was pending and t_end is finite).
        """
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end}) before now={self.now}")
        heap = self._heap
        dispatched_any = False
        while heap and heap[0][0] <= t_end:
            fire_at, _, callback = heappop(heap)
            if callback is None:
                continue
            self.now = fire_at
            dispatched_any = True
            self.dispatched += 1
            callback()
        while heap and heap[0][2] is None:  # a cancelled event past t_end
            heappop(heap)
        if heap or not dispatched_any:
            if math.isfinite(t_end):
                self.now = max(self.now, t_end)
        return self.now


def _label_spawn_key(label: str) -> tuple[int, int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def _random(gen, n: int) -> np.ndarray:
    return gen.random(n)


class RngStream:
    """Named substream of the master seed.

    Identical (master_seed, stream_label) always yields the identical sample
    sequence, and streams never perturb each other: each is an independent
    PCG64 generator keyed by a hash of its label.

    Each distribution key (family and parameters) has one buffer of its next
    draws, which the scalar methods pop one at a time and the plural ones
    read n at a time, so a key read both ways keeps one order.
    """

    __slots__ = ("label", "_master_seed", "_gen", "_buffers")

    def __init__(self, master_seed: int, label: str):
        self.label = label
        self._master_seed = master_seed
        self._gen = None  # built at the first draw: most of a run's set-up cost
        self._buffers: dict = {}

    # Chunked draws: ~50x cheaper than per-call Generator dispatch in the
    # hot event loop. Order of delivered values is unaffected.
    def _refill(self, key, draw) -> array:
        if self._gen is None:
            seq = np.random.SeedSequence(self._master_seed,
                                         spawn_key=_label_spawn_key(self.label))
            self._gen = np.random.Generator(np.random.PCG64(seq))
        # reversed, so pop() from the end preserves draw order
        buf = self._buffers[key] = array("d", draw(self._gen, _SAMPLE_CHUNK)[::-1].tobytes())
        return buf

    def _take(self, key, draw, n: int) -> np.ndarray:
        """The next n values of key's sequence, in draw order."""
        out = np.empty(n)
        done = 0
        while done < n:
            buf = self._buffers.get(key)
            if not buf:
                buf = self._refill(key, draw)
            k = min(n - done, len(buf))
            # the view is gone after this statement, so del may shrink buf
            out[done:done + k] = np.frombuffer(buf, np.float64)[:-k - 1:-1]
            del buf[-k:]
            done += k
        return out

    def exponential(self, mean: float) -> float:
        buf = self._buffers.get(("exp", mean))
        if not buf:
            buf = self._refill(("exp", mean), lambda g, n: g.exponential(mean, n))
        return buf.pop()

    def exponentials(self, mean: float, n: int) -> np.ndarray:
        return self._take(("exp", mean), lambda g, k: g.exponential(mean, k), n)

    def normal(self, mean: float, std: float) -> float:
        buf = self._buffers.get(("norm", mean, std))
        if not buf:
            buf = self._refill(("norm", mean, std), lambda g, n: g.normal(mean, std, n))
        return buf.pop()

    def normals(self, mean: float, std: float, n: int) -> np.ndarray:
        return self._take(("norm", mean, std), lambda g, k: g.normal(mean, std, k), n)

    def uniform(self) -> float:
        buf = self._buffers.get("u")
        if not buf:
            buf = self._refill("u", _random)
        return buf.pop()

    def uniforms(self, n: int) -> np.ndarray:
        return self._take("u", _random, n)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return min(int(self.uniform() * n), n - 1)


# The parameters each distribution family reads; scale and per_tx apply to all.
FAMILY_PARAMS = {
    "constant": ("value",),
    "exponential": ("mean",),
    "normal": ("mean", "std"),
    "empirical": ("samples",),
}


@dataclass(frozen=True)
class DistributionSpec:
    """One latency distribution, in seconds.

    family, with the parameters FAMILY_PARAMS lists for it:
      constant    value
      exponential mean (> 0)
      normal      mean, std — truncated at zero by resampling, so the
                  calibrated mean is not distorted by clamping
      empirical   samples (non-empty list), drawn uniformly
    scale: multiplicative factor applied to every sample.
    per_tx: optional affine term in seconds per transaction of the enclosing
      block (commit stages only); the stage sample is still per block.
    """

    family: str
    value: float = 0.0
    mean: float = 0.0
    std: float = 0.0
    samples: tuple[float, ...] = field(default=())
    scale: float = 1.0
    per_tx: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown distribution family {self.family!r}")
        if not all(map(math.isfinite, (self.value, self.mean, self.std, self.scale,
                                       self.per_tx, *self.samples))):
            raise ValueError("distribution parameters must be finite")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.per_tx < 0:
            raise ValueError("per_tx must be non-negative")
        if self.family == "constant" and self.value < 0:
            raise ValueError("constant value must be non-negative")
        if self.family == "exponential" and self.mean <= 0:
            raise ValueError("exponential mean must be positive")
        if self.family == "normal":
            if self.mean < 0 or self.std < 0:
                raise ValueError("normal mean/std must be non-negative")
        if self.family == "empirical":
            if not self.samples:
                raise ValueError("empirical sample list must be non-empty")
            if any(s < 0 for s in self.samples):
                raise ValueError("empirical samples must be non-negative")

    @classmethod
    def constant(cls, value: float, scale: float = 1.0, per_tx: float = 0.0) -> "DistributionSpec":
        return cls("constant", value=value, scale=scale, per_tx=per_tx)

    @classmethod
    def exponential(cls, mean: float, scale: float = 1.0, per_tx: float = 0.0) -> "DistributionSpec":
        return cls("exponential", mean=mean, scale=scale, per_tx=per_tx)

    @classmethod
    def normal(cls, mean: float, std: float, scale: float = 1.0, per_tx: float = 0.0) -> "DistributionSpec":
        return cls("normal", mean=mean, std=std, scale=scale, per_tx=per_tx)

    @classmethod
    def empirical(cls, samples, scale: float = 1.0, per_tx: float = 0.0) -> "DistributionSpec":
        return cls("empirical", samples=tuple(float(s) for s in samples), scale=scale, per_tx=per_tx)

    def sample(self, stream: RngStream, block_size: int = 0) -> float:
        if self.family == "constant":
            v = self.value
        elif self.family == "exponential":
            v = stream.exponential(self.mean)
        elif self.family == "normal":
            v = stream.normal(self.mean, self.std)
            while v < 0.0:
                v = stream.normal(self.mean, self.std)
        else:
            v = self.samples[stream.randint(len(self.samples))]
        if self.per_tx:
            v += self.per_tx * block_size
        return v * self.scale

    def sample_n(self, stream: RngStream, n: int) -> np.ndarray:
        """The next n samples as one array: the values, in order, and the
        draws of n sample(stream) calls. A truncated normal keeps the
        stream's values that are not below zero, reading no further than the
        n-th."""
        if self.family == "constant":
            v = np.full(n, self.value)
        elif self.family == "exponential":
            v = stream.exponentials(self.mean, n)
        elif self.family == "normal":
            v = np.empty(n)
            done = 0
            while done < n:
                chunk = stream.normals(self.mean, self.std, n - done)
                chunk = chunk[~(chunk < 0.0)]
                v[done:done + len(chunk)] = chunk
                done += len(chunk)
        else:
            k = len(self.samples)
            index = np.minimum((stream.uniforms(n) * k).astype(np.intp), k - 1)
            v = np.array(self.samples)[index]
        if self.per_tx:
            v = v + 0.0  # sample() adds per_tx * block_size, and block_size is 0
        return v * self.scale
