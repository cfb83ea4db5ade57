"""Token-to-device partitioning and its exact inverse.

Two ownership schemes over a length-n sequence split across N devices:
contiguous blocks (device d owns positions [d*c, (d+1)*c)) and stripes
(device d owns positions congruent to d modulo N). A striped partition is
the same thing as permuting the sequence once and then slicing it
contiguously, which is how the schedule simulator stays layout-agnostic:
only mask construction differs between the schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class Algo(enum.Enum):
    """Token layout, and with it the schedule's block masks.

    ``RING`` is the contiguous layout.
    """

    RING = "ring"
    STRIPED = "striped"


def check_split(n_seq: int, n_devices: int) -> int:
    """Block size of an even split of n_seq tokens over n_devices >= 2 devices."""
    if n_devices < 2:
        raise ValueError(f"need at least 2 devices, got {n_devices}")
    if n_seq < n_devices or n_seq % n_devices != 0:
        raise ValueError(f"{n_devices} devices must evenly divide sequence length {n_seq}")
    return n_seq // n_devices


@dataclass(frozen=True)
class Shard:
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class PermutedBatch:
    """Per-device Q/K/V triples plus companion arrays riding the same permutation."""

    layout: "Layout"
    shards: list[Shard]
    companions: list[tuple]

    def gather_companion(self, index: int) -> np.ndarray:
        return self.layout.gather([per_device[index] for per_device in self.companions])


@dataclass(frozen=True)
class Layout:
    scheme: Algo
    n_seq: int
    n_devices: int

    def __post_init__(self):
        check_split(self.n_seq, self.n_devices)

    @property
    def block_size(self) -> int:
        return self.n_seq // self.n_devices

    def global_of(self, device: int, local: int) -> int:
        """Original sequence position of local row `local` on `device`."""
        if not 0 <= local < self.block_size:
            raise ValueError(f"local index {local} out of range (block size {self.block_size})")
        return int(self.device_globals(device)[local])

    def device_globals(self, device: int) -> np.ndarray:
        """All original positions owned by `device`, in local-row order."""
        if not 0 <= device < self.n_devices:
            raise ValueError(f"device {device} out of range (N={self.n_devices})")
        locals_ = np.arange(self.block_size)
        if self.scheme is Algo.RING:
            return device * self.block_size + locals_
        return device + locals_ * self.n_devices

    def partition(self, q, k, v, companions: Sequence = ()) -> PermutedBatch:
        """Split Q/K/V rows (and any companion arrays) across devices.

        Row ``global_of(d, x)`` of every input lands at local row x of
        device d; companion arrays (position ids, target ids, ...) are
        opaque payloads permuted identically.
        """
        q, k, v = (np.asarray(x) for x in (q, k, v))
        for name, x in (("Q", q), ("K", k), ("V", v)):
            if x.ndim != 2 or x.shape[0] != self.n_seq:
                raise ValueError(f"{name} must have {self.n_seq} rows, got shape {tuple(x.shape)}")
        comps = [np.asarray(a) for a in companions]
        for i, a in enumerate(comps):
            if a.shape[0] != self.n_seq:
                raise ValueError(f"companion {i} must have length {self.n_seq}, got {a.shape[0]}")
        shards, comp_shards = [], []
        for d in range(self.n_devices):
            idx = self.device_globals(d)
            shards.append(Shard(q[idx], k[idx], v[idx]))
            comp_shards.append(tuple(a[idx] for a in comps))
        return PermutedBatch(layout=self, shards=shards, companions=comp_shards)

    def gather(self, shards: Sequence) -> np.ndarray:
        """Exact inverse of partition for one per-device list of tensors."""
        if len(shards) != self.n_devices:
            raise ValueError(f"expected {self.n_devices} shards, got {len(shards)}")
        first = np.asarray(shards[0])
        want_shape = (self.block_size,) + first.shape[1:]
        out = np.empty((self.n_seq,) + first.shape[1:], dtype=first.dtype)
        for d, shard in enumerate(shards):
            shard = np.asarray(shard)
            if shard.shape != want_shape:
                raise ValueError(
                    f"shard {d} has shape {tuple(shard.shape)}, expected {want_shape}"
                )
            out[self.device_globals(d)] = shard
        return out
