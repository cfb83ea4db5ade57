"""Token-to-device partitioning and its exact inverse.

Two ownership schemes over a length-n sequence split across N devices:
contiguous blocks (device d owns positions [d*c, (d+1)*c)) and stripes
(device d owns positions congruent to d modulo N). Either one is a single
permutation of the sequence, the (N, c) table of original positions
(``Layout.positions``): partition gathers each tensor through it once into
an (N, c, ...) array stacked by device, and gather scatters the stacked
outputs back through it once. This is how the schedule simulator stays
layout-agnostic: only mask construction differs between the schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .attention import check_array, check_integer


class Algo(enum.Enum):
    """Token layout, and with it the schedule's block masks.

    ``RING`` is the contiguous layout.
    """

    RING = "ring"
    STRIPED = "striped"


def check_split(n_seq: int, n_devices: int) -> int:
    """Block size of an even split of n_seq >= n_devices tokens over n_devices >= 2 devices."""
    n_devices = check_integer("n_devices", n_devices, 2)
    n_seq = check_integer("n_seq", n_seq, n_devices)
    if n_seq % n_devices:
        raise ValueError(f"{n_devices} devices must evenly divide sequence length {n_seq}")
    return n_seq // n_devices


@dataclass(frozen=True)
class PermutedBatch:
    """Q/K/V stacked by device, (N, c, d): ``q[j, x]`` is local row x of device j."""

    layout: "Layout"
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Layout:
    scheme: Algo
    n_seq: int
    n_devices: int

    def __post_init__(self):
        object.__setattr__(self, "scheme", Algo(self.scheme))
        for name in ("n_devices", "n_seq"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        check_split(self.n_seq, self.n_devices)

    @property
    def block_size(self) -> int:
        return self.n_seq // self.n_devices

    def global_of(self, device: int, local: int) -> int:
        """Original sequence position of local row `local` on `device`."""
        device = check_integer("device", device, 0, self.n_devices)
        local = check_integer("local", local, 0, self.block_size)
        return int(self.positions()[device, local])

    def positions(self) -> np.ndarray:
        """(N, c) table of original positions: row d is device d's, in local-row order."""
        order = np.arange(self.n_seq)
        if self.scheme is Algo.RING:
            return order.reshape(self.n_devices, self.block_size)
        return order.reshape(self.block_size, self.n_devices).T

    def partition(self, q, k, v) -> PermutedBatch:
        """Split Q/K/V rows across devices.

        Row ``global_of(d, x)`` of every input lands at local row x of
        device d. Each input is gathered once into an (N, c, ...) array.
        """
        q, k, v = (check_array(name, x, (self.n_seq, None)) for name, x in zip("QKV", (q, k, v)))
        order = self.positions()
        return PermutedBatch(self, q[order], k[order], v[order])

    def gather(self, per_device) -> np.ndarray:
        """Exact inverse of partition for per-device outputs, stacked (N, c, d) or a list."""
        stacked = check_array("per_device", per_device, (self.n_devices, self.block_size, None))
        out = np.empty((self.n_seq,) + stacked.shape[2:], dtype=stacked.dtype)
        out[self.positions()] = stacked
        return out
