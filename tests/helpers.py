"""Independent references used as test oracles.

The dense references are deliberately written with plain Python loops and
math.exp (no shared code with the package) so they stay independent of the
implementations they check. The work-counter reference enumerates every
tile of every (device, round) instead of using the closed-form census, and
takes each tile's class and pair count from the sum of its dense mask
instead of from the tile bounds or the closed-form pair count.
"""

import math

import numpy as np

from ringsim.attention import get_mask_ring, get_mask_striped
from ringsim.simulator import Algo, RoundStats, WorkStats


def dense_masked_reference(q, k, v, allowed):
    """Softmax(scores + mask) @ V with an explicit -inf mask, plain loops."""
    n, d = q.shape
    d_v = v.shape[1]
    out = np.zeros((n, d_v))
    for i in range(n):
        scores = []
        for j in range(n):
            if allowed[i][j]:
                scores.append(sum(float(q[i, t]) * float(k[j, t]) for t in range(d)))
            else:
                scores.append(float("-inf"))
        m = max(scores)
        weights = [math.exp(s - m) for s in scores]
        z = sum(weights)
        for col in range(d_v):
            out[i, col] = sum(weights[j] * float(v[j, col]) for j in range(n)) / z
    return out


def dense_causal_reference(q, k, v, scale=False):
    """Causal special case: key j allowed for query i iff j <= i."""
    if scale:
        q = np.asarray(q) * (1.0 / math.sqrt(q.shape[1]))
    n = q.shape[0]
    allowed = [[j <= i for j in range(n)] for i in range(n)]
    return dense_masked_reference(q, k, v, allowed)


def enumerated_work_stats(algo, n_devices, block_size, tile_q, tile_k):
    """Per-round work counters by visiting every tile: the oracle for
    ``schedule_work_stats``. Partial tiles are charged their whole area."""
    mask_fn = get_mask_ring if Algo(algo) is Algo.RING else get_mask_striped
    out = []
    for j in range(n_devices):
        rounds = []
        for i in range(n_devices):
            k = (j - i) % n_devices
            mask = mask_fn(j, k, block_size, n_devices=n_devices)
            dense = mask.allowed_block()
            counts = {"skip": 0, "partial": 0, "full": 0}
            required = 0
            for ti in range(block_size // tile_q):
                for tj in range(block_size // tile_k):
                    tile = dense[ti * tile_q:(ti + 1) * tile_q, tj * tile_k:(tj + 1) * tile_k]
                    pairs = int(tile.sum())
                    cls = "skip" if not pairs else "full" if pairs == tile.size else "partial"
                    counts[cls] += 1
                    required += pairs
            computed = counts["full"] + counts["partial"]
            rounds.append(
                RoundStats(
                    round=i,
                    block_index=k,
                    tiles_total=sum(counts.values()),
                    tiles_skipped=counts["skip"],
                    tiles_partial=counts["partial"],
                    tiles_full=counts["full"],
                    interactions_computed=computed * tile_q * tile_k,
                    interactions_required=required,
                )
            )
        out.append(WorkStats(device=j, rounds=tuple(rounds)))
    return out
