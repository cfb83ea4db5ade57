"""Independent references used as test oracles.

The dense references are deliberately written with plain Python loops and
math.exp (no shared code with the package) so they stay independent of the
implementations they check. The work-counter reference enumerates every
tile of every (device, round) instead of using the closed-form census, and
sums the dense mask instead of using the closed-form pair count.
"""

import math

import numpy as np

from ringsim.attention import TileClass, classify_tiles, get_mask_ring, get_mask_striped
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
            counts = dict.fromkeys(TileClass, 0)
            required = 0
            for ti, grid_row in enumerate(classify_tiles(mask, tile_q, tile_k)):
                for tj, cls in enumerate(grid_row):
                    counts[cls] += 1
                    if cls is not TileClass.SKIP:
                        tile = dense[ti * tile_q:(ti + 1) * tile_q, tj * tile_k:(tj + 1) * tile_k]
                        required += int(tile.sum())
            computed = counts[TileClass.FULL] + counts[TileClass.PARTIAL]
            rounds.append(
                RoundStats(
                    round=i,
                    block_index=k,
                    tiles_total=sum(counts.values()),
                    tiles_skipped=counts[TileClass.SKIP],
                    tiles_partial=counts[TileClass.PARTIAL],
                    tiles_full=counts[TileClass.FULL],
                    interactions_computed=computed * tile_q * tile_k,
                    interactions_required=required,
                )
            )
        out.append(WorkStats(device=j, rounds=tuple(rounds)))
    return out
