"""R008 + R006 fixture: a batched kernel done wrong, both ways.

The batched PHY path's two contracts are dtype-pinned scratch (R008 —
a dtype-less stacked allocation silently promotes every candidate row
to float64) and stage purity (R006 — a batched closure that samples the
wall clock or mutates the tracked table breaks executor determinism).
This fixture seeds one violation of each in the shapes the real batch
kernels use: a ``(rows, width)`` stacked gather buffer and a batched
decode job returned by a ``Stage(..., pack=...)`` callable.
"""

import time

import numpy as np


class Stage:
    def __init__(self, name, fn=None, pack=None, merge=None):
        self.name = name
        self.fn = fn
        self.pack = pack
        self.merge = merge


def gather_candidates_stacked(grid, starts, width):
    stacked = np.empty((len(starts), width))
    energies = np.zeros(len(starts))
    for row, start in enumerate(starts):
        stacked[row] = grid[start:start + width]
        energies[row] = abs(stacked[row]).mean()
    return stacked, energies


def _batch_deadline():
    return time.time() + 0.5


def decode_candidates_batch(payload):
    stacked, energies = gather_candidates_stacked(
        payload.grid, payload.starts, payload.width)
    deadline = _batch_deadline()
    decoded = []
    for row, energy in enumerate(energies):
        if time.time() > deadline:
            break
        if energy > payload.threshold:
            decoded.append(stacked[row])
            payload.tracked[payload.rntis[row]].decoded_dcis += 1
    return decoded


def pack_batch(ctx):
    return decode_candidates_batch, ctx


BATCH_STAGE = Stage("dci-batch", pack=pack_batch)
