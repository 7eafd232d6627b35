"""R007 fixture: randomness nobody owns, in every flavour.

stdlib ``random``, legacy ``np.random`` global state, entropy-seeded
``default_rng()``, a draw chained on a discarded fresh generator, and —
the flow-aware case — a *seeded* generator constructed inside a
function reachable from a parallel stage.
"""

import random

import numpy as np


class Stage:
    def __init__(self, name, fn=None, pack=None, merge=None):
        self.name = name
        self.fn = fn
        self.pack = pack
        self.merge = merge


def coin_flip():
    return random.random() < 0.5


def legacy_noise(n):
    return np.random.randn(n)


def entropy_seeded():
    return np.random.default_rng()


def one_shot_draw():
    return np.random.default_rng(7).random()


def decode_with_local_generator(payload):
    rng = np.random.default_rng(1234)
    return payload if rng is not None else None


def pack_decode(ctx):
    return decode_with_local_generator, ctx.output


STAGE = Stage("decode", pack=pack_decode)
