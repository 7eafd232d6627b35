"""R009 fixture: wire payloads that capture every kind of shared state.

A ``Stage(..., pack=...)`` site names the pack root; its payload dict
ships the live tracked table, a stateful RNG, an obs handle, a lambda
and an open file — one escape per field.  The resolved job returns an
instance of a class whose ``__init__`` builds a lock, so the result
path fires the unsafe-instance check too.
"""

import threading

import numpy as np


class Stage:
    def __init__(self, name, fn, pack=None):
        self.name = name
        self.fn = fn
        self.pack = pack


class BadDecoder:
    def __init__(self):
        self._lock = threading.Lock()


def bad_decode_job(grid, tracked):
    decoder = BadDecoder()
    return decoder, len(tracked)


class BadPipeline:
    def __init__(self, obs):
        self.tracked = {}
        self._rng = np.random.default_rng(0)
        self._obs = obs
        self.stage = Stage("decode", self._run, pack=self._pack)

    def _run(self, ctx):
        return ctx

    def _pack(self, ctx):
        payload = {
            "tracked": ctx.tracked,             # the live table
            "rng": self._rng,                   # forks the RNG stream
            "obs": self._obs,                   # emits from the worker
            "mapper": lambda llr: llr * 2.0,    # unpicklable
            "log": open("decode.log", "w"),     # open handle
        }
        return bad_decode_job, payload
