"""R006 fixture: a parallel stage whose closure is impure every way.

Both root-detection forms appear: the ``@parallel_stage`` decorator and
the job a ``Stage(..., pack=...)`` callable returns.  The job reaches,
through helpers, a tracked-table mutation, a stateful RNG draw and a
wall-clock read — each must surface as an R006 finding with a witness
chain.  The same file doubles as the nrsan test's shape reference: the
runtime guard must catch the tracked mutation dynamically.
"""

import time

import numpy as np


def parallel_stage(fn):
    return fn


class Stage:
    def __init__(self, name, fn=None, pack=None, merge=None):
        self.name = name
        self.fn = fn
        self.pack = pack
        self.merge = merge


def _mark_activity(tracked, rnti, now_s):
    tracked[rnti].last_seen_s = now_s


def _draw_decision():
    return np.random.default_rng().random() < 0.5


def _stamp():
    return time.time()


def decode_job(payload):
    for rnti in list(payload.tracked):
        _mark_activity(payload.tracked, rnti, _stamp())
        if _draw_decision():
            payload.tracked.pop(rnti)


class BadPipeline:
    def __init__(self):
        self.stage = Stage("decode", pack=self._pack_decode,
                           merge=self._merge_decode)

    def _pack_decode(self, ctx):
        return decode_job, ctx

    def _merge_decode(self, ctx, result):
        ctx.decoded = result


@parallel_stage
def decode_shard(tracked, rnti):
    tracked[rnti].decoded_dcis += 1
    return _draw_decision()
