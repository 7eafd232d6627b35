"""decode_slot_batch matches the per-candidate scalar search, bit for bit.

The batched decoder reorders work (one decode per candidate position,
joint polar decodes, one RNTI recovery per block) but must reproduce
the decisions of :func:`scalar_decode_slot` — the reference loop that
tries one candidate and format at a time through
:func:`repro.phy.pdcch.try_decode_pdcch` — exactly: same decoded DCIs
in the same order, same attempt count, same claimed CCEs, under
every ablation toggle and under noise.  The slim process wire forms
(control-region grid slice + content-addressed search-space blob) must
likewise be invisible to the decode.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dci_decoder import DecodedDci, DecodeSpec, \
    GridDciDecoder, _SPACES_CACHE, _ue_entry_plan, grid_decode_job, \
    pack_grid_for_decode, pack_tracked_for_decode, \
    unpack_grid_for_decode, unpack_tracked_for_decode
from repro.core.rach_sniffer import RachSniffer, TrackedUe
from repro.core.scope import GridDecodePayload, NRScope
from repro.gnb.cell_config import AMARISOFT_PROFILE, SRSRAN_PROFILE
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.pdcch import PdcchCandidate, candidate_occupied, \
    encode_pdcch, try_decode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.rrc.messages import RrcSetup
from repro.simulation import Simulation


def scalar_decode_slot(spec: DecodeSpec, grid: ResourceGrid,
                       slot_index: int, tracked: dict[int, TrackedUe],
                       claimed: set[int] | None = None) \
        -> tuple[list[DecodedDci], int]:
    """The oracle: search every tracked UE's candidates one at a time.

    ``claimed``, when given, seeds the CCE claims and receives the
    CCEs of every decoded DCI.  Returns the decoded DCIs and the
    attempt count.
    """
    decoded: list[DecodedDci] = []
    attempts = 0
    if claimed is None:
        claimed = set()
    for rnti in sorted(tracked):
        ue = tracked[rnti]
        space = ue.search_space
        for level, count in space.candidates_per_level.items():
            if count == 0:
                continue
            for start in space.candidate_cces(level, slot_index, rnti):
                cces = frozenset(range(start, start + level))
                if spec.use_cce_claiming and cces & claimed:
                    continue
                candidate = PdcchCandidate(first_cce=start,
                                           aggregation_level=level)
                if spec.use_energy_gate and not candidate_occupied(
                        grid, space.coreset, candidate,
                        spec.noise_var):
                    continue
                for fmt in (DciFormat.DL_1_1, DciFormat.UL_0_1):
                    attempts += 1
                    dci = try_decode_pdcch(
                        grid, spec.dci_cfg, space.coreset, candidate,
                        fmt, rnti, spec.n_id, spec.noise_var,
                        slot_index=slot_index,
                        equalize=spec.equalize)
                    if dci is not None:
                        decoded.append(DecodedDci(
                            dci=dci, aggregation_level=level))
                        if spec.use_cce_claiming:
                            claimed.update(cces)
                        break
    return decoded, attempts


def build_tracked(n_ues=3):
    sniffer = RachSniffer(bwp_n_prb=51)
    setup = RrcSetup(tc_rnti=0x4601,
                     search_space=SRSRAN_PROFILE.search_space_config())
    sniffer.discover(0x4601, 0.0, setup)
    for i in range(1, n_ues):
        sniffer.discover(0x4601 + i, 0.0, None)
    return sniffer.tracked


def build_slot(tracked, slot_index, level=2, noise_var=0.0, seed=0):
    """One real DCI per UE plus optional AWGN over the whole grid."""
    grid = ResourceGrid(SRSRAN_PROFILE.n_prb)
    cfg = SRSRAN_PROFILE.dci_size_config()
    used = set()
    for rnti, ue in tracked.items():
        space = ue.search_space
        for start in space.candidate_cces(level, slot_index, rnti):
            cces = set(range(start, start + level))
            if cces & used:
                continue
            dci = Dci(format=DciFormat.DL_1_1, rnti=rnti,
                      freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                      mcs=10, ndi=0, rv=0, harq_id=0)
            encode_pdcch(dci, cfg, space.coreset,
                         PdcchCandidate(start, level), grid,
                         n_id=SRSRAN_PROFILE.cell_id,
                         slot_index=slot_index)
            used |= cces
            break
    if noise_var > 0.0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(noise_var / 2.0)
        grid.data += (rng.normal(0.0, scale, grid.data.shape)
                      + 1j * rng.normal(0.0, scale, grid.data.shape))
    return grid


def make_decoder(noise_var=1e-3, **kwargs):
    return GridDciDecoder(DecodeSpec(
        dci_cfg=SRSRAN_PROFILE.dci_size_config(),
        n_id=SRSRAN_PROFILE.cell_id, noise_var=noise_var, **kwargs))


class TestBatchMatchesScalar:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_full_equivalence(self, data):
        n_ues = data.draw(st.integers(min_value=1, max_value=5))
        slot_index = data.draw(st.integers(min_value=0, max_value=19))
        level = data.draw(st.sampled_from([1, 2, 4]))
        noise_var = data.draw(st.sampled_from([0.0, 1e-3, 0.05]))
        gate = data.draw(st.booleans())
        claim = data.draw(st.booleans())
        seed = data.draw(st.integers(min_value=0, max_value=999))

        tracked = build_tracked(n_ues)
        grid = build_slot(tracked, slot_index, level=level,
                          noise_var=noise_var, seed=seed)
        kwargs = dict(noise_var=max(noise_var, 1e-3),
                      use_energy_gate=gate, use_cce_claiming=claim)
        batched = make_decoder(**kwargs)
        claimed_s: set = set()
        claimed_b: set = set()
        out_s, attempts_s = scalar_decode_slot(
            batched.spec, grid, slot_index, tracked, claimed=claimed_s)
        out_b = batched.decode_slot_batch(grid, slot_index, tracked,
                                          claimed=claimed_b)
        assert out_b == out_s
        assert batched.attempts == attempts_s
        assert claimed_b == claimed_s

    def test_equalize_path_matches(self):
        tracked = build_tracked(3)
        grid = build_slot(tracked, slot_index=4, noise_var=1e-3, seed=1)
        grid.data *= 0.8 * np.exp(1j * 0.3)
        batched = make_decoder(equalize=True)
        out_s, _ = scalar_decode_slot(batched.spec, grid, 4, tracked)
        out_b = batched.decode_slot_batch(grid, 4, tracked)
        assert out_b == out_s
        assert len(out_s) == 3

    def test_entry_plan_is_cached_across_slots(self):
        tracked = build_tracked(2)
        grid = build_slot(tracked, slot_index=4)
        decoder = make_decoder()
        decoder.decode_slot_batch(grid, 4, tracked)
        before = _ue_entry_plan.cache_info().hits
        decoder.decode_slot_batch(grid, 4, tracked)
        # One hit per (space, rnti) entry: the whole phase-1 candidate
        # enumeration collapses to a memoized lookup on repeat slots.
        assert _ue_entry_plan.cache_info().hits >= before + len(tracked)


def _sent_to(log, slot_index, tracked) -> int:
    """UE-space DCIs the gNB sent to tracked RNTIs in one slot."""
    sent = 0
    for record in reversed(log.dci_records):
        if record.slot_index != slot_index:
            break
        sent += record.search_space == "ue" and record.rnti in tracked
    return sent


@pytest.fixture(scope="module")
def session_slots():
    """The first 30 DCI-bearing slots of a seeded amarisoft iq session
    (16 UEs, sniffer at -2 dB): the tracked UEs' candidates overlap on
    the 8-CCE CORESET, decodes claim CCEs and some DCIs are missed.
    Each entry is ``(spec, grid, slot_index, tracked, n_sent)``."""
    sim = Simulation.build(AMARISOFT_PROFILE, n_ues=16, seed=5,
                           fidelity="iq")
    scope = NRScope.attach(sim, snr_db=-2.0)
    slots = []
    original = GridDciDecoder.decode_slot_batch

    def capture(self, grid, slot_index, tracked, claimed=None):
        sent = _sent_to(sim.gnb.log, slot_index, tracked)
        if sent:
            slots.append((self.spec, grid, slot_index, dict(tracked),
                          sent))
        return original(self, grid, slot_index, tracked, claimed)

    GridDciDecoder.decode_slot_batch = capture
    try:
        while len(slots) < 30 and sim.slots_run < 1000:
            sim.run_slots(10)
        sim.flush_observers()
    finally:
        GridDciDecoder.decode_slot_batch = original
    scope.close()
    return slots[:30]


class TestSessionSlots:
    def test_decode_matches_oracle_slot_by_slot(self, session_slots):
        assert len(session_slots) == 30
        n_sent = n_decoded = n_claimed = 0
        for spec, grid, slot_index, tracked, sent in session_slots:
            decoder = GridDciDecoder(spec)
            claimed_b: set = set()
            claimed_s: set = set()
            out_b = decoder.decode_slot_batch(grid, slot_index, tracked,
                                              claimed=claimed_b)
            out_s, attempts_s = scalar_decode_slot(
                spec, grid, slot_index, tracked, claimed=claimed_s)
            assert out_b == out_s, slot_index
            assert decoder.attempts == attempts_s, slot_index
            assert claimed_b == claimed_s, slot_index
            n_sent += sent
            n_decoded += len(out_s)
            n_claimed += len(claimed_s)
        # The slots exercise claims and misses, not only clean decodes.
        assert n_claimed > 0
        assert n_decoded < n_sent


class TestSlimWireForms:
    def test_grid_roundtrip_preserves_control_region(self):
        tracked = build_tracked(3)
        grid = build_slot(tracked, slot_index=4, noise_var=1e-3, seed=2)
        packed = pack_grid_for_decode(grid, tracked)
        n_sym = packed["n_control_symbols"]
        assert 0 < n_sym < grid.data.shape[1]
        rebuilt = unpack_grid_for_decode(packed)
        assert rebuilt.n_prb == grid.n_prb
        assert np.array_equal(rebuilt.data[:, :n_sym],
                              grid.data[:, :n_sym])
        assert np.array_equal(rebuilt.occupancy[:, :n_sym],
                              grid.occupancy[:, :n_sym])
        assert not rebuilt.data[:, n_sym:].any()

    def test_slim_job_matches_inline_decode(self):
        tracked = build_tracked(4)
        grid = build_slot(tracked, slot_index=7, noise_var=1e-3, seed=3)
        decoder = make_decoder()
        inline = decoder.decode_slot_batch(grid, 7, tracked)
        payload = GridDecodePayload(spec=decoder.spec, grid=grid,
                                    slot_index=7, tracked=tracked)
        wired = pickle.loads(pickle.dumps(payload))
        # the worker-side payload holds the slim forms, not the live ones
        assert wired.grid is not grid and wired.tracked is not tracked
        assert sorted(wired.tracked) == sorted(tracked)
        decoded, attempts = grid_decode_job(wired)
        assert decoded == inline
        assert attempts == decoder.attempts > 0

    def test_tracked_blob_is_content_addressed(self):
        tracked = build_tracked(3)
        blob_a = pack_tracked_for_decode(tracked)
        blob_b = pack_tracked_for_decode(dict(reversed(tracked.items())))
        # Same table contents -> same blob (packing sorts by RNTI), and
        # the lru means the steady-state pack is one hash lookup.
        assert blob_a == blob_b
        table_a = unpack_tracked_for_decode(blob_a)
        assert table_a is unpack_tracked_for_decode(blob_a)
        assert sorted(table_a) == sorted(tracked)
        for rnti, ue in table_a.items():
            assert ue.search_space == tracked[rnti].search_space
        assert blob_a in _SPACES_CACHE

    def test_blob_changes_when_a_ue_joins(self):
        small = build_tracked(2)
        large = build_tracked(3)
        assert pack_tracked_for_decode(small) \
            != pack_tracked_for_decode(large)
