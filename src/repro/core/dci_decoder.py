"""Per-slot DCI extraction for the tracked UE list (paper section 3.2.1).

Two backends share one interface:

* :class:`GridDciDecoder` (iq fidelity) - runs the real PDCCH decode
  chain over a captured resource grid: for every tracked RNTI it
  enumerates that UE's search-space candidates for the slot and attempts
  a polar decode + CRC check per format, stacking the candidates
  through batched numpy kernels.
* :class:`RecordDciDecoder` (message fidelity) - walks the slot's DCI
  records and applies the calibrated decode-failure model, producing the
  same outputs orders of magnitude faster.

Both return :class:`DecodedDci` lists; everything downstream (grants,
HARQ tracking, throughput) is backend-agnostic.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import DCI_CRC_LEN
from repro.core.decode_model import counter_uniform, decode_succeeds, \
    pdcch_bler
from repro.core.rach_sniffer import TrackedUe
from repro.core.sanitizer import parallel_stage
from repro.phy import polar
from repro.phy.coreset import Coreset, SearchSpace
from repro.phy.dci import Dci, DciError, DciFormat, DciSizeConfig, \
    dci_payload_size, unpack
from repro.phy.modulation import QPSK, demodulate_soft_batch
from repro.phy.numerology import slots_per_frame
from repro.phy.pdcch import BITS_PER_CCE, PdcchCandidate, \
    candidate_energies_batch, candidate_occupied, dci_recover_rnti_batch, \
    estimate_channel, gather_candidates_batch, occupancy_threshold
# Re-exported under the decoder's name: perfbench's ``phy.crc`` probe
# wraps ``repro.core.dci_decoder.dci_crc_check_batch``.  The grid search
# no longer calls it (each block's RNTI is recovered once instead), so
# that probe reads 0.
from repro.phy.pdcch import dci_crc_check_batch  # noqa: F401
from repro.phy.resource_grid import ResourceGrid
from repro.phy.scrambling import descramble_llrs, pdcch_scrambling_init
from repro.gnb.gnb import DciRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scope import GridDecodePayload


#: The DCI formats every UE-space candidate is tried with, in order.
_FORMATS = (DciFormat.DL_1_1, DciFormat.UL_0_1)

#: A candidate position as the grid decode keys it: (CORESET, level,
#: first CCE, scrambling ``c_init``) fixes the candidate's channel bits.
_Position = tuple[Coreset, int, int, int]


class DciDecoderError(ValueError):
    """Raised for backend misuse."""


@dataclass(frozen=True)
class DecodedDci:
    """One successfully decoded DCI at the sniffer."""

    dci: Dci
    aggregation_level: int
    from_common_space: bool = False


@lru_cache(maxsize=65536)
def _ue_entry_plan(space: SearchSpace, rnti: int, reduced_slot: int) \
        -> tuple[tuple[int, int, bool, int], ...]:
    """One UE's candidate skeleton: ``(level, start, valid, cce_bits)``.

    The 38.213 hash repeats every frame, so the per-slot enumeration a
    batched decode performs for *every* tracked UE collapses to one
    cache hit per UE after the first frame.  Keyed on the search space
    itself (hashable, with an insertion-order-sensitive hash) so the
    plan preserves the per-candidate search order: UEs by RNTI, then
    levels, then the hashed starts.
    """
    plan: list[tuple[int, int, bool, int]] = []
    n_cce = space.coreset.n_cces
    for level, count in space.candidates_per_level.items():
        if count == 0:
            continue
        for start in space.candidate_cces(level, reduced_slot, rnti):
            plan.append((level, start, start + level <= n_cce,
                         ((1 << level) - 1) << start))
    return tuple(plan)


class RecordDciDecoder:
    """Message-fidelity backend driven by the calibrated BLER model."""

    def __init__(self, sniffer_snr_db: float, seed: int = 0) -> None:
        self.sniffer_snr_db = sniffer_snr_db
        self.seed = seed
        #: The common-space generator, built on first use: a decoder
        #: that only decodes UE-space DCIs (the per-slot job's) makes
        #: counter-keyed draws alone and never pays for one.
        self._rng: np.random.Generator | None = None
        self.attempts = 0
        self.misses = 0

    @property
    def rng(self) -> np.random.Generator:
        """The seeded generator behind :meth:`decode_common`."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def decode_slot(self, records: list[DciRecord],
                    tracked: dict[int, TrackedUe] | frozenset[int],
                    miss_log: list[tuple[int, int, int]] | None = None) \
            -> list[DecodedDci]:
        """Decode this slot's UE-search-space DCIs for tracked RNTIs.

        ``tracked`` only ever answers RNTI membership here, so it may
        be a tracked-UE dict or the immutable ``frozenset`` of RNTIs the
        job payload ships (R009: the live table must not cross the
        pickle boundary).

        Runs on the slot runtime's parallel stage, so each decision is a
        counter-based draw keyed on (seed, slot, rnti, CCE, level,
        direction) rather than a shared-RNG state advance: the outcome
        is identical whatever order and process the slots run in.

        ``miss_log``, when given, receives one ``(slot_index, rnti,
        level)`` tuple per missed decode in record order — the
        observability bus turns these into ``dci.miss`` events, and a
        payload executor ships them back over the wire.
        """
        decoded: list[DecodedDci] = []
        attempts = misses = 0
        for record in records:
            if record.search_space != "ue":
                continue
            if record.rnti not in tracked:
                continue
            attempts += 1
            level = record.candidate.aggregation_level
            draw = counter_uniform(
                self.seed, record.slot_index, record.rnti,
                record.candidate.first_cce, level,
                int(record.dci.format == DciFormat.DL_1_1))
            if draw >= pdcch_bler(self.sniffer_snr_db, level):
                decoded.append(DecodedDci(dci=record.dci,
                                          aggregation_level=level))
            else:
                misses += 1
                if miss_log is not None:
                    miss_log.append((record.slot_index, record.rnti,
                                     level))
        self.attempts += attempts
        self.misses += misses
        return decoded

    def decode_common(self, records: list[DciRecord]) \
            -> list[tuple[DciRecord, bool]]:
        """Attempt every common-search-space DCI (SIB1/MSG 4 scheduling).

        Returns (record, decoded?) pairs; the caller turns successful
        non-SI decodes into RNTI discoveries.
        """
        results = []
        for record in records:
            if record.search_space != "common":
                continue
            level = record.candidate.aggregation_level
            ok = decode_succeeds(self.sniffer_snr_db, level, self.rng)
            results.append((record, ok))
        return results

    def checkpoint_state(self) -> dict:
        """Picklable snapshot."""
        return {"sniffer_snr_db": self.sniffer_snr_db,
                "seed": self.seed,
                "rng_state": self.rng.bit_generator.state,
                "attempts": self.attempts, "misses": self.misses}

    @classmethod
    def from_state(cls, state: dict) -> "RecordDciDecoder":
        """Rebuild a decoder mid-stream from :meth:`checkpoint_state`."""
        decoder = cls(sniffer_snr_db=state["sniffer_snr_db"],
                      seed=state["seed"])
        decoder.rng.bit_generator.state = state["rng_state"]
        decoder.attempts = state["attempts"]
        decoder.misses = state["misses"]
        return decoder


@dataclass(frozen=True)
class DecodeSpec:
    """The grid decoder's configuration: the one list of its fields.

    Frozen and picklable, so the DCI stage's job payload carries it to
    wherever the job runs and decoder checkpoints store it as is.  Two
    receiver-side optimisations, both absent from the paper's tool and
    both ablatable for the Fig 12 comparison:

    * ``use_energy_gate`` skips candidates whose REs carry only noise.
    * ``use_cce_claiming``: CCEs carry at most one DCI, so a decoded DCI
      disqualifies every other candidate touching its CCEs.

    ``equalize`` divides each candidate by its DMRS channel estimate.
    """

    dci_cfg: DciSizeConfig
    n_id: int
    noise_var: float
    use_energy_gate: bool = True
    use_cce_claiming: bool = True
    equalize: bool = False

    def __post_init__(self) -> None:
        if self.noise_var <= 0:
            raise DciDecoderError(
                f"noise variance must be positive: {self.noise_var}")


class GridDciDecoder:
    """IQ-fidelity backend: real polar decodes over a captured grid."""

    def __init__(self, spec: DecodeSpec) -> None:
        self.spec = spec
        self.attempts = 0

    def decode_slot_batch(self, grid: ResourceGrid, slot_index: int,
                          tracked: dict[int, TrackedUe],
                          claimed: set[int] | None = None) \
            -> list[DecodedDci]:
        """Search every tracked UE's candidates in the captured grid.

        The search visits UEs by RNTI, then each aggregation level's
        hashed candidates; a candidate whose CCEs are already claimed
        or whose REs fail the energy gate is skipped, otherwise both
        DCI formats are attempted (each counts in ``attempts``) and the
        first CRC-verified decode claims the candidate's CCEs.
        ``claimed``, when given, seeds the CCE claims and receives the
        CCEs of every decoded DCI.

        A candidate's channel bits depend only on its position —
        (CORESET, level, first CCE) — and the scrambling ``c_init``;
        the RNTI enters only at the CRC.  So every distinct position
        the search can reach (valid, not in the initial claims, above
        the energy gate) is gathered, demodulated, descrambled and
        polar-decoded once, in one joint polar pass per aggregation
        level, and each decoded block's RNTI is recovered from its CRC
        once (:func:`~repro.phy.pdcch.dci_recover_rnti_batch`).  The
        search's control flow is then *replayed* over those blocks,
        where an attempt's CRC check is ``recovered == rnti``.  Position
        work is bounded by the CORESET, not by the tracked-UE count.
        The decisions are bit-identical to a per-candidate loop over
        :func:`~repro.phy.pdcch.try_decode_pdcch` (the test-suite
        oracle in ``tests/core/test_batch_equivalence.py``); only the
        amount of work differs.
        """
        spec = self.spec
        decoded: list[DecodedDci] = []
        attempts = 0
        if claimed is None:
            claimed = set()

        # Phase 1: enumerate candidates in search order.
        # Each entry carries its CCE footprint as an int bitmask so the
        # replay's claim checks are single AND operations; the
        # ``claimed`` set stays the caller-visible interface.  Per-UE
        # skeletons come from the frame-periodic plan cache (the hash
        # only depends on the slot within its frame).
        reduced_slot = slot_index % slots_per_frame(30)
        entries: list[tuple[int, int, int, Coreset, bool, int]] = []
        for rnti in sorted(tracked):
            space = tracked[rnti].search_space
            for level, start, valid, cce_bits in _ue_entry_plan(
                    space, rnti, reduced_slot):
                entries.append((rnti, level, start, space.coreset, valid,
                                cce_bits))
        if not entries:
            return decoded
        claimed_bits = 0
        for cce in claimed:
            claimed_bits |= 1 << cce

        # Phase 2: the distinct positions the search can reach, grouped
        # per (CORESET, level, c_init) for the gather and demod kernels.
        c_init = pdcch_scrambling_init(spec.n_id)
        groups: dict[tuple[Coreset, int, int], dict[int, None]] = {}
        for _, level, start, coreset, valid, cce_bits in entries:
            if valid and not (spec.use_cce_claiming
                              and cce_bits & claimed_bits):
                groups.setdefault((coreset, level, c_init),
                                  {})[start] = None

        # Phase 3: gather, energy gate, demod and descramble per group.
        # ``reached`` holds every position the replay may attempt.
        threshold = occupancy_threshold(spec.noise_var)
        reached: set[_Position] = set()
        llrs_by_level: dict[int, list[tuple[list[_Position],
                                            np.ndarray]]] = {}
        for (coreset, level, key_c_init), start_set in groups.items():
            starts = np.fromiter(start_set, dtype=np.intp,
                                 count=len(start_set))
            values = gather_candidates_batch(grid, coreset, level, starts)
            if spec.use_energy_gate:
                passed = candidate_energies_batch(values) > threshold
                starts, values = starts[passed], values[passed]
                if not starts.size:
                    continue
            if spec.equalize:
                gains = np.array(
                    [estimate_channel(
                        grid, coreset,
                        PdcchCandidate(first_cce=int(start),
                                       aggregation_level=level),
                        spec.n_id, slot_index) for start in starts],
                    dtype=np.complex128)
                values = values / gains[:, None]
                # Demodulating at unit noise then dividing per row is
                # the scalar (d1-d0)/noise_var to the last bit: x/1.0
                # is exact, so each LLR still sees one division by its
                # effective noise variance.
                nv_eff = np.maximum(
                    spec.noise_var / np.maximum(np.abs(gains) ** 2,
                                                1e-9), 1e-12)
                llrs = demodulate_soft_batch(values, QPSK, 1.0)
                llrs = llrs / nv_eff[:, None]
            else:
                llrs = demodulate_soft_batch(
                    values, QPSK, max(spec.noise_var, 1e-12))
            llrs = descramble_llrs(llrs, key_c_init)
            keys = [(coreset, level, int(start), key_c_init)
                    for start in starts]
            reached.update(keys)
            llrs_by_level.setdefault(level, []).append((keys, llrs))

        # Phase 4: one joint polar pass per level — every position and
        # both DCI formats share the level's mother code — then one
        # RNTI recovery per decoded block.
        blocks: dict[tuple[_Position, DciFormat], np.ndarray] = {}
        recovered: dict[tuple[_Position, DciFormat], int] = {}
        for level, parts in llrs_by_level.items():
            n_coded = level * BITS_PER_CCE
            fmts = []
            codes = []
            for fmt in _FORMATS:
                k = dci_payload_size(fmt, spec.dci_cfg) + DCI_CRC_LEN
                if k <= n_coded:
                    fmts.append(fmt)
                    codes.append(polar.construct(k, n_coded))
            if not fmts:
                continue
            keys = [key for part_keys, _ in parts for key in part_keys]
            matrix = np.concatenate([llrs for _, llrs in parts])
            outs = polar.decode_batch_joint(matrix, tuple(codes))
            for fmt, out in zip(fmts, outs):
                rntis = dci_recover_rnti_batch(out).tolist()
                for row, key in enumerate(keys):
                    blocks[(key, fmt)] = out[row]
                    recovered[(key, fmt)] = rntis[row]

        # Phase 5: replay the search's control flow over the blocks.
        for rnti, level, start, coreset, valid, cce_bits in entries:
            if not valid:
                if not spec.use_energy_gate:
                    attempts += 2  # both formats tried, both fail early
                continue
            if spec.use_cce_claiming and cce_bits & claimed_bits:
                continue
            key = (coreset, level, start, c_init)
            if key not in reached:
                continue  # below the energy gate
            for fmt in _FORMATS:
                attempts += 1
                if recovered.get((key, fmt)) != rnti:
                    continue
                try:
                    dci = unpack(blocks[(key, fmt)][:-DCI_CRC_LEN], fmt,
                                 spec.dci_cfg, rnti)
                except DciError:
                    continue
                decoded.append(DecodedDci(dci=dci,
                                          aggregation_level=level))
                if spec.use_cce_claiming:
                    claimed_bits |= cce_bits
                    claimed.update(range(start, start + level))
                break
        self.attempts += attempts
        return decoded

    def blind_decode_common(self, grid: ResourceGrid, slot_index: int,
                            common_space) -> list[DecodedDci]:
        """Blind-search the common space, recovering RNTIs via CRC XOR.

        Used for MSG 4 discovery: the payload length of format 1_1 under
        the cell's size config is known from SIB 1, so each candidate is
        decoded without an RNTI hypothesis and the CRC mask yields the
        TC-RNTI (paper section 3.1.2).
        """
        from repro.phy.pdcch import decode_candidate_bits, dci_recover_rnti
        from repro.phy.dci import unpack
        from repro.constants import DCI_CRC_LEN

        spec = self.spec
        decoded: list[DecodedDci] = []
        payload_len = dci_payload_size(DciFormat.DL_1_1, spec.dci_cfg)
        for level, count in common_space.candidates_per_level.items():
            if count == 0:
                continue
            for start in common_space.candidate_cces(level, slot_index):
                candidate = PdcchCandidate(first_cce=start,
                                           aggregation_level=level)
                if not candidate_occupied(grid, common_space.coreset,
                                          candidate, spec.noise_var):
                    continue
                bits = decode_candidate_bits(
                    grid, common_space.coreset, candidate, payload_len,
                    spec.n_id, spec.noise_var)
                if bits is None:
                    continue
                rnti = dci_recover_rnti(bits)
                if rnti is None or rnti == 0:
                    continue
                try:
                    dci = unpack(bits[:-DCI_CRC_LEN], DciFormat.DL_1_1,
                                 spec.dci_cfg, rnti)
                except DciError:
                    continue
                decoded.append(DecodedDci(dci=dci, aggregation_level=level,
                                          from_common_space=True))
        return decoded

    def checkpoint_state(self) -> dict:
        """Picklable snapshot."""
        return {"spec": self.spec, "attempts": self.attempts}

    @classmethod
    def from_state(cls, state: dict) -> "GridDciDecoder":
        """Rebuild a decoder mid-stream from :meth:`checkpoint_state`."""
        decoder = cls(state["spec"])
        decoder.attempts = state["attempts"]
        return decoder


# ------------------------------------------------------ DCI stage jobs
# The DCI stage's jobs and the wire forms of their inputs.  Module-level,
# so spawned ProcessExecutor workers can unpickle them; the inline
# executor runs the same jobs on the same payloads.  Each job rebuilds
# its decoder from the payload's spec (the module-level kernel caches
# stay warm per process) and ships the counters back for the backbone
# to merge.  The wire forms are only built when a payload is pickled
# (see :class:`repro.core.scope.GridDecodePayload`).

def pack_grid_for_decode(grid: ResourceGrid,
                         tracked: dict[int, TrackedUe]) -> dict:
    """Slim picklable snapshot of the grid's PDCCH control region.

    The decode job only ever reads CORESET resource elements, and every
    tracked CORESET sits in the slot's first few symbols — so the
    payload ships just those columns (2 of 14 symbols for the lab
    cells) instead of the whole carrier grid.  The worker rebuilds a
    full-size grid with zeros elsewhere; those REs are never read, so
    the decode stays byte-identical.
    """
    n_symbols = 0
    for ue in tracked.values():
        coreset = ue.search_space.coreset
        n_symbols = max(n_symbols,
                        coreset.first_symbol + coreset.n_symbols)
    n_symbols = min(grid.data.shape[1], n_symbols)
    return {"n_prb": grid.n_prb, "n_control_symbols": n_symbols,
            "data": np.ascontiguousarray(grid.data[:, :n_symbols]),
            "occupancy": np.ascontiguousarray(
                grid.occupancy[:, :n_symbols])}


def unpack_grid_for_decode(packed: dict) -> ResourceGrid:
    """Worker-side inverse of :func:`pack_grid_for_decode`."""
    grid = ResourceGrid(n_prb=packed["n_prb"])
    n_symbols = packed["n_control_symbols"]
    grid.data[:, :n_symbols] = packed["data"]
    grid.occupancy[:, :n_symbols] = packed["occupancy"]
    return grid


class _DecodeUe:
    """Worker-side stand-in for :class:`TrackedUe`.

    The grid decode only reads ``search_space``; shipping the
    session bookkeeping (grant config, activity timestamps) across the
    process boundary every slot would dominate the payload cost.
    """

    __slots__ = ("search_space",)

    def __init__(self, search_space: SearchSpace) -> None:
        self.search_space = search_space


@lru_cache(maxsize=8)
def _packed_spaces(items: tuple) -> bytes:
    """Pickle an ``(rnti, search_space)`` tuple once per tracked-table
    generation — the table only changes when a UE joins or leaves, so
    steady-state packs are one hash lookup (spaces are hashable)."""
    return pickle.dumps(dict(items), protocol=pickle.HIGHEST_PROTOCOL)


def pack_tracked_for_decode(tracked: dict[int, TrackedUe]) -> bytes:
    """Content-addressed search-space blob for the decode payload."""
    return _packed_spaces(tuple(
        (rnti, tracked[rnti].search_space) for rnti in sorted(tracked)))


#: Worker-side blob -> decode table cache, content-addressed by the
#: pickled bytes so a stale entry is impossible by construction.
_SPACES_CACHE: dict[bytes, dict[int, _DecodeUe]] = {}


def unpack_tracked_for_decode(blob: bytes) -> dict[int, _DecodeUe]:
    """Worker-side inverse of :func:`pack_tracked_for_decode`."""
    cached = _SPACES_CACHE.get(blob)
    if cached is None:
        cached = {rnti: _DecodeUe(space)
                  for rnti, space in pickle.loads(blob).items()}
        while len(_SPACES_CACHE) >= 8:
            _SPACES_CACHE.pop(next(iter(_SPACES_CACHE)))
        _SPACES_CACHE[blob] = cached
    return cached


@parallel_stage
def grid_decode_job(payload: "GridDecodePayload") \
        -> tuple[list[DecodedDci], int]:
    """One slot's iq-fidelity decode: the DCI stage's job.

    ``payload.spec`` is the decoder's :class:`DecodeSpec`.  Returns the
    decoded DCIs and the attempt count.
    """
    decoder = GridDciDecoder(payload.spec)
    decoded = decoder.decode_slot_batch(
        payload.grid, payload.slot_index, payload.tracked)
    return decoded, decoder.attempts


@parallel_stage
def record_decode_job(payload: dict) \
        -> tuple[list[DecodedDci], int, int, list[tuple[int, int, int]]]:
    """One slot's message-fidelity decode: the DCI stage's job.

    The decode decisions are counter-keyed on (seed, slot, rnti, CCE,
    level, direction), so a fresh decoder with the session seed draws
    the identical stream in any process (and, making no common-space
    draws, never builds a generator).  ``payload["tracked"]`` is the
    slim ``frozenset`` of tracked RNTIs (membership is all the record
    decode needs — see :meth:`RecordDciDecoder.decode_slot`).

    When ``payload["collect_misses"]`` is set, the fourth element
    carries the per-miss ``(slot, rnti, level)`` log back so the
    backbone emits one ``dci.miss`` event per miss in commit order.
    """
    decoder = RecordDciDecoder(sniffer_snr_db=payload["snr_db"],
                               seed=payload["seed"])
    miss_log: list[tuple[int, int, int]] = []
    decoded = decoder.decode_slot(
        payload["records"], payload["tracked"],
        miss_log if payload["collect_misses"] else None)
    return decoded, decoder.attempts, decoder.misses, miss_log
