"""Batched PHY kernel contracts: bit-identity and memoization.

The batch kernels buy their speed purely from numpy dispatch economics;
nothing about the outputs may change.  These tests pin that contract
with randomized equivalence checks against the scalar reference paths
(including exact-zero LLRs and sign ties, where a sloppy vectorization
diverges first) and assert that the caches the hot loop depends on
actually hit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import polar
from repro.phy.coreset import Coreset, SearchSpace, _candidate_starts
from repro.phy.crc import crc_generator_matrix, crc_remainder, \
    crc_remainder_batch
from repro.phy.pdcch import dci_crc_attach, dci_crc_check, \
    dci_crc_check_batch, dci_recover_rnti, dci_recover_rnti_batch
from repro.phy.scrambling import descramble_llrs, gold_sequence, \
    sign_cache_stats

#: (k, E) pairs the PDCCH path actually uses: E = 108 * level, k = DCI
#: payload + CRC for the two monitored formats; (60, 1728) repeats the
#: N = 512 mother code more than twice (E > 2N).
CODE_SHAPES = [(44, 108), (65, 108), (44, 216), (65, 216),
               (44, 432), (65, 432), (65, 864), (12, 108), (100, 216),
               (60, 1728)]

#: LLR values drawn from a small integer lattice so exact zeros and
#: magnitude ties occur constantly — the regime where min-sum sign
#: conventions diverge if the batched kernel is not truly identical.
llr_values = st.integers(min_value=-6, max_value=6).map(
    lambda v: v / 2.0)


class TestDecodeBatchEquivalence:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_decode_rowwise(self, data):
        k, e = data.draw(st.sampled_from(CODE_SHAPES))
        batch = data.draw(st.integers(min_value=1, max_value=6))
        code = polar.construct(k, e)
        rows = data.draw(st.lists(
            st.lists(llr_values, min_size=e, max_size=e),
            min_size=batch, max_size=batch))
        llrs = np.array(rows, dtype=np.float64)
        out = polar.decode_batch(llrs, code)
        assert out.shape == (batch, k)
        for row in range(batch):
            scalar = polar.decode(llrs[row], code)
            assert np.array_equal(out[row], scalar), \
                f"row {row} diverged for (k={k}, E={e})"

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_joint_matches_separate_decodes(self, data):
        e = data.draw(st.sampled_from([108, 216, 432]))
        k_pair = data.draw(st.sampled_from([(65, 44), (80, 30),
                                            (65, 65)]))
        codes = tuple(polar.construct(k, e) for k in k_pair)
        batch = data.draw(st.integers(min_value=1, max_value=4))
        rows = data.draw(st.lists(
            st.lists(llr_values, min_size=e, max_size=e),
            min_size=batch, max_size=batch))
        llrs = np.array(rows, dtype=np.float64)
        joint = polar.decode_batch_joint(llrs, codes)
        assert len(joint) == len(codes)
        for code, out in zip(codes, joint):
            assert np.array_equal(out, polar.decode_batch(llrs, code))

    def test_rate1_node_falls_back_to_sc_on_an_exact_zero(self):
        # Leaves 2 and 3 form a rate-1 node whose input is (a + c,
        # b + d) after the frozen left child; a + c == 0 is a tie where
        # hard decision and SC disagree (SC: f = 0 decides u2 = 0).
        frozen = np.array([True, True, False, False])
        plan = polar._sc_plan(4, frozen.astype(np.uint8).tobytes(),
                              (~frozen).astype(np.uint8).tobytes())
        assert any(op[0] == polar._OP_RATE1 for op in plan)
        llrs = np.array([[1.0, -1.0, -1.0, -1.0],     # tie
                         [1.0, -1.0, -2.0, -1.0],     # no tie
                         [0.0, 0.0, 0.0, 0.0]])       # all zero
        out = polar._sc_decode_batch(llrs, frozen)
        for row in range(llrs.shape[0]):
            assert np.array_equal(out[row],
                                  polar._sc_decode(llrs[row], frozen))
        assert out[0].tolist() == [0, 0, 0, 1]

    def test_rate1_tie_in_a_pdcch_code_matches_decode(self):
        # An exact zero anywhere in the channel LLRs reaches rate-1
        # node inputs of the real DCI codes; every row must still be
        # the scalar decode.
        rng = np.random.default_rng(3)
        for k, e in ((70, 216), (59, 432), (70, 864)):
            code = polar.construct(k, e)
            llrs = rng.normal(0.0, 1.0, size=(4, e))
            llrs[0, rng.integers(0, e, size=e // 4)] = 0.0
            llrs[1] = np.round(llrs[1])
            out = polar.decode_batch(llrs, code)
            for row in range(4):
                assert np.array_equal(out[row],
                                      polar.decode(llrs[row], code))

    def test_decoded_bits_roundtrip_encode(self):
        # Noise-free sanity: decode_batch inverts encode for every shape.
        rng = np.random.default_rng(7)
        for k, e in CODE_SHAPES:
            code = polar.construct(k, e)
            info = rng.integers(0, 2, size=(3, k)).astype(np.uint8)
            llrs = np.stack([1.0 - 2.0 * polar.encode(row, code)
                             for row in info])
            assert np.array_equal(polar.decode_batch(llrs, code), info)


class TestCrcBatchEquivalence:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_remainder_batch_matches_rowwise(self, data):
        name = data.draw(st.sampled_from(["crc24c", "crc24a", "crc16"]))
        width = data.draw(st.integers(min_value=1, max_value=96))
        batch = data.draw(st.integers(min_value=1, max_value=5))
        bits = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=width, max_size=width),
            min_size=batch, max_size=batch)), dtype=np.uint8)
        got = crc_remainder_batch(bits, name)
        for row in range(batch):
            assert np.array_equal(got[row], crc_remainder(bits[row],
                                                          name))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_dci_check_batch_matches_scalar(self, data):
        payload_len = data.draw(st.integers(min_value=12,
                                            max_value=80))
        rnti = data.draw(st.integers(min_value=1, max_value=0xFFF0))
        payload = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=payload_len,
            max_size=payload_len)), dtype=np.uint8)
        good = dci_crc_attach(payload, rnti)
        corrupted = good.copy()
        corrupted[data.draw(st.integers(0, good.size - 1))] ^= 1
        wrong_rnti = rnti ^ 0x0004
        blocks = np.stack([good, corrupted, good])
        rntis = np.array([rnti, rnti, wrong_rnti])
        got = dci_crc_check_batch(blocks, rntis)
        expected = [dci_crc_check(blocks[i], int(rntis[i]))
                    for i in range(3)]
        assert got.tolist() == expected
        assert expected[0] is True

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_recover_rnti_batch_matches_scalar(self, data):
        payload_len = data.draw(st.integers(min_value=12,
                                            max_value=80))
        rnti = data.draw(st.integers(min_value=1, max_value=0xFFF0))
        payload = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=payload_len,
            max_size=payload_len)), dtype=np.uint8)
        good = dci_crc_attach(payload, rnti)
        corrupted = good.copy()
        corrupted[data.draw(st.integers(0, good.size - 1))] ^= 1
        blocks = np.stack([good, corrupted, dci_crc_attach(payload, 0)])
        got = dci_recover_rnti_batch(blocks)
        expected = [dci_recover_rnti(block) for block in blocks]
        assert got.tolist() == [-1 if value is None else value
                                for value in expected]
        assert expected[0] == rnti and expected[2] == 0

    def test_recover_rnti_batch_rejects_crc_only_blocks(self):
        blocks = np.zeros((2, 24), dtype=np.uint8)
        assert dci_recover_rnti_batch(blocks).tolist() == [-1, -1]
        assert dci_recover_rnti(blocks[0]) is None

    def test_generator_matrix_is_cached_and_frozen(self):
        before = crc_generator_matrix.cache_info().hits
        m1 = crc_generator_matrix(89, "crc24c")
        m2 = crc_generator_matrix(89, "crc24c")
        assert m1 is m2
        assert crc_generator_matrix.cache_info().hits > before
        assert not m1.flags.writeable


class TestKernelCaches:
    def test_polar_construct_and_reliability_order_hit(self):
        polar.construct(65, 216)
        c_before = polar.construct.cache_info().hits
        r_before = polar.reliability_order.cache_info().hits
        code = polar.construct(65, 216)
        polar.reliability_order(code.n)
        assert polar.construct.cache_info().hits == c_before + 1
        assert polar.reliability_order.cache_info().hits > r_before

    def test_sc_plan_is_compiled_once_per_frozen_mask(self):
        code = polar.construct(44, 108)
        llrs = np.ones((2, 108), dtype=np.float64)
        polar.decode_batch(llrs, code)
        before = polar._sc_plan.cache_info().hits
        polar.decode_batch(llrs, code)
        assert polar._sc_plan.cache_info().hits > before

    def test_gold_descramble_signs_hit(self):
        llrs = np.ones((3, 216), dtype=np.float64)
        descramble_llrs(llrs, c_init=0x1234)
        before = sign_cache_stats()
        descramble_llrs(llrs, c_init=0x1234)
        after = sign_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_gold_sequence_served_from_cache(self):
        first = gold_sequence(0x4242, 512)
        second = gold_sequence(0x4242, 256)
        assert np.array_equal(second, first[:256])

    def test_candidate_hash_is_memoized(self):
        coreset = Coreset(coreset_id=1, first_prb=0, n_prb=48,
                          n_symbols=1)
        space = SearchSpace(search_space_id=1, coreset=coreset,
                            is_common=False,
                            candidates_per_level={2: 2, 4: 2})
        space.candidate_cces(2, slot_index=3, rnti=0x4601)
        before = _candidate_starts.cache_info().hits
        again = space.candidate_cces(2, slot_index=3, rnti=0x4601)
        assert _candidate_starts.cache_info().hits == before + 1
        assert again == space.candidate_cces(2, slot_index=3,
                                             rnti=0x4601)


class TestSearchSpaceHashing:
    def test_equal_spaces_share_a_hash(self):
        coreset = Coreset(coreset_id=0, first_prb=0, n_prb=48,
                          n_symbols=1)
        a = SearchSpace(1, coreset, False, {2: 2, 4: 1})
        b = SearchSpace(1, coreset, False, {2: 2, 4: 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_level_order_changes_the_hash(self):
        # Plan caches key on the hash; spaces that enumerate levels in a
        # different order must not collide (their scalar iteration order
        # differs even though dict equality ignores order).
        coreset = Coreset(coreset_id=0, first_prb=0, n_prb=48,
                          n_symbols=1)
        a = SearchSpace(1, coreset, False, {2: 2, 4: 1})
        b = SearchSpace(1, coreset, False, {4: 1, 2: 2})
        assert a == b
        assert hash(a) != hash(b)
