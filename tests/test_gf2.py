import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdec.channel import bpsk
from diffdec.gf2 import (AlistFormatError, ParityCheckMatrix, RankDeficiencyError, builtin_code,
                         encode, encode_batch, load_alist, ml_decode, ml_decode_batch,
                         syndrome, systematic_generator, to_alist)
from oracles import HAMMING74_ALIST, pseudo_ldpc_49_24


class TestAlist:
    def test_hamming74_text_parses_to_3x7_with_12_entries(self, ham74):
        H = load_alist(HAMMING74_ALIST)
        assert H.matrix.shape == (3, 7)
        assert int(H.matrix.sum()) == 12
        assert np.array_equal(H.matrix, ham74.matrix)

    def test_one_based_indexing_rejects_zero_column_in_row_list(self):
        bad = HAMMING74_ALIST.replace("1 2 4 5", "0 2 4 5")
        with pytest.raises(AlistFormatError):
            load_alist(bad)

    def test_dependent_rows_raise_rank_error(self):
        # r3 = r1 xor r2
        text = """\
4 3
2 2
2 2 2 0
2 2 2
1 3
1 2
2 3
0 0
1 2
2 3
1 3
"""
        with pytest.raises(RankDeficiencyError):
            load_alist(text)

    def test_degree_mismatch_fails_loudly(self):
        bad = HAMMING74_ALIST.replace("2 2 2 3 1 1 1", "2 2 2 3 1 1 2")
        with pytest.raises(AlistFormatError):
            load_alist(bad)

    def test_swapped_header_fails_loudly(self):
        bad = HAMMING74_ALIST.replace("7 3", "3 7", 1)
        with pytest.raises(AlistFormatError):
            load_alist(bad)

    def test_out_of_range_row_index(self):
        bad = HAMMING74_ALIST.replace("1 2 0", "1 4 0", 1)
        with pytest.raises(AlistFormatError):
            load_alist(bad)

    def test_roundtrip_through_writer(self):
        H = pseudo_ldpc_49_24()
        again = load_alist(to_alist(H))
        assert np.array_equal(H.matrix, again.matrix)


class TestParityCheckMatrix:
    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            ParityCheckMatrix([[1, 1, 0], [0, 0, 0]])

    @pytest.mark.parametrize("entry", [0.5, 1.5])
    def test_rejects_non_binary_entries_before_casting(self, entry):
        with pytest.raises(ValueError, match="0 or 1"):
            ParityCheckMatrix([[1, entry, 1, 0], [0, 1, 1, 1]])

    def test_rejects_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            ParityCheckMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])

    def test_packed_syndrome_matches_matmul_on_wide_code(self):
        H = pseudo_ldpc_49_24()
        rng = np.random.default_rng(1)
        bits = (rng.random((200, 49)) < 0.5).astype(np.uint8)
        ref = (bits @ H.matrix.T) % 2
        assert np.array_equal(H.syndrome_bits(bits), ref)


class TestSystematicGenerator:
    def test_hamming74_annihilates_H_for_all_16_messages(self, ham74, ham74_gen):
        for idx in range(16):
            msg = [(idx >> j) & 1 for j in range(4)]
            cw = encode(ham74_gen, msg)
            assert syndrome(ham74, bpsk(cw)).weight == 0

    def test_repetition_gives_all_ones_row(self, rep31, rep31_gen):
        assert np.array_equal(rep31_gen.matrix, [[1, 1, 1]])

    def test_identity_extended_H_keeps_identity_permutation(self, ham74):
        # built-in Hamming H is [A | I3]
        G = systematic_generator(ham74)
        assert G.permutation == tuple(range(7))

    def test_nontrivial_permutation_recorded_and_consistent(self):
        # identity block on the left forces column moves
        H = ParityCheckMatrix([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]])
        G = systematic_generator(H)
        assert sorted(G.permutation) == list(range(5))
        assert ((G.matrix @ H.matrix.T) % 2 == 0).all()

    def test_unit_messages_reencode_to_generator_rows(self, ham74):
        G = systematic_generator(ham74)
        for j in range(G.k):
            msg = np.zeros(G.k, dtype=np.uint8)
            msg[j] = 1
            assert np.array_equal(encode(G, msg).bits, G.matrix[j])


class TestEncode:
    def test_zero_message_gives_zero_codeword(self, ham74_gen):
        assert not encode(ham74_gen, [0, 0, 0, 0]).bits.any()

    def test_repetition_one_encodes_to_all_ones(self, rep31_gen):
        assert np.array_equal(encode(rep31_gen, [1]).bits, [1, 1, 1])

    def test_all_16_codewords_distinct_and_valid(self, ham74, ham74_gen):
        book = ham74_gen.codebook()
        assert len(np.unique(book, axis=0)) == 16
        assert not ham74.syndrome_bits(book).any()

    def test_length_mismatch(self, ham74_gen):
        with pytest.raises(ValueError):
            encode(ham74_gen, [1, 0])


class TestSyndrome:
    def test_bpsk_codeword_has_zero_syndrome(self, ham74, ham74_gen):
        cw = encode(ham74_gen, [1, 0, 1, 1])
        s = syndrome(ham74, bpsk(cw))
        assert s.weight == 0 and not s.bits.any()

    def test_single_flip_reads_off_H_column(self, ham74, ham74_gen):
        cw = encode(ham74_gen, [0, 1, 1, 0])
        for j in range(7):
            y = bpsk(cw).copy()
            y[j] = -y[j]
            assert np.array_equal(syndrome(ham74, y).bits, ham74.matrix[:, j])

    def test_all_positive_vector_is_zero_syndrome(self, ham74):
        assert syndrome(ham74, np.full(7, 0.25)).weight == 0

    def test_sign_zero_maps_to_bit_zero(self, ham74):
        y = np.ones(7)
        y[0] = 0.0  # bin(0) = 0 by the sign(0) = +1 policy
        assert syndrome(ham74, y).weight == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 2**31 - 1))
    def test_invariant_under_codeword_modulation(self, msg_idx, noise_seed):
        H = builtin_code("hamming74")
        G = systematic_generator(H)
        rng = np.random.default_rng(noise_seed)
        y = rng.normal(0, 1, 7)
        y[y == 0] = 0.5
        cw = G.codebook()[msg_idx]
        assert np.array_equal(syndrome(H, y * bpsk(cw)).bits, syndrome(H, y).bits)

    def test_modulation_invariance_exhaustive_on_hamming(self, ham74, ham74_gen):
        rng = np.random.default_rng(11)
        y = rng.normal(0, 1, 7)
        base = syndrome(ham74, y).bits
        for cw in ham74_gen.codebook():
            assert np.array_equal(syndrome(ham74, y * bpsk(cw)).bits, base)


class TestParityErrorCount:
    def test_zero_syndrome_counts_zero(self, ham74):
        assert syndrome(ham74, np.ones(7)).weight == 0

    def test_all_ones_syndrome_counts_n_minus_k(self, ham74, ham74_gen):
        cw = encode(ham74_gen, [0, 0, 0, 0])
        y = bpsk(cw).copy()
        y[3] = -1.0  # column 3 of H is (1,1,1)
        assert syndrome(ham74, y).weight == 3

    def test_single_flip_counts_column_weight_on_wide_code(self):
        H = pseudo_ldpc_49_24()
        y = np.ones(49)
        for j in (0, 17, 48):
            flipped = y.copy()
            flipped[j] = -1.0
            assert syndrome(H, flipped).weight == int(H.matrix[:, j].sum())


class TestMlDecode:
    def test_repetition_soft_vote(self, rep31, rep31_gen):
        out = ml_decode(rep31, rep31_gen, [0.9, -0.2, 0.3])
        assert np.array_equal(out.bits, [0, 0, 0])

    def test_exact_bpsk_recovers_codeword(self, ham74, ham74_gen):
        for idx in (0, 5, 15):
            cw = ham74_gen.codebook()[idx]
            assert np.array_equal(ml_decode(ham74, ham74_gen, bpsk(cw)).bits, cw)

    def test_small_perturbation_is_corrected(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[9]
        y = bpsk(cw).copy()
        y[2] += -0.8 * np.sign(y[2])  # keeps the sign, shrinks the margin
        assert np.array_equal(ml_decode(ham74, ham74_gen, y).bits, cw)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 100.0), st.integers(0, 2**31 - 1))
    def test_scale_invariance(self, alpha, seed):
        H = builtin_code("hamming74")
        G = systematic_generator(H)
        rng = np.random.default_rng(seed)
        y = rng.normal(0, 1, 7)
        assert np.array_equal(ml_decode(H, G, y).bits, ml_decode(H, G, alpha * y).bits)

    def test_batch_matches_single(self, ham74, ham74_gen):
        rng = np.random.default_rng(3)
        Y = rng.normal(0, 1, (64, 7))
        batch = ml_decode_batch(ham74, ham74_gen, Y)
        for i in range(64):
            assert np.array_equal(batch[i], ml_decode(ham74, ham74_gen, Y[i]).bits)

    def test_k_too_large_rejected(self):
        mat = np.zeros((2, 20), dtype=np.uint8)
        mat[0, :10] = 1
        mat[1, 9:] = 1
        H = ParityCheckMatrix(mat)  # k = 18
        with pytest.raises(ValueError):
            ml_decode_batch(H, systematic_generator(H), np.ones((1, 20)))


    @pytest.mark.parametrize("word", [[np.nan, 1.0, 1.0], [np.inf, -np.inf, 1.0]])
    def test_non_finite_word_rejected(self, rep31, rep31_gen, word):
        with pytest.raises(ValueError, match="finite"):
            ml_decode_batch(rep31, rep31_gen, np.array([word]))
        with pytest.raises(ValueError, match="finite"):
            ml_decode(rep31, rep31_gen, np.array(word))


class TestExhaustiveCodeInvariants:
    def test_every_codeword_of_every_small_code_checks_out(self):
        for name in ("rep31", "hamming74"):
            H = builtin_code(name)
            G = systematic_generator(H)
            book = G.codebook()
            assert not H.syndrome_bits(book).any()
            assert len(book) == 2 ** H.k

    def test_encode_batch_agrees_with_encode(self, ham74_gen):
        msgs = np.array([[1, 0, 0, 1], [1, 1, 1, 1]], dtype=np.uint8)
        batch = encode_batch(ham74_gen, msgs)
        for row, msg in zip(batch, msgs):
            assert np.array_equal(row, encode(ham74_gen, msg).bits)
