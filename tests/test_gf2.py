import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffdec.gf2 as gf2
from diffdec.bench import StopRule, run_ber
from diffdec.channel import bpsk
from diffdec.gf2 import (AlistFormatError, GeneratorMatrix, ParityCheckMatrix,
                         RankDeficiencyError, builtin_code, encode_batch, hard_decision,
                         load_alist, ml_decode_batch, syndrome_weights, systematic_generator,
                         to_alist)
from conftest import peak_traced_bytes
from oracles import HAMMING74_ALIST, codes, pseudo_ldpc_49_24, regular_ldpc


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

    @pytest.mark.parametrize("edits, repeat", [
        # column 1 names row 1 twice; row 2 leaves column 1 out, so the lists agree
        ((("4 4 4", "4 3 4"), ("1 2 0", "1 1 0"), ("1 3 4 6", "3 4 6")), "column 1 lists row 1"),
        # row 1 names column 1 twice; column 2 leaves row 1 out
        ((("2 2 2 3 1 1 1", "2 1 2 3 1 1 1"), ("1 3 0", "3 0 0"), ("1 2 4 5", "1 1 4 5")),
         "row 1 lists column 1"),
    ], ids=["column", "row"])
    def test_repeated_index_rejected(self, edits, repeat):
        bad = HAMMING74_ALIST
        for old, new in edits:
            assert bad.count(old) == 1
            bad = bad.replace(old, new)
        with pytest.raises(AlistFormatError, match=f"{repeat} twice"):
            load_alist(bad)

    def test_roundtrip_through_writer(self):
        H = pseudo_ldpc_49_24()
        again = load_alist(to_alist(H))
        assert np.array_equal(H.matrix, again.matrix)

    def test_bit_in_no_check_roundtrips(self):
        H = ParityCheckMatrix([[0, 1, 1, 0], [0, 0, 1, 1]])
        text = to_alist(H)
        assert text.splitlines()[4] == "0"
        assert np.array_equal(load_alist(text).matrix, H.matrix)

    @settings(max_examples=60, deadline=None)
    @given(codes())
    def test_roundtrip_through_writer_on_random_codes(self, code_and_rng):
        H = code_and_rng[0]
        assert np.array_equal(load_alist(to_alist(H)).matrix, H.matrix)


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

    def test_gathered_syndrome_matches_matmul_on_wide_code(self):
        H = pseudo_ldpc_49_24()
        rng = np.random.default_rng(1)
        bits = (rng.random((200, 49)) < 0.5).astype(np.uint8)
        ref = (bits @ H.matrix.T) % 2
        assert np.array_equal(H.syndrome_bits(bits), ref)

    def test_syndrome_of_a_check_over_more_than_255_bits(self):
        # the per-check sum is uint8 and wraps at 256, which keeps its parity
        H = ParityCheckMatrix([[1] * 299 + [0], [0] * 299 + [1]])
        bits = np.zeros((3, 300), dtype=np.uint8)
        bits[0, :256] = 1
        bits[1, :257] = 1
        bits[2, :] = 1
        assert np.array_equal(H.syndrome_bits(bits), [[0, 0], [1, 0], [1, 1]])

    @settings(max_examples=60, deadline=None)
    @given(codes(), st.integers(1, 5), st.integers(1, 4))
    def test_syndrome_bits_equals_matmul_mod_two(self, code_and_rng, words, candidates):
        H, rng = code_and_rng
        for shape in ((words, H.n), (words, candidates, H.n)):
            bits = rng.integers(0, 2, shape, dtype=np.uint8)
            out = H.syndrome_bits(bits)
            assert out.dtype == np.uint8
            assert np.array_equal(out, (bits.astype(np.int64) @ H.matrix.T) % 2)


class TestSystematicGenerator:
    def test_hamming74_annihilates_H_for_all_16_messages(self, ham74, ham74_gen):
        msgs = ((np.arange(16)[:, None] >> np.arange(4)) & 1).astype(np.uint8)
        assert not syndrome_weights(ham74, bpsk(encode_batch(ham74_gen, msgs))).any()

    def test_generator_of_another_code_rejected(self, ham74, rep31):
        G = systematic_generator(ham74)
        with pytest.raises(ValueError, match="annihilate"):
            GeneratorMatrix(G.matrix[:, ::-1], G.permutation, ham74)
        with pytest.raises(ValueError, match="length 7 for a length-3 code"):
            GeneratorMatrix(G.matrix, G.permutation, rep31)

    def test_repetition_gives_all_ones_row(self, rep31, rep31_gen):
        assert np.array_equal(rep31_gen.matrix, [[1, 1, 1]])

    def test_identity_extended_H_keeps_identity_permutation(self, ham74):
        # built-in Hamming H is [A | I3]
        G = systematic_generator(ham74)
        assert G.permutation == tuple(range(7))

    def test_nontrivial_permutation_recorded_and_consistent(self):
        # pivots are searched right to left, so columns 3 and 4 take the
        # pivots despite the identity block on the left
        H = ParityCheckMatrix([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]])
        G = systematic_generator(H)
        assert sorted(G.permutation) == list(range(5))
        assert ((G.matrix @ H.matrix.T) % 2 == 0).all()
        assert G.permutation == (0, 1, 2, 3, 4)
        assert G.matrix.tolist() == [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 1, 1]]

    def test_pseudo_ldpc_generator_and_permutation_pinned(self):
        # pivots searched right to left fix the permutation and the reduced form
        G = systematic_generator(pseudo_ldpc_49_24())
        assert G.permutation == (*range(18), 19, 20, 22, 25, 29, 31,
                                 18, 21, 23, 24, 26, 27, 28, 30, *range(32, 49))
        assert G.matrix.shape == (24, 49)
        assert hashlib.sha256(G.matrix.tobytes()).hexdigest() == \
            "1b68f84c5cd84e441931d24ccfc52bc4f9dd4aea6da831984891a0424153a0fe"

    def test_unit_messages_reencode_to_generator_rows(self, ham74):
        G = systematic_generator(ham74)
        assert np.array_equal(encode_batch(G, np.eye(G.k, dtype=np.uint8)), G.matrix)


class TestEncode:
    def test_zero_message_gives_zero_codeword(self, ham74_gen):
        assert not encode_batch(ham74_gen, [[0, 0, 0, 0]]).any()

    def test_repetition_one_encodes_to_all_ones(self, rep31_gen):
        assert np.array_equal(encode_batch(rep31_gen, [[1]]), [[1, 1, 1]])

    def test_all_16_codewords_distinct_and_valid(self, ham74, ham74_gen):
        book = ham74_gen.codebook()
        assert len(np.unique(book, axis=0)) == 16
        assert not ham74.syndrome_bits(book).any()

    def test_ldpc128_and_a_k16_codebook_equal_matmul_mod_two(self):
        # the float64 product counts up to 64 ones per code bit on a (128, 64) code
        # and 16 over a k = 16 codebook, exactly, so its low bit is the parity
        G = systematic_generator(regular_ldpc(128, 3, 6, seed=0))
        msgs = np.random.default_rng(55).integers(0, 2, (512, G.k), dtype=np.uint8)
        msgs[0] = 1  # every message bit set
        cases = [(G, msgs, encode_batch(G, msgs))]
        A = np.random.default_rng(56).integers(0, 2, (4, 16), dtype=np.uint8)
        G = systematic_generator(ParityCheckMatrix(np.hstack([A, np.eye(4, dtype=np.uint8)])))
        every = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(np.uint8)
        cases.append((G, every, G.codebook()))
        for G, msgs, got in cases:
            assert got.dtype == np.uint8
            assert np.array_equal(got, (msgs.astype(np.int64) @ G.matrix) % 2)

    def test_length_mismatch(self, ham74_gen):
        for msgs in ([[1, 0]], [1, 0, 1, 1]):  # a short message; one message, not a batch
            with pytest.raises(ValueError, match="messages"):
                encode_batch(ham74_gen, msgs)


class TestSyndrome:
    def test_bpsk_codeword_has_zero_syndrome(self, ham74, ham74_gen):
        y = bpsk(encode_batch(ham74_gen, [[1, 0, 1, 1]]))
        assert not ham74.syndrome_bits(hard_decision(y)).any()
        assert syndrome_weights(ham74, y).tolist() == [0]

    def test_single_flip_reads_off_H_column(self, ham74, ham74_gen):
        Y = np.tile(bpsk(encode_batch(ham74_gen, [[0, 1, 1, 0]])), (7, 1))
        Y[np.arange(7), np.arange(7)] *= -1.0  # word j flips bit j
        assert np.array_equal(ham74.syndrome_bits(hard_decision(Y)), ham74.matrix.T)

    def test_all_positive_vector_is_zero_syndrome(self, ham74):
        assert syndrome_weights(ham74, np.full((1, 7), 0.25)).tolist() == [0]

    def test_sign_zero_maps_to_bit_zero(self, ham74):
        y = np.ones((1, 7))
        y[0, 0] = 0.0  # bin(0) = 0 by the sign(0) = +1 policy
        assert syndrome_weights(ham74, y).tolist() == [0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 2**31 - 1))
    def test_invariant_under_codeword_modulation(self, msg_idx, noise_seed):
        H = builtin_code("hamming74")
        G = systematic_generator(H)
        rng = np.random.default_rng(noise_seed)
        y = rng.normal(0, 1, (1, 7))
        y[y == 0] = 0.5
        cw = G.codebook()[msg_idx]
        assert np.array_equal(H.syndrome_bits(hard_decision(y * bpsk(cw))),
                              H.syndrome_bits(hard_decision(y)))

    def test_modulation_invariance_exhaustive_on_hamming(self, ham74, ham74_gen):
        rng = np.random.default_rng(11)
        y = rng.normal(0, 1, 7)
        base = ham74.syndrome_bits(hard_decision(y[None, :]))
        mod = ham74.syndrome_bits(hard_decision(y * bpsk(ham74_gen.codebook())))
        assert np.array_equal(mod, np.repeat(base, 16, axis=0))


class TestParityErrorCount:
    def test_zero_syndrome_counts_zero(self, ham74):
        assert syndrome_weights(ham74, np.ones((1, 7))).tolist() == [0]

    def test_all_ones_syndrome_counts_n_minus_k(self, ham74, ham74_gen):
        y = bpsk(encode_batch(ham74_gen, [[0, 0, 0, 0]]))
        y[0, 3] = -1.0  # column 3 of H is (1,1,1)
        assert syndrome_weights(ham74, y).tolist() == [3]

    def test_single_flip_counts_column_weight_on_wide_code(self):
        H = pseudo_ldpc_49_24()
        cols = [0, 17, 48]
        Y = np.ones((3, 49))
        Y[np.arange(3), cols] = -1.0  # word i flips bit cols[i]
        assert np.array_equal(syndrome_weights(H, Y), H.matrix[:, cols].sum(axis=0))


class TestMlDecode:
    def test_repetition_soft_vote(self, rep31, rep31_gen):
        out = ml_decode_batch(rep31, rep31_gen, [[0.9, -0.2, 0.3]])
        assert np.array_equal(out, [[0, 0, 0]])

    def test_exact_bpsk_recovers_codeword(self, ham74, ham74_gen):
        book = ham74_gen.codebook()[[0, 5, 15]]
        assert np.array_equal(ml_decode_batch(ham74, ham74_gen, bpsk(book)), book)

    def test_small_perturbation_is_corrected(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[9:10]
        y = bpsk(cw)
        y[0, 2] += -0.8 * np.sign(y[0, 2])  # keeps the sign, shrinks the margin
        assert np.array_equal(ml_decode_batch(ham74, ham74_gen, y), cw)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 100.0), st.integers(0, 2**31 - 1))
    def test_scale_invariance(self, alpha, seed):
        H = builtin_code("hamming74")
        G = systematic_generator(H)
        rng = np.random.default_rng(seed)
        y = rng.normal(0, 1, (1, 7))
        assert np.array_equal(ml_decode_batch(H, G, y), ml_decode_batch(H, G, alpha * y))

    def test_batch_matches_single(self, ham74, ham74_gen):
        rng = np.random.default_rng(3)
        Y = rng.normal(0, 1, (64, 7))
        batch = ml_decode_batch(ham74, ham74_gen, Y)
        for i in range(64):
            assert np.array_equal(batch[i:i + 1], ml_decode_batch(ham74, ham74_gen, Y[i:i + 1]))

    @settings(max_examples=40, deadline=None)
    @given(codes(), st.integers(1, 40), st.integers(1, 5))
    def test_sliced_scores_equal_one_slice_decode(self, code_and_rng, words, rows):
        H, rng = code_and_rng
        G = systematic_generator(H)
        Y = rng.normal(0, 1, (words, H.n))
        with mock.patch.object(gf2, "CALL_FLOATS", 2**62):
            whole = ml_decode_batch(H, G, Y)
        with mock.patch.object(gf2, "CALL_FLOATS", rows << G.k):  # `rows` words per slice
            assert np.array_equal(ml_decode_batch(H, G, Y), whole)

    def test_k16_round_holds_at_most_call_floats_scores(self):
        # a round of 1024 words held 1024 * 2^16 scores (512 MiB) in one piece
        A = np.random.default_rng(20).integers(0, 2, (4, 16), dtype=np.uint8)
        H = ParityCheckMatrix(np.concatenate([A, np.eye(4, dtype=np.uint8)], axis=1))
        stop = StopRule(min_words=1024, min_error_frames=0, max_words=1024)
        peak = peak_traced_bytes(lambda: run_ber("ml", H, [4.0], stop, seed=1, batch_size=1024))
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_k_too_large_rejected(self):
        mat = np.zeros((2, 20), dtype=np.uint8)
        mat[0, :10] = 1
        mat[1, 9:] = 1
        H = ParityCheckMatrix(mat)  # k = 18
        with pytest.raises(ValueError):
            ml_decode_batch(H, systematic_generator(H), np.ones((1, 20)))


    def test_generator_of_another_code_rejected(self, ham74, rep31_gen):
        # another (7,4) code: its codewords fail Hamming's checks, and ML over
        # them returned non-codewords without an error
        other = ParityCheckMatrix([[1, 0, 1, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1, 0],
                                   [1, 1, 1, 0, 0, 0, 1]])
        Y = np.ones((2, 7))
        with pytest.raises(ValueError, match="annihilate"):
            ml_decode_batch(ham74, systematic_generator(other), Y)
        with pytest.raises(ValueError, match="length 3 for a length-7 code"):
            ml_decode_batch(ham74, rep31_gen, Y)

    @pytest.mark.parametrize("word", [[np.nan, 1.0, 1.0], [np.inf, -np.inf, 1.0]])
    def test_non_finite_word_rejected(self, rep31, rep31_gen, word):
        with pytest.raises(ValueError, match="finite"):
            ml_decode_batch(rep31, rep31_gen, np.array([word]))


class TestExhaustiveCodeInvariants:
    def test_every_codeword_of_every_small_code_checks_out(self):
        for name in ("rep31", "hamming74"):
            H = builtin_code(name)
            G = systematic_generator(H)
            book = G.codebook()
            assert not H.syndrome_bits(book).any()
            assert len(book) == 2 ** H.k

    @settings(max_examples=60, deadline=None)
    @given(codes(), st.integers(0, 40))
    def test_encode_batch_equals_matmul_mod_two(self, code_and_rng, batch):
        H, rng = code_and_rng
        G = systematic_generator(H)
        msgs = rng.integers(0, 2, size=(batch, G.k), dtype=np.uint8)
        got = encode_batch(G, msgs)
        assert got.dtype == np.uint8
        assert np.array_equal(got, (msgs.astype(np.int64) @ G.matrix) % 2)
