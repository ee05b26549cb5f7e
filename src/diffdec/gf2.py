"""GF(2) linear block code algebra.

Parity-check and generator matrices, encoding, syndromes, parity-error
counts, alist file ingestion and a brute-force maximum-likelihood oracle.

Conventions used throughout the package:

* bits are 0/1 (``uint8``), BPSK maps bit 0 -> +1 and bit 1 -> -1;
* the hard decision of a real vector ``y`` is ``bin(y) = 0.5*(1 - sign(y))``
  with ``sign(0) := +1`` so that ``bin(0) = 0`` (deterministic);
* the syndrome of ``y`` is ``H @ bin(y)`` over GF(2).

Parity-check rows are additionally kept bit-packed into 64-bit words so that
syndrome computation in the Monte-Carlo hot loops is a word-wise AND plus a
popcount (``np.bitwise_count``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AlistFormatError(ValueError):
    """Raised when an alist file cannot be parsed or is inconsistent."""


class RankDeficiencyError(ValueError):
    """Raised when a parity-check matrix does not have full row rank."""


def _as_bit_matrix(rows) -> np.ndarray:
    raw = np.asarray(rows)
    if raw.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {raw.shape}")
    # checked before the cast, which would truncate 0.5 to 0 and wrap 257 to 1
    if not np.isin(raw, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return raw.astype(np.uint8)


def _row_ints(mat: np.ndarray) -> list[int]:
    """Each row as a Python int with bit j = column j."""
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in mat]


def gf2_rank(rows: list[int], n_cols: int) -> int:
    """Rank over GF(2) via Gaussian elimination on int bitsets."""
    work = [r for r in rows if r]
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and (work[i] >> col) & 1:
                work[i] ^= work[rank]
        rank += 1
        if rank == len(work):
            break
    return rank


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 arrays along the last axis into little-endian uint64 words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    n_words = (n + 63) // 64
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (n_words * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


class ParityCheckMatrix:
    """Binary (n-k) x n parity-check matrix H with full row rank."""

    def __init__(self, rows, name: str = "") -> None:
        mat = _as_bit_matrix(rows)
        m, n = mat.shape
        if not 0 < n - m < n:
            raise ValueError(f"need 0 < k < n, got n={n}, n-k={m}")
        if (mat.sum(axis=1) == 0).any():
            raise ValueError("parity-check matrix has an all-zero row")
        ints = _row_ints(mat)
        if gf2_rank(ints, n) != m:
            raise RankDeficiencyError(
                f"parity-check matrix rank over GF(2) is below {m} (rows dependent)")
        mat.setflags(write=False)
        self.matrix = mat
        self.n = n
        self.k = n - m
        self.row_ints = tuple(ints)
        self._packed = pack_bits(mat)  # (m, words) uint64
        self._packed.setflags(write=False)
        self.name = name or f"({n},{n - m})"

    @property
    def num_checks(self) -> int:
        return self.n - self.k

    def __repr__(self) -> str:
        return f"ParityCheckMatrix(n={self.n}, k={self.k}, name={self.name!r})"

    def syndrome_bits(self, hard: np.ndarray) -> np.ndarray:
        """Syndrome of hard-decision bit vectors.

        ``hard`` has shape (..., n); returns 0/1 uint8 of shape (..., n-k).
        Uses the packed-word popcount path.
        """
        hard = np.asarray(hard, dtype=np.uint8)
        if hard.shape[-1] != self.n:
            raise ValueError(f"expected length-{self.n} bit vectors, got {hard.shape}")
        y_words = pack_bits(hard)  # (..., W)
        anded = self._packed[(np.newaxis,) * (y_words.ndim - 1)] & y_words[..., np.newaxis, :]
        counts = np.bitwise_count(anded).sum(axis=-1)
        return (counts & 1).astype(np.uint8)


@dataclass(frozen=True)
class Syndrome:
    """Syndrome bits plus their Hamming weight (the parity-error count)."""

    bits: np.ndarray

    @property
    def weight(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class Codeword:
    """A length-n bit vector satisfying H x = 0 for its code."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)


class GeneratorMatrix:
    """k x n generator G with G H^T = 0, plus the column permutation used.

    ``permutation[j]`` is the H-column placed at position j of the systematic
    form ``[A | I]``; it is the identity whenever H already ends in an
    identity block.
    """

    def __init__(self, matrix: np.ndarray, permutation: np.ndarray, H: ParityCheckMatrix):
        matrix = _as_bit_matrix(matrix)
        matrix.setflags(write=False)
        self.matrix = matrix
        self.permutation = tuple(int(p) for p in permutation)
        self.k, self.n = matrix.shape
        self._H = H
        self._codebook: np.ndarray | None = None
        if gf2_rank(_row_ints(matrix), self.n) != self.k:
            raise RankDeficiencyError("generator rows are linearly dependent")
        # G H^T = 0 checked exhaustively over every generator row; all 2^k
        # codewords follow by linearity.
        if ((matrix.astype(np.int64) @ H.matrix.T.astype(np.int64)) % 2).any():
            raise ValueError("generator does not annihilate H (G H^T != 0)")

    def codebook(self) -> np.ndarray:
        """All 2^k codewords, row i encoding message bits m_j = (i >> j) & 1."""
        if self._codebook is None:
            idx = np.arange(1 << self.k, dtype=np.uint32)
            msgs = ((idx[:, None] >> np.arange(self.k)) & 1).astype(np.uint8)
            self._codebook = (msgs @ self.matrix) % 2
            self._codebook.setflags(write=False)
        return self._codebook


def systematic_generator(H: ParityCheckMatrix) -> GeneratorMatrix:
    """Derive G from H by GF(2) Gaussian elimination with column pivoting.

    Pivots are searched right-to-left so that an H that already ends in an
    identity block yields the identity permutation.
    """
    m, n = H.matrix.shape
    rows = list(H.row_ints)
    pivot_row_of_col: dict[int, int] = {}
    assigned: set[int] = set()
    for col in range(n - 1, -1, -1):
        pivot = next((r for r in range(m) if r not in assigned and (rows[r] >> col) & 1), None)
        if pivot is None:
            continue
        for r in range(m):
            if r != pivot and (rows[r] >> col) & 1:
                rows[r] ^= rows[pivot]
        assigned.add(pivot)
        pivot_row_of_col[col] = pivot
        if len(assigned) == m:
            break
    if len(assigned) < m:
        raise RankDeficiencyError("parity-check matrix is rank deficient")

    pivot_cols = sorted(pivot_row_of_col)
    free_cols = [c for c in range(n) if c not in pivot_row_of_col]
    perm = np.array(free_cols + pivot_cols)  # H[:, perm] = [A | I]
    reduced = np.array(
        [[(rows[r] >> c) & 1 for c in range(n)] for r in range(m)], dtype=np.uint8)
    ordered = reduced[[pivot_row_of_col[c] for c in pivot_cols]]
    A = ordered[:, free_cols]  # (m, k)
    k = n - m
    G_std = np.concatenate([np.eye(k, dtype=np.uint8), A.T], axis=1)
    G = np.zeros((k, n), dtype=np.uint8)
    G[:, perm] = G_std
    return GeneratorMatrix(G, perm, H)


def encode(G: GeneratorMatrix, message) -> Codeword:
    """Encode a length-k message: x = m G over GF(2)."""
    msg = np.asarray(message, dtype=np.uint8)
    if msg.shape != (G.k,):
        raise ValueError(f"expected a length-{G.k} message, got shape {msg.shape}")
    return Codeword(encode_batch(G, msg[None, :])[0])


def encode_batch(G: GeneratorMatrix, messages: np.ndarray) -> np.ndarray:
    """Encode a (B, k) batch of messages to (B, n) codeword bits."""
    msgs = np.asarray(messages, dtype=np.uint8)
    if msgs.ndim != 2 or msgs.shape[1] != G.k:
        raise ValueError(f"expected (B, {G.k}) messages, got shape {msgs.shape}")
    return (msgs @ G.matrix) % 2


def hard_decision(y: np.ndarray) -> np.ndarray:
    """bin(y) = 0.5*(1 - sign(y)) with sign(0) := +1."""
    return (np.asarray(y) < 0).astype(np.uint8)


def word_batch(Y, n: int) -> np.ndarray:
    """Check that ``Y`` is a (B, n) batch of finite reals; return it as float64, uncopied."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != n:
        raise ValueError(f"expected (B, {n}) words, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("received words must be finite (found inf or nan)")
    return Y


def single_word(y, n: int) -> np.ndarray:
    """Check that ``y`` is one finite length-n real word; return it as a (1, n) batch."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"expected a length-{n} word, got shape {y.shape}")
    return word_batch(y[None, :], n)


def syndrome(H: ParityCheckMatrix, y) -> Syndrome:
    """Syndrome of a real received vector: H bin(y) over GF(2)."""
    bits = H.syndrome_bits(hard_decision(single_word(y, H.n)))[0]
    bits.setflags(write=False)
    return Syndrome(bits)


def syndrome_weights(H: ParityCheckMatrix, Y: np.ndarray) -> np.ndarray:
    """Parity-error counts of a (B, n) batch of real vectors."""
    return H.syndrome_bits(hard_decision(Y)).sum(axis=-1).astype(np.int64)


def ml_decode(H: ParityCheckMatrix, G: GeneratorMatrix, y) -> Codeword:
    """Brute-force maximum-likelihood decoding of one word; see ml_decode_batch."""
    return Codeword(ml_decode_batch(H, G, single_word(y, H.n))[0])


def ml_decode_batch(H: ParityCheckMatrix, G: GeneratorMatrix, Y: np.ndarray) -> np.ndarray:
    """Brute-force maximum-likelihood decoding of a (B, n) batch under AWGN.

    Maximizes the correlation <y, BPSK(x)> over all 2^k codewords, which is
    the ML rule for every noise level, so no sigma is needed.  Ties break
    toward the lowest codeword index in enumeration order.  Returns (B, n)
    bits.
    """
    if G.k > 16:
        raise ValueError(f"brute-force ML limited to k <= 16, got k={G.k}")
    book = G.codebook()
    signs = 1.0 - 2.0 * book.astype(np.float64)  # (2^k, n)
    scores = word_batch(Y, H.n) @ signs.T  # (B, 2^k)
    best = np.argmax(scores, axis=1)  # first max = lowest index
    return book[best]


# ---------------------------------------------------------------------------
# alist ingestion (1-based indices, zero padding tolerated)
# ---------------------------------------------------------------------------

def load_alist(text: str, name: str = "") -> ParityCheckMatrix:
    """Parse alist-format text into a ParityCheckMatrix.

    Layout: line 1 ``n m`` (m = n-k rows); line 2 max column / row degrees;
    then per-column degrees, per-row degrees, per-column neighbor lists and
    per-row neighbor lists, one line each, 1-based, zero entries ignored.
    The column and row neighbor lists are cross-checked against each other
    and against the degree lists, so swapped headers fail loudly.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.split()]
    try:
        parsed = [[int(t) for t in ln] for ln in lines]
    except ValueError as exc:
        raise AlistFormatError(f"non-integer token in alist: {exc}") from None
    if len(parsed) < 4:
        raise AlistFormatError("truncated alist: fewer than 4 non-empty lines")
    if len(parsed[0]) != 2 or len(parsed[1]) != 2:
        raise AlistFormatError("alist header lines must each hold two integers")
    n, m = parsed[0]
    max_col, max_row = parsed[1]
    if n <= 0 or m <= 0:
        raise AlistFormatError(f"non-positive dimensions n={n}, m={m}")
    if len(parsed) != 4 + n + m:
        raise AlistFormatError(
            f"expected {4 + n + m} non-empty lines for n={n}, m={m}, got {len(parsed)}")
    col_deg, row_deg = parsed[2], parsed[3]
    if len(col_deg) != n or len(row_deg) != m:
        raise AlistFormatError("degree line lengths do not match the header dimensions")
    if max(col_deg) > max_col or max(row_deg) > max_row:
        raise AlistFormatError("degree list exceeds declared maximum degree")

    mat = np.zeros((m, n), dtype=np.uint8)
    for col in range(n):
        entries = [e for e in parsed[4 + col] if e != 0]
        if len(entries) != col_deg[col]:
            raise AlistFormatError(
                f"column {col + 1} lists {len(entries)} rows, degree says {col_deg[col]}")
        for e in entries:
            if not 1 <= e <= m:
                raise AlistFormatError(f"row index {e} out of range 1..{m} in column {col + 1}")
            mat[e - 1, col] = 1
    from_rows = np.zeros((m, n), dtype=np.uint8)
    for row in range(m):
        entries = [e for e in parsed[4 + n + row] if e != 0]
        if len(entries) != row_deg[row]:
            raise AlistFormatError(
                f"row {row + 1} lists {len(entries)} columns, degree says {row_deg[row]}")
        for e in entries:
            if not 1 <= e <= n:
                raise AlistFormatError(f"column index {e} out of range 1..{n} in row {row + 1}")
            from_rows[row, e - 1] = 1
    if not np.array_equal(mat, from_rows):
        raise AlistFormatError("column and row neighbor lists disagree")
    return ParityCheckMatrix(mat, name=name)


def to_alist(H: ParityCheckMatrix) -> str:
    """Serialize H to alist text (inverse of load_alist, no padding)."""
    mat = H.matrix
    m, n = mat.shape
    cols = [np.flatnonzero(mat[:, c]) + 1 for c in range(n)]
    rows = [np.flatnonzero(mat[r]) + 1 for r in range(m)]
    lines = [
        f"{n} {m}",
        f"{max(len(c) for c in cols)} {max(len(r) for r in rows)}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rows),
    ]
    lines += [" ".join(map(str, c)) for c in cols]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in codes
# ---------------------------------------------------------------------------

def repetition_3_1() -> ParityCheckMatrix:
    """(3,1) repetition code: G = (1,1,1)."""
    return ParityCheckMatrix([[1, 1, 0], [1, 0, 1]], name="rep31")


def hamming_7_4() -> ParityCheckMatrix:
    """Hamming(7,4) in systematic form [A | I3]."""
    return ParityCheckMatrix(
        [[1, 1, 0, 1, 1, 0, 0],
         [1, 0, 1, 1, 0, 1, 0],
         [0, 1, 1, 1, 0, 0, 1]],
        name="hamming74")


BUILTIN_CODES = {"rep31": repetition_3_1, "hamming74": hamming_7_4}


def builtin_code(name: str) -> ParityCheckMatrix:
    try:
        return BUILTIN_CODES[name]()
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; built-ins: {sorted(BUILTIN_CODES)}") from None
