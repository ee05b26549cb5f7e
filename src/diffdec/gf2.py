"""GF(2) linear block code algebra.

Parity-check and generator matrices, encoding, syndromes, parity-error
counts, alist file ingestion and a brute-force maximum-likelihood oracle.

Conventions used throughout the package:

* bits are 0/1 (``uint8``), BPSK maps bit 0 -> +1 and bit 1 -> -1;
* the hard decision of a real vector ``y`` is ``bin(y) = 0.5*(1 - sign(y))``
  with ``sign(0) := +1`` so that ``bin(0) = 0`` (deterministic);
* the syndrome of ``y`` is ``H @ bin(y)`` over GF(2);
* encoding, syndromes and ML decoding take batches, (B, k) messages or
  (B, n) words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floats of float64 working array up to which a batch operation runs in one
# piece (4 MiB): ML scores this many codeword correlations at a time, and
# ``bench.run_ber`` packs rounds into one decoder call up to it.
CALL_FLOATS = 2**19


class AlistFormatError(ValueError):
    """Raised when an alist file cannot be parsed or is inconsistent."""


class RankDeficiencyError(ValueError):
    """Raised when a parity-check matrix does not have full row rank."""


def as_bits(values, what: str = "bits") -> np.ndarray:
    """``values`` as uint8 (not copied if they are), each entry checked to be 0
    or 1 before the cast, which would truncate 0.5 to 0 and wrap 257 to 1."""
    raw = np.asarray(values)
    # on uint8, which encode_batch returns, one max pass is enough
    ok = raw.max(initial=0) <= 1 if raw.dtype == np.uint8 else np.isin(raw, (0, 1)).all()
    if not ok:
        raise ValueError(f"{what} must be 0 or 1")
    return raw.astype(np.uint8, copy=False)


def _as_bit_matrix(rows) -> np.ndarray:
    raw = np.asarray(rows)
    if raw.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {raw.shape}")
    return as_bits(raw, "matrix entries").copy()  # frozen later; the caller's stays writable


def _eliminate(mat: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Gauss-Jordan elimination over GF(2), pivot columns searched right to left.

    Returns the reduced rows (in their original order) and ``{pivot column:
    its row}``; the rank is the number of pivots.  Each pivot is the first
    row not yet used that has a 1 in the column, and the column is cleared
    in every other row.
    """
    work = np.array(mat, dtype=bool)
    unused = np.ones(len(work), dtype=bool)
    pivots: dict[int, int] = {}
    for col in range(work.shape[1] - 1, -1, -1):
        if not unused.any():
            break
        hits = work[:, col].copy()
        candidates = np.flatnonzero(hits & unused)
        if len(candidates) == 0:
            continue
        row = int(candidates[0])
        hits[row] = False
        work[hits] ^= work[row]
        unused[row] = False
        pivots[col] = row
    return work.astype(np.uint8), pivots


def padded_support(mask: np.ndarray, fill: int) -> np.ndarray:
    """(rows, largest row weight): each row's nonzero columns in order, then ``fill``."""
    rows, cols = np.nonzero(mask)
    weight = np.count_nonzero(mask, axis=1)
    table = np.full((len(mask), weight.max()), fill, dtype=np.intp)
    table[rows, np.arange(len(rows)) - np.repeat(np.cumsum(weight) - weight, weight)] = cols
    return table


def _gathered_parity(bits: np.ndarray, support: np.ndarray) -> np.ndarray:
    """(..., rows) uint8 parity of (..., width) 0/1 bits over each row of ``support``
    (a :func:`padded_support` table filled with ``width``, a zero column), summed
    in uint8, which wraps at 256 and so keeps the parity."""
    padded = np.concatenate([bits, np.zeros(bits.shape[:-1] + (1,), np.uint8)], axis=-1)
    return padded[..., support].sum(axis=-1, dtype=np.uint8) & 1


class ParityCheckMatrix:
    """Binary (n-k) x n parity-check matrix H with full row rank."""

    def __init__(self, rows, name: str = "") -> None:
        mat = _as_bit_matrix(rows)
        m, n = mat.shape
        if not 0 < n - m < n:
            raise ValueError(f"need 0 < k < n, got n={n}, n-k={m}")
        if (mat.sum(axis=1) == 0).any():
            raise ValueError("parity-check matrix has an all-zero row")
        if len(_eliminate(mat)[1]) != m:
            raise RankDeficiencyError(
                f"parity-check matrix rank over GF(2) is below {m} (rows dependent)")
        mat.setflags(write=False)
        self.matrix = mat
        self.n = n
        self.k = n - m
        # (m, d_c): each check's bits, padded to the largest degree with n, a zero column
        self.check_cols = padded_support(mat, n)
        self.check_cols.setflags(write=False)
        self.name = name or f"({n},{n - m})"

    @property
    def num_checks(self) -> int:
        return self.n - self.k

    def __repr__(self) -> str:
        return f"ParityCheckMatrix(n={self.n}, k={self.k}, name={self.name!r})"

    def syndrome_bits(self, hard: np.ndarray) -> np.ndarray:
        """Syndrome (..., n-k) uint8 of (..., n) 0/1 bits: each check's bits, gathered
        through ``check_cols``."""
        hard = np.asarray(hard, dtype=np.uint8)
        if hard.shape[-1] != self.n:
            raise ValueError(f"expected length-{self.n} bit vectors, got {hard.shape}")
        return _gathered_parity(hard, self.check_cols)


@dataclass(frozen=True)
class Codeword:
    """A length-n vector of 0/1 bits, frozen.  It holds no H: whether it
    satisfies H x = 0 is the caller's to know."""

    bits: np.ndarray

    def __post_init__(self):
        bits = as_bits(self.bits, "codeword bits").copy()  # frozen; the caller's stays writable
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
        # float64 copy for encode_batch: a product of 0/1 values over k terms is exact
        self._matrix_f64 = matrix.astype(np.float64)
        self._matrix_f64.setflags(write=False)
        self._codebook: np.ndarray | None = None
        if len(_eliminate(matrix)[1]) != self.k:
            raise RankDeficiencyError("generator rows are linearly dependent")
        _check_generates(matrix, H)

    def codebook(self) -> np.ndarray:
        """All 2^k codewords, row i encoding message bits m_j = (i >> j) & 1."""
        if self._codebook is None:
            idx = np.arange(1 << self.k, dtype=np.uint32)
            msgs = ((idx[:, None] >> np.arange(self.k)) & 1).astype(np.uint8)
            self._codebook = encode_batch(self, msgs)
            self._codebook.setflags(write=False)
        return self._codebook


def _check_generates(G: np.ndarray, H: ParityCheckMatrix) -> None:
    """Raise unless every row of the (k, n) bit matrix ``G`` is a codeword of
    ``H``: rows of H's length with G H^T = 0.  All 2^k codewords follow by
    linearity."""
    if G.shape[1] != H.n:
        raise ValueError(f"generator of length {G.shape[1]} for a length-{H.n} code")
    if ((G.astype(np.int64) @ H.matrix.T.astype(np.int64)) % 2).any():
        raise ValueError("generator does not annihilate H (G H^T != 0)")


def systematic_generator(H: ParityCheckMatrix) -> GeneratorMatrix:
    """Derive G from H by GF(2) Gaussian elimination with column pivoting.

    Pivots are searched right-to-left so that an H that already ends in an
    identity block yields the identity permutation.
    """
    n, k = H.n, H.k
    reduced, pivot_row_of_col = _eliminate(H.matrix)  # full rank: n-k pivots
    pivot_cols = sorted(pivot_row_of_col)
    free_cols = [c for c in range(n) if c not in pivot_row_of_col]
    perm = np.array(free_cols + pivot_cols)  # H[:, perm] = [A | I]
    ordered = reduced[[pivot_row_of_col[c] for c in pivot_cols]]
    A = ordered[:, free_cols]  # (n-k, k)
    G_std = np.concatenate([np.eye(k, dtype=np.uint8), A.T], axis=1)
    G = np.zeros((k, n), dtype=np.uint8)
    G[:, perm] = G_std
    return GeneratorMatrix(G, perm, H)


def encode_batch(G: GeneratorMatrix, messages: np.ndarray) -> np.ndarray:
    """Encode a (B, k) batch of messages to (B, n) codeword bits: each code bit is
    the parity of its message bits, the low bit of one float64 product with G,
    which counts them exactly."""
    msgs = np.asarray(messages, dtype=np.uint8)
    if msgs.ndim != 2 or msgs.shape[1] != G.k:
        raise ValueError(f"expected (B, {G.k}) messages, got shape {msgs.shape}")
    return ((msgs.astype(np.float64) @ G._matrix_f64).astype(np.int64) & 1).astype(np.uint8)


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


def syndrome_weights(H: ParityCheckMatrix, Y: np.ndarray) -> np.ndarray:
    """Parity-error counts of a (B, n) batch of real vectors."""
    return H.syndrome_bits(hard_decision(Y)).sum(axis=-1).astype(np.int64)


def ml_decode_batch(H: ParityCheckMatrix, G: GeneratorMatrix, Y: np.ndarray) -> np.ndarray:
    """Brute-force maximum-likelihood decoding of a (B, n) batch under AWGN.

    Maximizes the correlation <y, BPSK(x)> over all 2^k codewords, which is
    the ML rule for every noise level, so no sigma is needed.  Ties break
    toward the lowest codeword index in enumeration order.  Returns (B, n)
    bits.  ``G`` must generate ``H``'s code.
    """
    if G.k > 16:
        raise ValueError(f"brute-force ML limited to k <= 16, got k={G.k}")
    _check_generates(G.matrix, H)  # a generator of another code decodes to non-codewords
    Y = word_batch(Y, H.n)
    book = G.codebook()
    signs = book.astype(np.float64)  # (2^k, n): 1 - 2 * bit, built once per call
    signs *= -2.0
    signs += 1.0
    # the words are scored in slices of at most CALL_FLOATS scores (B, 2^k)
    rows = max(1, CALL_FLOATS // len(book))
    best = np.empty(len(Y), dtype=np.intp)
    for lo in range(0, len(Y), rows):
        best[lo:lo + rows] = np.argmax(Y[lo:lo + rows] @ signs.T, axis=1)  # first max = lowest index
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

    from_cols = _neighbor_matrix(parsed[4:4 + n], col_deg, m, "column", "row")
    from_rows = _neighbor_matrix(parsed[4 + n:], row_deg, n, "row", "column")
    if not np.array_equal(from_cols.T, from_rows):
        raise AlistFormatError("column and row neighbor lists disagree")
    return ParityCheckMatrix(from_rows, name=name)


def _neighbor_matrix(lists, degrees, size: int, owner: str, member: str) -> np.ndarray:
    """The 0/1 matrix of 1-based alist neighbor lists, one row per list.

    Zero entries are dropped; each list must hold as many distinct entries
    as its degree, each in 1..size."""
    mat = np.zeros((len(lists), size), dtype=np.uint8)
    for i, (listed, degree) in enumerate(zip(lists, degrees), 1):
        entries = [e for e in listed if e != 0]
        if len(entries) != degree:
            raise AlistFormatError(
                f"{owner} {i} lists {len(entries)} {member}s, degree says {degree}")
        for e in entries:
            if not 1 <= e <= size:
                raise AlistFormatError(f"{member} index {e} out of range 1..{size} in {owner} {i}")
            if mat[i - 1, e - 1]:
                raise AlistFormatError(f"{owner} {i} lists {member} {e} twice")
            mat[i - 1, e - 1] = 1
    return mat


def to_alist(H: ParityCheckMatrix) -> str:
    """Serialize H to alist text (inverse of load_alist).  Lists are unpadded; a
    bit in no check gets the neighbor list ``0``, which the reader skips."""
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
    lines += [" ".join(map(str, c)) if len(c) else "0" for c in cols]
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
