"""Mixed-radix Gray codes, and the product of blocks along them that gives
the path/cycle CFFs.

A code over radices (m_1, ..., m_k) lists tuples of Z_{m_1} x ... x Z_{m_k}
with consecutive tuples at Hamming distance one.  Reflected codes alternate
the direction of the tail recursion; in the modular code over q^k words digit
j of word w is (w // q^(k-1-j) - w // q^(k-j)) mod q, so each step increments
one digit mod q.  `product_matrix` gives word D the union of the columns
B_i(d_i) of blocks B_1, ..., B_k, each block on its own rows; over identity
blocks that is the paper's transversal subset {f_i + d_i}, where f_i, read
through `firsts`, is the first ground element of radix i's rows.  If each
B_i is a G_i-CFF and no G_i has an isolated vertex, the product is a CFF of
the Cartesian product G_1 x ... x G_k.  A Gray code over the blocks' column
counts is a Hamiltonian path of P_{m_1} x ... x P_{m_k}, so path-CFF blocks
along it give a path-CFF, and a cycle-CFF if the code is cyclic and the
leading block is I_2.

One rule, `_interval`, builds the path/cycle CFF: n in (2*3^(k-1), 3^k],
(3^k, 4*3^(k-1)] or (4*3^(k-1), 2*3^k] takes modular 3^k, reflected
(2, 2, 3^(k-1)) or reflected (2, 3^k), with 3k, 3k+1 or 3k+2 radix symbols
(rows), and `shorten` deletes words 1, 4, 7, ... down to the interval's least n.

Codes are held digit-major: `array` has shape (N, k), one row per word, but
its uint8 memory is Fortran-ordered, so the N values of each digit sit next to
each other.  The predicates work on whole arrays, never a word at a time: they
compare and count over the digit rows, and rank all N words in one `einsum`
against the radices' place values.  With k small (at most 12 in the
criterion-1 sweep) a word-major layout would run numpy's inner loops over a
handful of bytes per word.  `MixedRadixCode` states
the layout, and validates the array, once for every constructor; the `words`
view materializes tuples on demand.

A code's one-step fact, whether each pair of consecutive words differs in
exactly one digit, is computed once, from its own words, and cached as
`MixedRadixCode.one_step`: `is_gray` returns it, `is_cyclic` reads it after
the O(k) wrap pair, and `shorten`'s self-check fills it for the code it
returns.  It cannot go stale, because the dataclass is frozen and its array
read-only; nothing is taken from `kind` or from how the code was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, combinations
from math import prod
from operator import mul

import numpy as np

from .core import GROUND_CAP, IncidenceMatrix
from .errors import InvalidInputError, ResourceLimitError

#: Refuse to materialize codes beyond this many words.
MAX_WORDS = 1 << 20
#: The Hamming maximality check compares all pairs, so it refuses longer codes.
MAXIMALITY_WORDS = 256

Word = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MixedRadixCode:
    radices: tuple[int, ...]
    array: np.ndarray  # (N, k) uint8, one row per codeword, Fortran-ordered
    kind: str  # "reflected" | "modular" | "shortened"

    def __post_init__(self) -> None:
        _check_radices(self.radices)
        array = _digit_major(self.radices, self.array)
        # read-only, so an in-place write cannot leave the cached words stale
        array.setflags(write=False)
        object.__setattr__(self, "array", array)

    def __len__(self) -> int:
        return self.array.shape[0]

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(tuple(row) for row in self.array.tolist())

    @cached_property
    def one_step(self) -> bool:
        """Do consecutive words differ in exactly one digit?"""
        return _one_step(self.array)


def _check_radices(radices: tuple[int, ...]) -> None:
    if not radices or min(radices) < 2:
        raise InvalidInputError(f"every radix must be >= 2, got {radices}")
    if max(radices) > 255:
        raise InvalidInputError("radices beyond 255 are not supported")


def _code_size(radices: tuple[int, ...]) -> int:
    """Words in the full code over `radices`, refused beyond MAX_WORDS."""
    _check_radices(radices)
    n = prod(radices)
    if n > MAX_WORDS:
        raise ResourceLimitError(f"code would have {n} words (cap {MAX_WORDS})")
    return n


def _digit_major(radices: tuple[int, ...], words) -> np.ndarray:
    """A digit-major copy of the (N, len(radices)) integer array `words`, in
    the smallest unsigned type that holds the largest radix (uint8 for codes).

    Digits must fit that type; a digit at or above its radix is kept, for
    the predicates to report.  The copy is the caller's own, so later writes
    to `words` do not reach it.
    """
    a = np.asarray(words)
    if a.ndim != 2 or a.shape[1] != len(radices):
        raise InvalidInputError(
            f"words must form an (N, {len(radices)}) array, got shape {a.shape}")
    dtype = np.min_scalar_type(max(radices))
    if a.dtype.kind not in "ui" or (a.dtype != dtype and a.size and (
            a.min() < 0 or a.max() > np.iinfo(dtype).max)):
        raise InvalidInputError(f"digits must be integers in 0..{np.iinfo(dtype).max}")
    return np.array(a, dtype=dtype, order="F")


def reflected(radices) -> MixedRadixCode:
    """Reflected Gray code: digit j prepends the tail forward if j is even,
    reversed if odd, so the first word is all zeros.

    Built one digit row at a time.  The words over radices[:i] cut the code
    into c blocks of m * n words, m = radices[i]; in each block digit i takes
    the values 0..m-1 for n words each, rising in even blocks and falling in
    odd ones, because consecutive blocks differ in an earlier digit and
    digit i holds still across their boundary.  So the row repeats a period
    of 2 * m * n words, the radix's zigzag 0..m-1, m-1..0 with each value
    held n times: one broadcast assignment writes its c // 2 whole periods,
    and an odd c adds the rising half.
    """
    radices = tuple(map(int, radices))
    size = _code_size(radices)
    digits = np.empty((len(radices), size), dtype=np.uint8)
    c = 1  # words of the code over radices[:i]
    for row, m in zip(digits, radices):
        period = _zigzag(m).repeat(size // (c * m))
        whole = c // 2 * period.size
        row[:whole].reshape(-1, period.size)[:] = period
        if c % 2:
            row[whole:] = period[:period.size // 2]
        c *= m
    return MixedRadixCode(radices, digits.T, "reflected")


@cache
def _zigzag(m: int) -> np.ndarray:
    """0..m-1 then m-1..0 as uint8, read-only: one copy per radix, shared by
    every `reflected` build."""
    up = np.arange(m, dtype=np.uint8)
    zigzag = np.concatenate((up, up[::-1]))
    zigzag.setflags(write=False)
    return zigzag


def modular(q: int, k: int) -> MixedRadixCode:
    """Modular Gray code over q^k words: after prefix word i the appended
    digit r = 0..q-1 reads (r - i) mod q.  In closed form digit j of word w
    is (p - p // q) mod q with p = w // q^(k-1-j), so each digit row is
    written, one at a time, from its q^(j+1) prefix values."""
    if q < 2 or k < 1:
        raise InvalidInputError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    radices = (q,) * k
    digits = np.empty((k, _code_size(radices)), dtype=np.uint8)
    for j, row in enumerate(digits):
        p = np.arange(q ** (j + 1))
        row.reshape(p.size, -1)[:] = ((p - p // q) % q)[:, None]
    return MixedRadixCode(radices, digits.T, "modular")


def _one_step(a: np.ndarray) -> bool:
    """The one-step rule on an (N, k) digit array: every consecutive pair
    of rows differs in exactly one digit."""
    if a.shape[0] < 2:
        return True
    changed = (a[1:] != a[:-1]).view(np.uint8)
    counts = np.einsum("ij->i", changed, dtype=np.min_scalar_type(a.shape[1]))
    return bool((counts == 1).all())


def is_gray(code: MixedRadixCode) -> bool:
    """Do consecutive words differ in exactly one digit?  The code's cached
    `one_step`."""
    return code.one_step


def is_cyclic(code: MixedRadixCode) -> bool:
    """Gray, and the wrap pair (last, first) is also at Hamming distance 1.

    Single-radix codes are trivially cyclic: (0) and (m-1) differ in their
    one coordinate.  The even-first-radix criterion for reflected codes
    applies from two radices up.  The O(k) wrap pair is tested first, then
    the cached `one_step` read.
    """
    a = code.array
    if a.shape[0] < 2:
        return False
    return int(np.count_nonzero(a[0] != a[-1])) == 1 and code.one_step


def _in_box(radices: tuple[int, ...], words: np.ndarray) -> bool:
    """Is every digit of the (N, k) unsigned array `words` below its radix?"""
    return not (words >= np.array(radices, dtype=words.dtype)).any()


def _ranks(radices: tuple[int, ...], words: np.ndarray) -> np.ndarray:
    """Mixed-radix ranks of in-box words (most significant digit first): one
    `einsum` of the (N, k) words against the place values prod(radices[j+1:]),
    in the smallest type that holds the largest rank, prod(radices) - 1, which
    bounds every place value and partial sum; past uint64 that type is
    `object`, and the ranks are exact Python ints."""
    dtype = np.min_scalar_type(prod(radices) - 1)
    places = np.array([*accumulate(radices[:0:-1], mul, initial=1)][::-1], dtype=dtype)
    return np.einsum("ij,j->i", words, places, dtype=dtype)


def _check_words(radices: tuple[int, ...], words: np.ndarray) -> None:
    """Reject a digit outside its radix and a repeated word, in O(N log N):
    the ranks are sorted, not counted over the radix box."""
    if not _in_box(radices, words):
        raise InvalidInputError(f"code has a digit outside its radices {radices}")
    ranks = np.sort(_ranks(radices, words))
    if not (ranks[1:] != ranks[:-1]).all():
        raise InvalidInputError("code words must be distinct")


def is_permutation(code: MixedRadixCode) -> bool:
    """Does the code visit every tuple of the radix box exactly once?

    That is: prod(radices) words, every digit below its radix, and no rank
    repeated.  The ranks come from `_ranks`, one `einsum` over all words,
    and are counted by one `bincount`.
    """
    r, a = code.radices, code.array
    # with prod(r) words every rank is below the word count: counting is O(N)
    return (len(code) == prod(r) and _in_box(r, a)
            and int(np.bincount(_ranks(r, a)).max()) <= 1)


def firsts(radices: tuple[int, ...]) -> tuple[int, ...]:
    """The first ground element of each radix's rows, (1, 1 + m_1, 1 + m_1 +
    m_2, ...): word (d_1, ..., d_k) takes element firsts[i] + d_i."""
    return tuple(accumulate(radices[:-1], initial=1))


def word_to_subset(radices: tuple[int, ...], word: Word) -> frozenset[int]:
    return frozenset(f + d for f, d in zip(firsts(radices), word))


def to_set_system(code: MixedRadixCode) -> tuple[frozenset[int], ...]:
    """The transversal blocks of the code's words over [1, sum(radices)], in
    code order, one `word_to_subset` per word: the per-word route to what
    `product_matrix` builds over whole arrays, with no ground cap."""
    _check_words(code.radices, code.array)
    return tuple(word_to_subset(code.radices, w) for w in code.array.tolist())


def product_matrix(blocks, words) -> IncidenceMatrix:
    """The product of `blocks` along `words`, as matrix columns.

    `words` is an (N, k) integer array, one digit per block, read digit-major
    like a code's array.  Column j stacks blocks[i].cols[d_i] for each digit
    d_i of word j, block 0 on the first rows.  It rejects a digit outside
    its block and a repeated word.
    """
    radices = tuple(b.n for b in blocks)
    t = sum(b.t for b in blocks)
    # first, before any word is read: it keeps every shift below 64
    if t > GROUND_CAP:
        raise InvalidInputError(f"ground set capped at {GROUND_CAP}, got t={t}")
    # a block may have over 255 columns, so its digits over a byte
    words = _digit_major(radices, words)
    _check_words(radices, words)
    cols = np.zeros(len(words), dtype=np.uint64)
    offset = 0
    for block, digits in zip(blocks, words.T):
        cols |= (np.array(block.cols, dtype=np.uint64) << np.uint64(offset)).take(digits)
        offset += block.t
    return IncidenceMatrix(t, tuple(cols.tolist()))


# ---------------------------------------------------------------------------
# The path/cycle construction
# ---------------------------------------------------------------------------

def _interval(n: int) -> tuple[str, tuple[int, ...], int]:
    """(kind, radices, least n of the interval) of the code the construction
    shortens to n >= 3 words."""
    k = 1
    while n > 2 * 3 ** k:
        k += 1
    third = 3 ** (k - 1)
    if n > 4 * third:
        return "reflected", (2,) + (3,) * k, 4 * third + 1
    if n > 3 * third:
        return "reflected", (2, 2) + (3,) * (k - 1), 3 * third + 1
    return "modular", (3,) * k, 2 * third + 1


def shorten(code: MixedRadixCode, a: int) -> MixedRadixCode:
    """Delete words 1, 4, 7, ..., `a` of them, keeping the Gray (and cyclic)
    property: each is the middle of a triple that only the last digit, a 3,
    tells apart.  Only a code `_interval` picks may lose any, down to the
    least n of its interval."""
    if a < 0:
        raise InvalidInputError("cannot delete a negative number of words")
    if a == 0:
        return code
    kind, radices, least = _interval(len(code))
    allowance = len(code) - least if (code.kind, code.radices) == (kind, radices) else 0
    if a > allowance:
        raise InvalidInputError(
            f"can delete at most {allowance} words from this {code.kind} code, asked {a}"
        )
    keep = np.ones(len(code), dtype=bool)
    keep[1:3 * a:3] = False
    out = MixedRadixCode(code.radices, code.array[keep], "shortened")
    if not out.one_step:  # fills the returned code's cached fact
        raise RuntimeError("shortening broke the Gray property")
    return out


def cycle_cff_rows(n: int) -> int:
    """Row count the construction achieves: one per radix symbol, or n for
    the identities at n = 3, 4."""
    if n < 3:
        raise InvalidInputError("need n >= 3")
    return n if n <= 4 else sum(_interval(n)[1])


def cycle_code(n: int) -> MixedRadixCode:
    """The cyclic Gray code (shortened to n words) behind path_cycle_cff."""
    if n < 5:
        raise InvalidInputError("gray-code route needs n >= 5; cycles 3, 4 use identities")
    kind, radices, _ = _interval(n)
    code = modular(3, len(radices)) if kind == "modular" else reflected(radices)
    return shorten(code, len(code) - n)


def path_cycle_cff(n: int) -> IncidenceMatrix:
    """A C_n-CFF (hence also P_n-CFF) with the interval row count: I_n for
    n = 3, 4, else identity blocks, one per radix, along `cycle_code(n)`."""
    if n < 3:
        raise InvalidInputError("need n >= 3")
    if n <= 4:
        return IncidenceMatrix.identity(n)
    code = cycle_code(n)
    return product_matrix(tuple(map(IncidenceMatrix.identity, code.radices)), code.array)


def hamming_maximal_check(code: MixedRadixCode) -> bool:
    """True iff the transversal family is a CFF exactly for the Hamming graph
    on the radices: every distance-1 pair is safe and every distance->=2 pair
    covers some third block."""
    a = code.array
    if len(code) != prod(code.radices):
        raise InvalidInputError("maximality check needs a full code")
    if len(code) > MAXIMALITY_WORDS:
        raise ResourceLimitError(f"maximality check capped at {MAXIMALITY_WORDS} words")
    m = product_matrix(tuple(map(IncidenceMatrix.identity, code.radices)), a)
    near = ((a[:, None] != a).sum(axis=2) == 1).tolist()  # at Hamming distance 1
    # Every block takes one element per radix, so the blocks of a distance-1
    # pair are distinct k-sets and Sperner; such a pair is safe iff it covers
    # no third block.
    for i, j in combinations(range(len(code)), 2):
        covers = m.inside(m.cols[i] | m.cols[j]) & ~(1 << i | 1 << j)
        if bool(covers) == near[i][j]:
            return False
    return True
