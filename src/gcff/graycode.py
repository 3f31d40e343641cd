"""Mixed-radix Gray codes and the transversal construction for path/cycle CFFs.

A code over radices (m_1, ..., m_k) lists tuples of Z_{m_1} x ... x Z_{m_k}
with consecutive tuples at Hamming distance one.  Reflected codes alternate
the direction of the tail recursion; modular codes always increment one
digit mod its radix.  Each codeword D maps to the transversal subset
F(D) = {offset_i + d_i + 1} of [1, sum(m_i)], picking one element from each
radix block; the resulting k-uniform family is cover-free along the code
order, which is exactly what a path (or, for cyclic codes, a cycle) needs.

Codes are held digit-major: `array` has shape (N, k), one row per word, but
its uint8 memory is Fortran-ordered, so the N values of each digit sit next to
each other.  The predicates compare, count and rank a digit at a time, and with
k small (at most 12 in the criterion-1 sweep) a word-major layout would run
numpy's inner loops over a handful of bytes per word.  `MixedRadixCode` states
the layout, and validates the array, once for every constructor; the `words`
view materializes tuples on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import prod

import numpy as np

from .core import GROUND_CAP, IncidenceMatrix, SetSystem
from .errors import InvalidInputError, ResourceLimitError

#: Refuse to materialize codes beyond this many words.
MAX_WORDS = 1 << 20

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

    @property
    def is_full(self) -> bool:
        return len(self) == prod(self.radices)


def _check_radices(radices: tuple[int, ...]) -> None:
    if not radices or any(m < 2 for m in radices):
        raise InvalidInputError(f"every radix must be >= 2, got {radices}")
    if any(m > 255 for m in radices):
        raise InvalidInputError("radices beyond 255 are not supported")


def _code_size(radices: tuple[int, ...]) -> int:
    """Words in the full code over `radices`, refused beyond MAX_WORDS."""
    _check_radices(radices)
    n = prod(radices)
    if n > MAX_WORDS:
        raise ResourceLimitError(f"code would have {n} words (cap {MAX_WORDS})")
    return n


def _digit_major(radices: tuple[int, ...], words) -> np.ndarray:
    """A digit-major uint8 copy of the (N, len(radices)) integer array `words`.

    Digits must fit a byte; a digit at or above its radix is kept, for the
    predicates to report.  The copy is the code's own, so later writes to
    `words` do not reach it.
    """
    a = np.asarray(words)
    if a.ndim != 2 or a.shape[1] != len(radices):
        raise InvalidInputError(
            f"words must form an (N, {len(radices)}) array, got shape {a.shape}")
    if a.dtype.kind not in "ui" or (
            a.dtype != np.uint8 and a.size and (a.min() < 0 or a.max() > 255)):
        raise InvalidInputError("digits must be integers in 0..255")
    return np.array(a, dtype=np.uint8, order="F")


def hamming_distance(a: Word, b: Word) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def reflected(radices) -> MixedRadixCode:
    """Reflected Gray code: digit j prepends the tail forward if j is even,
    reversed if odd, so the first word is all zeros.

    Built one digit row at a time.  The words over radices[:i] cut the code
    into c blocks of m * n words, m = radices[i]; in each block digit i takes
    the values 0..m-1 for n words each, rising in even blocks and falling in
    odd ones, because consecutive blocks differ in an earlier digit and
    digit i holds still across their boundary.  So each row is written by
    two broadcast assignments into its (c, m, n) view.
    """
    radices = tuple(int(m) for m in radices)
    digits = np.empty((len(radices), _code_size(radices)), dtype=np.uint8)
    up = np.arange(max(radices), dtype=np.uint8)[:, None]
    c = 1  # words of the code over radices[:i]
    for row, m in zip(digits, radices):
        blocks = row.reshape(c, m, -1)
        blocks[0::2] = up[:m]
        blocks[1::2] = up[m - 1::-1]
        c *= m
    return MixedRadixCode(radices, digits.T, "reflected")


def modular(q: int, k: int) -> MixedRadixCode:
    """Modular Gray code over q^k words; the appended digit cycles mod q,
    starting where the previous block's wrap leaves off."""
    if q < 2 or k < 1:
        raise InvalidInputError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    radices = (q,) * k
    _code_size(radices)
    arr = np.arange(q, dtype=np.uint8).reshape(-1, 1)
    for _ in range(k - 1):
        n, w = arr.shape
        starts = (q - np.arange(n)) % q
        digits = ((starts[:, None] + np.arange(q)[None, :]) % q).astype(np.uint8)
        out = np.empty((n * q, w + 1), dtype=np.uint8)
        out[:, :w] = np.repeat(arr, q, axis=0)
        out[:, w] = digits.reshape(-1)
        arr = out
    return MixedRadixCode(radices, arr, "modular")


def is_gray(code: MixedRadixCode) -> bool:
    """Do consecutive words differ in exactly one digit?"""
    a = code.array
    if a.shape[0] < 2:
        return True
    changed = (a[1:] != a[:-1]).view(np.uint8)
    counts = np.einsum("ij->i", changed, dtype=np.min_scalar_type(a.shape[1]))
    return bool((counts == 1).all())


def is_cyclic(code: MixedRadixCode) -> bool:
    """Gray, and the wrap pair (last, first) is also at Hamming distance 1.

    Single-radix codes are trivially cyclic: (0) and (m-1) differ in their
    one coordinate.  The even-first-radix criterion for reflected codes
    applies from two radices up.
    """
    a = code.array
    if a.shape[0] < 2:
        return False
    return int(np.count_nonzero(a[0] != a[-1])) == 1 and is_gray(code)


def _in_box(radices: tuple[int, ...], words: np.ndarray) -> bool:
    """Is every digit of the (N, k) uint8 array `words` below its radix?"""
    return not (words >= np.array(radices, dtype=np.uint8)).any()


def _ranks(radices: tuple[int, ...], words: np.ndarray, dtype) -> np.ndarray:
    """Mixed-radix ranks of in-box words (most significant digit first), by
    Horner's rule over the digit rows.  Every partial rank is at most the
    final one, so `dtype` need only hold the largest rank."""
    rank = words[:, 0].astype(dtype)
    for m, digits in zip(radices[1:], words.T[1:]):
        rank *= m
        rank += digits
    return rank


def _check_words(radices: tuple[int, ...], words: np.ndarray) -> None:
    """Reject a digit outside its radix and a repeated word, in O(N log N):
    the ranks are sorted, not counted over the radix box."""
    if not _in_box(radices, words):
        raise InvalidInputError(f"code has a digit outside its radices {radices}")
    # int64 holds every rank below 2^63; beyond that they are Python ints
    ranks = np.sort(_ranks(radices, words, np.int64 if prod(radices) <= 1 << 63 else object))
    if not (ranks[1:] != ranks[:-1]).all():
        raise InvalidInputError("code words must be distinct")


def is_permutation(code: MixedRadixCode) -> bool:
    """Does the code visit every tuple of the radix box exactly once?

    That is: prod(radices) words, every digit below its radix, and no rank
    repeated.
    """
    r, a = code.radices, code.array
    n = len(code)
    # with n = prod(r) words in the box every rank is below n, so the smallest
    # type that holds n - 1 holds them, and counting costs O(n)
    return (n == prod(r) and _in_box(r, a)
            and int(np.bincount(_ranks(r, a, np.min_scalar_type(n - 1))).max()) <= 1)


def word_to_subset(radices: tuple[int, ...], word: Word) -> frozenset[int]:
    offset = 0
    out = []
    for m, d in zip(radices, word):
        out.append(offset + d + 1)
        offset += m
    return frozenset(out)


def to_set_system(code: MixedRadixCode) -> SetSystem:
    """The transversal subsets of the code's words, in code order."""
    _check_words(code.radices, code.array)
    t = sum(code.radices)
    blocks = tuple(word_to_subset(code.radices, w) for w in code.words)
    return SetSystem(t, blocks)


def transversal_matrix(radices: tuple[int, ...], words) -> IncidenceMatrix:
    """The transversal subsets of `words`, in order, as matrix columns.

    `words` is an (N, k) integer array of digits over `radices`, read
    digit-major like a code's array.  Column j sets row offset_i + d_i for
    each digit d_i of word j, where offset_i is the sum of the radices before
    i: the bitmask of word_to_subset, built one digit row at a time.  Like
    to_set_system, it rejects a digit outside its radix and a repeated word.
    """
    t = sum(radices)
    # first: it keeps every radix below 256 for _in_box, every shift below 64
    # and prod(radices) below 2^63 for int64 ranks
    if t > GROUND_CAP:
        raise InvalidInputError(f"ground set capped at {GROUND_CAP}, got t={t}")
    words = _digit_major(radices, words)
    _check_words(radices, words)
    cols = np.zeros(len(words), dtype=np.uint64)
    for offset, digits in zip(np.cumsum((0,) + radices[:-1], dtype=np.uint64), words.T):
        cols |= np.uint64(1) << (digits.astype(np.uint64) + offset)
    return IncidenceMatrix(t, tuple(cols.tolist()))


# ---------------------------------------------------------------------------
# Shortening
# ---------------------------------------------------------------------------

def _shorten_allowance(code: MixedRadixCode) -> int:
    """Max number of removable words for the radix patterns used by the
    path/cycle construction.  Other codes only admit a = 0."""
    r = code.radices
    if code.kind == "modular" and all(m == 3 for m in r):
        return 3 ** (len(r) - 1) - 1
    if code.kind == "reflected" and len(r) >= 2 and r[-1] == 3:
        if r[0] == 2 and r[1] == 2 and all(m == 3 for m in r[2:]):
            return 3 ** (len(r) - 2) - 1
        if r[0] == 2 and all(m == 3 for m in r[1:]):
            return 2 * 3 ** (len(r) - 2) - 1
        if all(m == 3 for m in r):
            return 3 ** (len(r) - 1) - 1
    return 0


def shorten(code: MixedRadixCode, a: int) -> MixedRadixCode:
    """Delete `a` codewords while keeping the Gray (and cyclic) property.

    Modular codes drop the `a` lowest words at indices 1 mod 3 (the middle
    of each 3-block); reflected codes drop the `a` lowest words whose final
    digit is 1 (the middle of each reflected triple).
    """
    if a < 0:
        raise InvalidInputError("cannot delete a negative number of words")
    if a == 0:
        return code
    allowance = _shorten_allowance(code)
    if a > allowance:
        raise InvalidInputError(
            f"can delete at most {allowance} words from this {code.kind} code, asked {a}"
        )
    keep = np.ones(len(code), dtype=bool)
    if code.kind == "modular":
        keep[1:3 * a:3] = False
    else:
        drop = np.flatnonzero(code.array[:, -1] == 1)[:a]
        keep[drop] = False
    out = MixedRadixCode(code.radices, code.array[keep], "shortened")
    if not is_gray(out):
        raise RuntimeError("shortening broke the Gray property")
    return out


# ---------------------------------------------------------------------------
# The path/cycle construction
# ---------------------------------------------------------------------------

def _case_for(n: int) -> tuple[int, int]:
    """The (k, case) with n in case 1: (2*3^(k-1), 3^k], case 2: (3^k, 4*3^(k-1)],
    case 3: (4*3^(k-1), 2*3^k]."""
    k = 1
    while n > 2 * 3 ** k:
        k += 1
    if n > 4 * 3 ** (k - 1):
        return k, 3
    if n > 3 ** k:
        return k, 2
    if n > 2 * 3 ** (k - 1):
        return k, 1
    raise AssertionError(f"no interval for n={n}")


def cycle_cff_rows(n: int) -> int:
    """Row count the construction achieves: 3k / 3k+1 / 3k+2 by interval."""
    if n < 3:
        raise InvalidInputError("need n >= 3")
    k, case = _case_for(n)
    return 3 * k + case - 1


def cycle_code(n: int) -> MixedRadixCode:
    """The cyclic Gray code (shortened to n words) behind path_cycle_cff."""
    if n < 5:
        raise InvalidInputError("gray-code route needs n >= 5; cycles 3, 4 use identities")
    k, case = _case_for(n)
    if case == 1:
        code = modular(3, k)
    elif case == 2:
        code = reflected((2, 2) + (3,) * (k - 1))
    else:
        code = reflected((2,) + (3,) * k)
    return shorten(code, len(code) - n)


def path_cycle_cff(n: int) -> IncidenceMatrix:
    """A C_n-CFF (hence also P_n-CFF) with the interval row count.

    n = 3, 4 use identity matrices; beyond that the cyclic code for the
    interval containing n is shortened to n words and mapped through the
    transversal bijection.
    """
    if n < 3:
        raise InvalidInputError("need n >= 3")
    if n <= 4:
        return IncidenceMatrix.identity(n)
    code = cycle_code(n)
    return transversal_matrix(code.radices, code.array)


def hamming_maximal_check(code: MixedRadixCode, limit: int = 256) -> bool:
    """True iff the transversal family is a CFF exactly for the Hamming graph
    on the radices: every distance-1 pair is safe and every distance->=2 pair
    covers some third block."""
    if not code.is_full:
        raise InvalidInputError("maximality check needs a full code")
    if len(code) > limit:
        raise ResourceLimitError(f"maximality check capped at {limit} words")
    m = transversal_matrix(code.radices, code.array)
    words = code.words
    # Every block takes one element per radix, so the blocks of a distance-1
    # pair are distinct k-sets and Sperner; such a pair is safe iff it covers
    # no third block.
    for i, j in combinations(range(len(words)), 2):
        covers = m.inside(m.cols[i] | m.cols[j]) & ~(1 << i | 1 << j)
        if bool(covers) == (hamming_distance(words[i], words[j]) == 1):
            return False
    return True
