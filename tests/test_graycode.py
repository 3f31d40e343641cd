"""Mixed-radix Gray codes, shortening, and the path/cycle construction."""

import random
from itertools import product
from math import prod

import numpy as np
import pytest

import gcff.graycode as graycode
from gcff.core import GROUND_CAP, IncidenceMatrix, is_g_cff
from gcff.errors import InvalidInputError, ResourceLimitError
from gcff.graphs import cycle, path
from gcff.graycode import (
    MixedRadixCode,
    cycle_cff_rows,
    cycle_code,
    hamming_maximal_check,
    is_cyclic,
    is_gray,
    is_permutation,
    modular,
    path_cycle_cff,
    product_matrix,
    reflected,
    shorten,
    to_set_system,
    word_to_subset,
)
from gcff.sperner import optimal_1cff
from test_core import matrix_of_blocks


def transversal(radices, words):
    """The paper's transversal map: the product of identity blocks."""
    return product_matrix(tuple(map(IncidenceMatrix.identity, radices)), words)


def gray_oracle(words) -> bool:
    """Independent tuple-level check of the Gray property."""
    return all(
        sum(1 for x, y in zip(a, b) if x != y) == 1
        for a, b in zip(words, words[1:])
    )


def box_oracle(radices, words) -> bool:
    """Independent tuple-level check: every word of the radix box exactly once."""
    return sorted(words) == sorted(product(*(range(m) for m in radices)))


def cyclic_oracle(words) -> bool:
    return len(words) >= 2 and gray_oracle(list(words) + [words[0]])


def reflected_oracle(radices) -> list:
    """The recursive definition: each first digit d = 0..m-1 prefixes the
    tail's code, forward for even d and reversed for odd d."""
    if not radices:
        return [()]
    tail = reflected_oracle(radices[1:])
    return [(d,) + w for d in range(radices[0]) for w in (tail[::-1] if d % 2 else tail)]


def radix_vectors(digits, cap) -> list:
    """Every radix vector over `digits` whose product is at most `cap`."""
    out, frontier = [], [()]
    while frontier:
        frontier = [v + (m,) for v in frontier for m in digits if prod(v) * m <= cap]
        out += frontier
    return out


class TestPredicatesOnBrokenCodes:
    # name: (radices, words, (is_permutation, is_gray, is_cyclic))
    CASES = {
        "duplicated word": ((2, 2), [(0, 0), (0, 1), (1, 1), (0, 1)], (False, True, True)),
        "missing word": ((2, 2), [(0, 0), (0, 1), (1, 1)], (False, True, False)),
        "wrong length": ((2, 2), [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)], (False, True, False)),
        "digit equal to radix": (
            (2, 3), [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 3)], (False, True, False)
        ),
        "ranks 0,1,3,4": ((2, 2), [(0, 0), (0, 1), (1, 1), (1, 2)], (False, True, False)),
        "(0,2) aliases (1,0)": ((2, 2), [(0, 0), (0, 1), (1, 1), (0, 2)], (False, False, False)),
        "only the wrap is Gray": ((2, 2), [(0, 0), (1, 1), (0, 1), (1, 0)], (True, False, False)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_tuple_oracle(self, name):
        radices, words, want = self.CASES[name]
        assert (box_oracle(radices, words), gray_oracle(words), cyclic_oracle(words)) == want
        code = MixedRadixCode(radices, np.array(words, dtype=np.uint8), "shortened")
        assert (is_permutation(code), is_gray(code), is_cyclic(code)) == want


class TestCodeRecord:
    """MixedRadixCode validates its input and holds it digit-major."""

    @pytest.mark.parametrize("radices, array", [
        ((300,), np.zeros((1, 1), dtype=np.uint16)),
        ((1, 2), np.zeros((1, 2), dtype=np.uint8)),
        ((), np.zeros((1, 0), dtype=np.uint8)),
        ((2, 2), np.zeros((4, 3), dtype=np.uint8)),
        ((2, 2), np.zeros(4, dtype=np.uint8)),
        ((2, 2), np.zeros((2, 2, 1), dtype=np.uint8)),
        ((2, 2), np.array([[0, 0], [0, 0.5]])),
        ((2, 2), np.array([[False, False], [False, True]])),
        ((2, 2), np.array([[0, 0], [0, -1]])),
        ((2, 2), np.array([[0, 0], [0, 256]])),
    ], ids=["radix 300", "radix 1", "no radices", "three columns for two radices",
            "1-D array", "3-D array", "float digits", "bool digits",
            "negative digit", "digit 256"])
    def test_rejects_malformed_input(self, radices, array):
        with pytest.raises(InvalidInputError):
            MixedRadixCode(radices, array, "shortened")

    def test_digit_at_or_above_its_radix_is_kept_for_the_predicates(self):
        code = MixedRadixCode((2, 2), np.array([[0, 0], [0, 1], [1, 1], [255, 1]]), "shortened")
        assert code.words[-1] == (255, 1)
        assert not is_permutation(code)
        with pytest.raises(InvalidInputError, match="outside its radices"):
            to_set_system(code)

    @pytest.mark.parametrize("build", [
        lambda: reflected((2, 3, 4)), lambda: reflected((5,)), lambda: modular(3, 4),
        lambda: shorten(modular(3, 3), 2), lambda: shorten(reflected((2, 2, 3, 3)), 2),
        lambda: cycle_code(100),
        lambda: MixedRadixCode((2, 2), np.array([[0, 0], [0, 1], [1, 1]]), "shortened"),
    ], ids=["reflected", "reflected one radix", "modular", "shortened modular",
            "shortened reflected", "cycle code", "hand-built"])
    def test_every_constructor_is_digit_major_uint8(self, build):
        a = build().array
        assert a.dtype == np.uint8 and a.ndim == 2 and a.flags.f_contiguous

    def test_caller_writes_do_not_reach_the_code(self):
        for source in (np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8),
                       np.asfortranarray(np.array([[0, 0], [0, 1], [1, 1], [1, 0]],
                                                  dtype=np.uint8))):
            code = MixedRadixCode((2, 2), source, "shortened")
            source[1] = (1, 1)
            assert code.words == ((0, 0), (0, 1), (1, 1), (1, 0))
            assert is_permutation(code) and is_cyclic(code)

    def test_code_array_is_read_only(self):
        # a write would leave the cached words stale
        code = reflected((2, 3))
        assert code.words[0] == (0, 0)
        with pytest.raises(ValueError):
            code.array[0, 0] = 1
        assert code.words[0] == (0, 0) and code.array[0].tolist() == [0, 0]


def _random_words(rng, radices, n):
    """n words over `radices`, mostly a Gray walk, with seeded faults mixed in:
    out-of-box digits, repeated words and steps that change two digits."""
    word = [rng.randrange(m) for m in radices]
    words = [tuple(word)]
    while len(words) < n:
        roll = rng.random()
        i = rng.randrange(len(radices))
        if roll < 0.05:
            word[i] = rng.randrange(radices[i], 256)
        elif roll < 0.1:
            pass  # repeat the word: a step that changes zero digits
        elif roll < 0.15 and len(radices) > 1:
            j = (i + 1 + rng.randrange(len(radices) - 1)) % len(radices)
            word[i] = (word[i] + 1) % radices[i]
            word[j] = (word[j] + 1) % radices[j]
        else:
            word[i] = (word[i] + 1 + rng.randrange(radices[i] - 1)) % radices[i]
        words.append(tuple(word))
    return words


def _layouts(words, k):
    """The same words as a C-order, an F-order and a strided (N, k) array."""
    c = np.array(words, dtype=np.uint8).reshape(len(words), k)
    padded = np.full((2 * len(words), k + 3), 7, dtype=np.int64)
    padded[::2, 1:k + 1] = c
    return {"C": c, "F": np.asfortranarray(c), "strided": padded[::2, 1:k + 1]}


def _random_codes():
    rng = random.Random(2026)
    for k in range(1, 13):
        for _ in range(4):
            radices = tuple(rng.choice((2, 2, 3, 4, 5, 7, 255)) if k < 3
                            else rng.choice((2, 2, 3, 4, 5)) for _ in range(k))
            for n in (1, 2, rng.randrange(3, 200)):
                yield radices, _random_words(rng, radices, n)
            if prod(radices) <= 512:
                # full boxes, so that is_permutation also answers True
                full = list(reflected(radices).words)
                yield radices, full
                rng.shuffle(full)
                yield radices, full


class TestLayoutMatchesOracles:
    """On seeded random codes, in every memory layout, the predicates and the
    word checks answer as the tuple-level oracles do."""

    def test_predicates_and_word_checks(self):
        seen = set()
        for radices, words in _random_codes():
            # the oracle lists the whole box, so ask it only when the count fits
            want = (len(words) == prod(radices) and box_oracle(radices, words),
                    gray_oracle(words), cyclic_oracle(words))
            valid = (all(d < m for w in words for d, m in zip(w, radices))
                     and len(set(words)) == len(words))
            seen.add(want + (valid,))
            for name, array in _layouts(words, len(radices)).items():
                code = MixedRadixCode(radices, array, "shortened")
                assert code.words == tuple(words), (radices, name)
                got = (is_permutation(code), is_gray(code), is_cyclic(code))
                assert got == want, (radices, name, words)
                matrix_ok = sum(radices) <= GROUND_CAP
                if valid:
                    blocks = to_set_system(code)
                    if matrix_ok:
                        assert transversal(radices, array) == matrix_of_blocks(sum(radices), blocks)
                else:
                    with pytest.raises(InvalidInputError):
                        to_set_system(code)
                    if matrix_ok:
                        with pytest.raises(InvalidInputError, match="outside|distinct"):
                            transversal(radices, array)
        # every verdict occurs, each way round
        for i in range(4):
            assert {v[i] for v in seen} == {False, True}

    def test_permutation_ranks_beyond_16_bits(self):
        code = reflected((2,) * 17)
        assert is_permutation(code) and is_cyclic(code)
        array = code.array.copy()
        array[-1] = array[0]
        assert not is_permutation(MixedRadixCode(code.radices, array, "shortened"))


class TestRanks:
    # the rank type `_ranks` picks for each box, the smallest that holds its
    # largest rank; 255^8 - 1 lies in [2^63, 2^64), exact in uint64
    CASES = [(np.uint16, (5, 4, 3, 2, 255)), (np.uint32, (255, 255, 255, 7)),
             (np.uint64, (255,) * 7 + (3,)), (np.uint64, (255,) * 8), (object, (255,) * 9)]

    @pytest.mark.parametrize("dtype, radices", CASES,
                             ids=["uint16", "uint32", "uint64", "uint64 past 2^63", "object"])
    def test_match_horner_on_python_ints(self, dtype, radices):
        rng = random.Random(37)
        words = [[rng.randrange(m) for m in radices] for _ in range(500)]
        words += [[0] * len(radices), [m - 1 for m in radices]]
        want = []
        for word in words:
            rank = 0
            for m, d in zip(radices, word):
                rank = rank * m + d
            want.append(rank)
        # the last word has the box's largest rank, which sets the rank type
        assert want[-1] == prod(radices) - 1
        assert dtype is object or want[-1] <= np.iinfo(dtype).max
        for order in "CF":
            got = graycode._ranks(radices, np.array(words, dtype=np.uint8, order=order))
            assert got.dtype == np.dtype(dtype) and got.tolist() == want, order


class TestReflected:
    def test_binary_length_3_order(self):
        want = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0),
                (1, 1, 0), (1, 1, 1), (1, 0, 1), (1, 0, 0)]
        assert list(reflected((2, 2, 2)).words) == want

    def test_single_radix(self):
        assert list(reflected((3,)).words) == [(0,), (1,), (2,)]
        assert list(reflected((2,)).words) == [(0,), (1,)]

    def test_first_word_all_zeros(self):
        for radices in [(3, 2), (2, 3, 4), (5, 5)]:
            assert reflected(radices).words[0] == (0,) * len(radices)

    def test_cyclicity_examples(self):
        assert is_cyclic(reflected((2, 2, 3)))
        assert not is_cyclic(reflected((3, 2)))

    def test_small_sweep_permutation_gray_cyclic(self):
        for k in (1, 2, 3):
            for radices in product((2, 3, 4), repeat=k):
                c = reflected(radices)
                assert is_permutation(c)
                assert sorted(c.words) == sorted(product(*(range(m) for m in radices)))
                assert gray_oracle(c.words)
                assert is_gray(c)
                assert is_cyclic(c) == (k == 1 or radices[0] % 2 == 0)

    def test_bad_radices(self):
        for bad in (lambda: reflected((1, 2)), lambda: modular(1, 2), lambda: modular(2, 0)):
            with pytest.raises(InvalidInputError):
                bad()

    @pytest.mark.parametrize("build", [lambda: reflected((2,) * 21), lambda: modular(2, 21)],
                             ids=["reflected", "modular"])
    def test_word_cap(self, build):
        with pytest.raises(ResourceLimitError, match=r"^code would have 2097152 words \(cap 1048576\)$"):
            build()

    def test_matches_recursive_definition(self):
        prefix_parities = set()
        for radices in radix_vectors((2, 3, 4, 5), 256):
            assert list(reflected(radices).words) == reflected_oracle(radices), radices
            prefix_parities |= {prod(radices[:i]) % 2 for i in range(1, len(radices))}
        # a digit row after an odd prefix count ends on a rising half period
        assert prefix_parities == {0, 1}


class TestModular:
    def test_single_level(self):
        assert list(modular(3, 1).words) == [(0,), (1,), (2,)]

    def test_q3_k2_prefix(self):
        assert list(modular(3, 2).words[:4]) == [(0, 0), (0, 1), (0, 2), (1, 2)]

    def test_q2_k3_cyclic(self):
        c = modular(2, 3)
        assert gray_oracle(c.words) and is_cyclic(c)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_matches_recursive_definition(self, q):
        def words(k):
            # after prefix word i, the appended digit r = 0..q-1 reads (r - i) mod q
            if k == 0:
                return [()]
            return [w + ((r - i) % q,) for i, w in enumerate(words(k - 1)) for r in range(q)]

        k = 1
        while q ** k <= 4096:
            assert list(modular(q, k).words) == words(k), (q, k)
            k += 1

    def test_modular_sweep_cyclic(self):
        for q in (2, 3, 4, 5):
            k = 1
            while q ** k <= 1024:
                c = modular(q, k)
                assert is_permutation(c)
                assert gray_oracle(c.words)
                assert is_cyclic(c)
                k += 1


class TestTransversalMap:
    def test_fig6_examples(self):
        radices = (2, 2, 2)
        assert word_to_subset(radices, (0, 0, 0)) == frozenset({1, 3, 5})
        assert word_to_subset(radices, (1, 0, 0)) == frozenset({2, 3, 5})

    def test_blocks_are_transversal_k_subsets(self):
        code = reflected((2, 3, 2))
        blocks = to_set_system(code)
        assert set().union(*blocks) == set(range(1, 8))
        parts = [frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7})]
        for b in blocks:
            assert len(b) == 3
            assert all(len(b & p) == 1 for p in parts)

    def test_fig6_matrix_bit_exact(self):
        m = matrix_of_blocks(6, to_set_system(reflected((2, 2, 2))))
        rows = ["11110000", "00001111", "11000011",
                "00111100", "10011001", "01100110"]
        assert [m.row_string(i) for i in range(6)] == rows

    def test_blocks_distinct(self):
        assert len(set(to_set_system(modular(3, 3)))) == 27

    @pytest.mark.parametrize("words", [
        [(0, 0), (0, 1), (1, 1), (2, 0)],  # last block would be {3}, inside P_2
        [(0, 0), (0, 1), (1, 1), (0, 2)],  # (0, 2) aliases (1, 0)
        [(0, 0), (0, 1), (0, 1)],
    ], ids=["digit beyond first radix", "digit beyond last radix", "repeated word"])
    def test_rejects_words_outside_the_box_or_repeated(self, words):
        code = MixedRadixCode((2, 2), np.array(words, dtype=np.uint8), "shortened")
        with pytest.raises(InvalidInputError):
            to_set_system(code)
        with pytest.raises(InvalidInputError):
            transversal(code.radices, code.array)

    @pytest.mark.parametrize("words, distinct", [
        ([[0] * 32, [1] * 32, [0] * 31 + [1]], True),
        ([[0] * 32, [1] * 32, [0] * 32], False),
    ], ids=["distinct", "repeated"])
    def test_word_checks_cost_the_words_not_the_box(self, words, distinct):
        # 2^32 words in the box: counting ranks over it would need 32 GiB
        radices = (2,) * 32
        if distinct:
            assert transversal(radices, words).n == 3
        else:
            with pytest.raises(InvalidInputError, match="distinct"):
                transversal(radices, words)

    def test_word_checks_exact_beyond_int64_ranks(self):
        # 255^9 > 2^64: ranks 0 and 2^64 would wrap to one uint64
        radices = (255,) * 9
        zero = (0,) * 9
        far = tuple(2 ** 64 // 255 ** i % 255 for i in reversed(range(9)))
        assert to_set_system(MixedRadixCode(radices, np.array([zero, far]), "shortened"))
        with pytest.raises(InvalidInputError, match="distinct"):
            to_set_system(MixedRadixCode(radices, np.array([zero, far, zero]), "shortened"))
        # the same box from 1-row blocks of 255 equal columns, within the ground cap
        blocks = (IncidenceMatrix(1, (1,) * 255),) * 9
        assert product_matrix(blocks, [zero, far]).cols == (511, 511)
        with pytest.raises(InvalidInputError, match="distinct"):
            product_matrix(blocks, [zero, far, zero])

    def test_covering_lemma_on_full_codes(self):
        # consecutive pairs never cover a third block, up to 729-word codes
        pool = [
            reflected((2, 2, 3)), reflected((3, 3)), reflected((2, 3, 3)),
            reflected((2, 2, 2, 2)), reflected((4, 5)), reflected((5, 3, 2)),
            reflected((2, 2, 3, 3, 3, 3)), modular(3, 3), modular(3, 6),
            modular(2, 5),
        ]
        for code in pool:
            cols = matrix_of_blocks(sum(code.radices), to_set_system(code)).cols
            n = len(cols)
            for i in range(n - 1):
                u = cols[i] | cols[i + 1]
                for w in range(n):
                    if w != i and w != i + 1:
                        assert cols[w] & ~u, (code.radices, i, w)


class TestTransversalMatrix:
    """The product of identity blocks against the set-system route as the
    oracle."""

    def test_path_cycle_matches_set_system_route(self):
        for n in [*range(5, 601), 1000, 2187, 4000, 6561, 20000]:
            code = cycle_code(n)
            oracle = matrix_of_blocks(sum(code.radices), to_set_system(code))
            assert path_cycle_cff(n) == oracle, n

    @pytest.mark.parametrize("radices", [(2,), (2, 2), (2, 2, 3), (3, 3), (2, 3, 4),
                                         (5, 3, 2), (2, 2, 2, 2, 2, 2), (31, 31)])
    def test_lexicographic_words_match_word_to_subset(self, radices):
        words = np.indices(radices).reshape(len(radices), -1).T
        blocks = tuple(word_to_subset(radices, w)
                       for w in product(*(range(m) for m in radices)))
        oracle = matrix_of_blocks(sum(radices), blocks)
        assert transversal(radices, words) == oracle

    def test_full_ground_set(self):
        # 64 rows: the top row's bit is the sign bit of an int64
        radices = (32, 32)
        m = transversal(radices, [[31, 31], [0, 0]])
        assert (m.t, m.cols) == (64, (1 << 63 | 1 << 31, 1 | 1 << 32))

    @pytest.mark.parametrize("radices", [(33, 33), (300,) * 6])
    def test_ground_cap_before_arithmetic(self, radices):
        # 66 rows: two 33-row identities, or six 11-row blocks of 300 columns,
        # whose digits do not fit a byte; each digit m lies outside its block,
        # so the cap must be reported before any word is read
        blocks = tuple(IncidenceMatrix.identity(m) if m <= GROUND_CAP else optimal_1cff(m)
                       for m in radices)
        words = [[m - 1 for m in radices], list(radices)]
        with pytest.raises(InvalidInputError, match="ground set capped at 64"):
            product_matrix(blocks, words)


class TestProductMatrix:
    """Blocks other than identities: column j stacks blocks[i].cols[d_i],
    block 0 on the lowest rows."""

    def test_stacks_block_columns(self):
        a, b = IncidenceMatrix(3, (3, 5, 6)), IncidenceMatrix(2, (1, 2))
        m = product_matrix((a, b), [[2, 0], [0, 1], [1, 1]])
        assert (m.t, m.cols) == (5, (6 | 1 << 3, 3 | 2 << 3, 5 | 2 << 3))

    def test_digits_beyond_a_byte(self):
        blades = optimal_1cff(300)
        m = product_matrix((blades, IncidenceMatrix.identity(2)), [[299, 0], [256, 1]])
        assert m.cols == (blades.cols[299] | 1 << blades.t, blades.cols[256] | 2 << blades.t)

    @pytest.mark.parametrize("digit", [3, 4, 255, 300, 2 ** 32, -1])
    def test_rejects_digit_outside_a_block(self, digit):
        blocks = (IncidenceMatrix(3, (3, 5, 6)), IncidenceMatrix.identity(2))
        with pytest.raises(InvalidInputError, match="outside|0\\.\\."):
            product_matrix(blocks, np.array([[0, 0], [digit, 1]], dtype=np.int64))


class TestShorten:
    def test_modular_27_to_19(self):
        c = shorten(modular(3, 3), 8)
        assert len(c) == 19
        assert gray_oracle(c.words) and is_cyclic(c)

    def test_zero_is_identity(self):
        c = modular(3, 3)
        assert shorten(c, 0) is c

    def test_reflected_2233_minus_2(self):
        c = shorten(reflected((2, 2, 3, 3)), 2)
        assert len(c) == 34
        assert gray_oracle(c.words) and is_cyclic(c)

    def test_deletes_lowest_middle_indices(self):
        full = modular(3, 3).words
        c = shorten(modular(3, 3), 2)
        kept = set(c.words)
        assert full[1] not in kept and full[4] not in kept
        assert full[7] in kept

    def test_allowance(self):
        with pytest.raises(InvalidInputError, match="negative"):
            shorten(modular(3, 3), -1)
        with pytest.raises(InvalidInputError):
            shorten(modular(3, 3), 9)
        with pytest.raises(InvalidInputError):
            shorten(reflected((2, 2)), 1)

    # each construction code may shrink to the least n of its interval
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("build, allowance", [
        (lambda k: modular(3, k), lambda k: 3 ** (k - 1) - 1),
        (lambda k: reflected((2, 2) + (3,) * (k - 1)), lambda k: 3 ** (k - 1) - 1),
        (lambda k: reflected((2,) + (3,) * k), lambda k: 2 * 3 ** (k - 1) - 1),
    ], ids=["modular 3^k", "reflected 2,2,3^(k-1)", "reflected 2,3^k"])
    def test_construction_allowances(self, build, allowance, k):
        full, a = build(k), allowance(k)
        c = shorten(full, a)
        # words 1, 4, 7, ... go, the middle of each leading triple
        assert c.words == tuple(w for i, w in enumerate(full.words) if i % 3 != 1 or i >= 3 * a)
        assert is_cyclic(c) and len(set(c.words)) == len(c)
        if full.kind == "reflected":
            assert all(w[-1] == 1 for w in full.words[1:3 * a:3])
        with pytest.raises(InvalidInputError, match=f"at most {a} words"):
            shorten(full, a + 1)

    @pytest.mark.parametrize("radices", [(3, 3), (3, 3, 3)])
    def test_codes_outside_the_construction_refuse_any_deletion(self, radices):
        with pytest.raises(InvalidInputError, match="at most 0 words"):
            shorten(reflected(radices), 1)


class TestOneStepFact:
    """Each code's one-step fact is computed once, from its own words."""

    def test_shortened_code_runs_the_rule_once(self, monkeypatch):
        rule, seen = graycode._one_step, []
        monkeypatch.setattr(graycode, "_one_step", lambda a: seen.append(len(a)) or rule(a))
        code = shorten(modular(3, 3), 8)
        assert (is_gray(code), is_cyclic(code), is_gray(code)) == (True, True, True)
        assert seen == [19]

    def test_cached_answer_matches_the_uncached_rule(self):
        rng = random.Random(35)
        cases = [(r, np.array(w, dtype=np.uint8).reshape(len(w), len(r)))
                 for r, w in _random_codes()]
        # not Gray, yet the wrap pair differs in one digit: two interior words of a
        # binary code swapped, as no bit of it changes twice in a row
        for radices in ((2, 2), (2, 2, 2), (2, 2, 2, 2), (2,) * 6):
            words = list(reflected(radices).words)
            i = rng.randrange(1, len(words) - 2)
            words[i], words[i + 1] = words[i + 1], words[i]
            cases.append((radices, np.array(words, dtype=np.uint8)))
        cases += [(r, np.array([[rng.randrange(m) for m in r]], dtype=np.uint8))
                  for r in ((2,), (3, 5), (2, 2, 2))]
        cases += [(c.radices, c.array) for c in map(cycle_code, rng.sample(range(5, 2000), 20))]
        wraps = 0
        for radices, words in cases:
            want = graycode._one_step(words.copy())
            code = MixedRadixCode(radices, words, "shortened")
            # the wrap pair first on half the codes, so either predicate may fill the cache
            if rng.random() < 0.5:
                assert is_cyclic(code) == cyclic_oracle(code.words)
            assert is_gray(code) == code.one_step == want == gray_oracle(code.words), radices
            assert is_cyclic(code) == cyclic_oracle(code.words), radices
            first, last = code.words[0], code.words[-1]
            wraps += not want and sum(x != y for x, y in zip(first, last)) == 1
        assert wraps >= 4  # the swapped binary codes at least


class TestPathCycleCFF:
    def test_figure_row_counts(self):
        for n, rows in [(12, 7), (27, 9), (36, 10), (54, 11), (19, 9)]:
            m = path_cycle_cff(n)
            assert (m.t, m.n) == (rows, n)

    def test_small_identities(self):
        from gcff.core import IncidenceMatrix

        assert path_cycle_cff(3) == IncidenceMatrix.identity(3)
        assert path_cycle_cff(4) == IncidenceMatrix.identity(4)

    def test_verified_sweep(self):
        for n in range(3, 61):
            m = path_cycle_cff(n)
            assert m.t == cycle_cff_rows(n)
            assert is_g_cff(m, cycle(n)), n
            assert is_g_cff(m, path(n)), n

    def test_row_formula_oracle(self):
        def oracle(n):
            k = 1
            while n > 2 * 3 ** k:
                k += 1
            if n <= 3 ** k:
                return 3 * k
            if n <= 4 * 3 ** (k - 1):
                return 3 * k + 1
            return 3 * k + 2

        for n in range(3, 500):
            assert cycle_cff_rows(n) == oracle(n)

    def test_needs_three(self):
        for bad in (lambda: path_cycle_cff(2), lambda: cycle_cff_rows(2), lambda: cycle_code(4)):
            with pytest.raises(InvalidInputError):
                bad()


class TestHammingMaximality:
    def test_reference_radices(self):
        assert hamming_maximal_check(reflected((2, 2)))
        assert hamming_maximal_check(reflected((2, 2, 2)))
        assert hamming_maximal_check(reflected((3, 3)))

    def test_modular_words_equivalent(self):
        assert hamming_maximal_check(modular(3, 2))

    def test_requires_full_code(self):
        with pytest.raises(InvalidInputError):
            hamming_maximal_check(shorten(modular(3, 3), 2))

    def test_refuses_codes_beyond_the_cap(self):
        assert hamming_maximal_check(reflected((16, 16)))
        with pytest.raises(ResourceLimitError, match="capped at 256"):
            hamming_maximal_check(reflected((17, 17)))
