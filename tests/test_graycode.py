"""Mixed-radix Gray codes, shortening, and the path/cycle construction."""

import random
from itertools import product
from math import prod

import numpy as np
import pytest

from gcff.core import GROUND_CAP, SetSystem, is_g_cff, matrix_from_sets
from gcff.errors import InvalidInputError
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
    reflected,
    shorten,
    to_set_system,
    transversal_matrix,
    word_to_subset,
)


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
                        assert transversal_matrix(radices, array) == matrix_from_sets(blocks)
                else:
                    with pytest.raises(InvalidInputError):
                        to_set_system(code)
                    if matrix_ok:
                        with pytest.raises(InvalidInputError, match="outside|distinct"):
                            transversal_matrix(radices, array)
        # every verdict occurs, each way round
        for i in range(4):
            assert {v[i] for v in seen} == {False, True}

    def test_permutation_ranks_beyond_16_bits(self):
        code = reflected((2,) * 17)
        assert is_permutation(code) and is_cyclic(code)
        array = code.array.copy()
        array[-1] = array[0]
        assert not is_permutation(MixedRadixCode(code.radices, array, "shortened"))


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
        with pytest.raises(InvalidInputError):
            reflected((1, 2))


class TestModular:
    def test_single_level(self):
        assert list(modular(3, 1).words) == [(0,), (1,), (2,)]

    def test_q3_k2_prefix(self):
        assert list(modular(3, 2).words[:4]) == [(0, 0), (0, 1), (0, 2), (1, 2)]

    def test_q2_k3_cyclic(self):
        c = modular(2, 3)
        assert gray_oracle(c.words) and is_cyclic(c)

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
        s = to_set_system(code)
        assert s.ground_size == 7
        parts = [frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7})]
        for b in s.blocks:
            assert len(b) == 3
            assert all(len(b & p) == 1 for p in parts)

    def test_fig6_matrix_bit_exact(self):
        from gcff.core import matrix_from_sets

        m = matrix_from_sets(to_set_system(reflected((2, 2, 2))))
        rows = ["11110000", "00001111", "11000011",
                "00111100", "10011001", "01100110"]
        assert [m.row_string(i) for i in range(6)] == rows

    def test_blocks_distinct(self):
        s = to_set_system(modular(3, 3))
        assert len(set(s.blocks)) == 27

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
            transversal_matrix(code.radices, code.array)

    @pytest.mark.parametrize("words, distinct", [
        ([[0] * 32, [1] * 32, [0] * 31 + [1]], True),
        ([[0] * 32, [1] * 32, [0] * 32], False),
    ], ids=["distinct", "repeated"])
    def test_word_checks_cost_the_words_not_the_box(self, words, distinct):
        # 2^32 words in the box: counting ranks over it would need 32 GiB
        radices = (2,) * 32
        if distinct:
            assert transversal_matrix(radices, words).n == 3
        else:
            with pytest.raises(InvalidInputError, match="distinct"):
                transversal_matrix(radices, words)

    def test_word_checks_exact_beyond_int64_ranks(self):
        # 255^9 > 2^64: ranks 0 and 2^64 would wrap to one int64
        radices = (255,) * 9
        zero = (0,) * 9
        far = tuple(2 ** 64 // 255 ** i % 255 for i in reversed(range(9)))
        assert to_set_system(MixedRadixCode(radices, np.array([zero, far]), "shortened"))
        with pytest.raises(InvalidInputError, match="distinct"):
            to_set_system(MixedRadixCode(radices, np.array([zero, far, zero]), "shortened"))

    def test_covering_lemma_on_full_codes(self):
        # consecutive pairs never cover a third block, up to 729-word codes
        from gcff.core import matrix_from_sets

        pool = [
            reflected((2, 2, 3)), reflected((3, 3)), reflected((2, 3, 3)),
            reflected((2, 2, 2, 2)), reflected((4, 5)), reflected((5, 3, 2)),
            reflected((2, 2, 3, 3, 3, 3)), modular(3, 3), modular(3, 6),
            modular(2, 5),
        ]
        for code in pool:
            cols = matrix_from_sets(to_set_system(code)).cols
            n = len(cols)
            for i in range(n - 1):
                u = cols[i] | cols[i + 1]
                for w in range(n):
                    if w != i and w != i + 1:
                        assert cols[w] & ~u, (code.radices, i, w)


class TestTransversalMatrix:
    """The numpy bitmask map against the set-system route as the oracle."""

    def test_path_cycle_matches_set_system_route(self):
        for n in [*range(5, 601), 1000, 2187, 4000, 6561, 20000]:
            oracle = matrix_from_sets(to_set_system(cycle_code(n)))
            assert path_cycle_cff(n) == oracle, n

    @pytest.mark.parametrize("radices", [(2,), (2, 2), (2, 2, 3), (3, 3), (2, 3, 4),
                                         (5, 3, 2), (2, 2, 2, 2, 2, 2), (31, 31)])
    def test_lexicographic_words_match_word_to_subset(self, radices):
        words = np.indices(radices).reshape(len(radices), -1).T
        blocks = tuple(word_to_subset(radices, w)
                       for w in product(*(range(m) for m in radices)))
        oracle = matrix_from_sets(SetSystem(sum(radices), blocks))
        assert transversal_matrix(radices, words) == oracle

    def test_full_ground_set(self):
        # 64 rows: the top row's bit is the sign bit of an int64
        radices = (32, 32)
        m = transversal_matrix(radices, [[31, 31], [0, 0]])
        assert (m.t, m.cols) == (64, (1 << 63 | 1 << 31, 1 | 1 << 32))

    @pytest.mark.parametrize("radices", [(33, 33), (300, 2)])
    def test_ground_cap_before_arithmetic(self, radices):
        words = np.indices(radices).reshape(len(radices), -1).T
        with pytest.raises(InvalidInputError, match="ground set capped at 64"):
            transversal_matrix(radices, words)


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
        with pytest.raises(InvalidInputError):
            shorten(modular(3, 3), 9)
        with pytest.raises(InvalidInputError):
            shorten(reflected((2, 2)), 1)


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
        with pytest.raises(InvalidInputError):
            path_cycle_cff(2)


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
