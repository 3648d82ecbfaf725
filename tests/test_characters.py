import functools
import hashlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from math import factorial

import pytest

from conftest import cycle_type_of, frobenius_char
from kronmf import characters, kronecker
from kronmf.characters import (
    TableCeilingError,
    character_table,
    character_value,
    class_size,
    is_mf_class_function,
    kron_oracle,
    kron_product_oracle,
    kron_row_oracle,
    mf_row,
)
from kronmf.expansion import CharacterExpansion
from kronmf.kronecker import multiply_expansions
from kronmf.littlewood_richardson import skew_expand
from kronmf.partitions import (
    Partition,
    conjugate,
    dimension,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    is_proper_skew,
)


def P(*parts):
    return Partition(parts)


class TestCharacterValue:
    def test_trivial_character(self):
        for n in range(1, 8):
            for rho in enumerate_partitions(n):
                assert character_value(P(n), rho) == 1
        # beyond any table ceiling the recursion still applies
        for rho in (P(21), P(11, 10), P(5, 4, 4, 3, 2, 2, 1), P(*([1] * 21))):
            assert character_value(P(21), rho) == 1

    def test_sign_character(self):
        for n in range(1, 8):
            sign = P(*([1] * n))
            for rho in enumerate_partitions(n):
                assert character_value(sign, rho) == (-1) ** (n - len(rho))

    def test_identity_class_gives_dimension(self):
        for n in range(1, 9):
            one = P(*([1] * n))
            for lam in enumerate_partitions(n):
                assert character_value(lam, one) == dimension(lam)

    def test_natural_on_three_cycle(self):
        assert character_value(P(2, 1), P(3)) == -1  # frozen via frobenius_char

    def test_against_frobenius_formula(self):
        for n in range(6):
            for lam in enumerate_partitions(n):
                for rho in enumerate_partitions(n):
                    assert character_value(lam, rho) == frobenius_char(lam, rho), (lam, rho)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            character_value(P(3), P(2, 2))

    def test_conjugate_twists_by_sign(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for rho in enumerate_partitions(n):
                    sign = (-1) ** (n - len(rho))
                    assert character_value(conjugate(lam), rho) == sign * character_value(lam, rho)


class TestClassSize:
    def test_examples(self):
        for n in range(1, 8):
            assert class_size(P(*([1] * n))) == 1
            assert class_size(P(n)) == factorial(n - 1)
        assert class_size(P(2, 2, 1)) == 15  # frozen via the permutation census

    def test_census(self):
        for n in range(1, 7):
            census: dict[Partition, int] = {}
            for perm in itertools.permutations(range(n)):
                ct = cycle_type_of(perm)
                census[ct] = census.get(ct, 0) + 1
            for rho in enumerate_partitions(n):
                assert class_size(rho) == census[rho]


class TestCharacterTable:
    def test_n2(self):
        t = character_table(2)
        assert t.values == ((1, 1), (-1, 1))
        assert t.class_sizes == (1, 1)

    def test_n3_dimension_column(self):
        t = character_table(3)
        dims = tuple(row[-1] for row in t.values)
        assert dims == (1, 2, 1)

    def test_trivial_row_and_dimension_column(self):
        for n in range(1, 17):
            t = character_table(n, ceiling=n)
            assert all(v == 1 for v in t.values[0])
            assert tuple(row[-1] for row in t.values) == tuple(dimension(p) for p in t.rows)

    def test_column_orthogonality_with_identity_class(self):
        # regular-character pairing: only the trivial column survives
        t = character_table(5)
        for j, rho in enumerate(t.cols):
            dot = sum(row[-1] * row[j] for row in t.values)
            assert dot == (factorial(5) if rho == P(1, 1, 1, 1, 1) else 0)

    def test_orthogonality_exact(self):
        for n in range(1, 13):
            character_table(n).check_orthogonality()

    def test_entries_match_character_value(self):
        # the forward strip fold is the independent reference for the rows
        for n in range(12):
            t = character_table(n)
            for lam in t.rows:
                for rho in t.cols:
                    assert t.value(lam, rho) == character_value(lam, rho), (lam, rho)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (14, "b4b568b6cc23a384f1e759702a36f831f0a5057099786844e77af9528adb7fb3"),
            (16, "b8ac24e929a54407bc6d42db9efbf3e5934979e2b0ef5e0ce43718bc4f93b867"),
            (18, "cf6bfcac4b82a6b0d615329b7da197b5ec5ffcabebb8072c3b32b7c37c1e3041"),
            (20, "5e5f4652141206e61724302fce0bac2c2c4136cb8b88fbe8ad48643be6712b8d"),
        ],
    )
    def test_json_digest_frozen(self, n, digest):
        # digests at 14 and 16 taken from the per-entry border-strip
        # recursion, at 18 and 20 from the column builder that folded
        # border strips over cycle-type prefixes: any change to a value, a
        # label or the layout changes them
        blob = character_table(n, ceiling=n).to_json().encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("words", [2, 3])
    def test_wide_slots_give_the_same_rows(self, words):
        # slots wider than one word take the same cut and read-back path
        for n in (0, 1, 5, 10):
            t = character_table(n)
            assert characters._rows(n, t.rows, words=words) == t.values

    def test_ceiling(self):
        with pytest.raises(TableCeilingError):
            character_table(characters.table_ceiling() + 1)

    def test_values_beyond_64_bits_refused(self):
        # isqrt(33!) < 2^63 <= isqrt(34!): refused before any enumeration
        top = characters.MAX_TABLE_DEGREE
        assert top == 33
        assert math.isqrt(factorial(top)) < 1 << 63 <= math.isqrt(factorial(top + 1))
        with pytest.raises(TableCeilingError):
            character_table(34, ceiling=34)

    def test_huge_degree_refused_without_a_factorial(self, monkeypatch):
        # the 64-bit refusal compares n with a constant; it never computes n!
        exact = characters.factorial

        def small_only(k):
            assert k <= 40, f"factorial({k}) computed"
            return exact(k)

        monkeypatch.setattr(characters, "factorial", small_only)
        with pytest.raises(TableCeilingError):
            character_table(10**6, ceiling=10**6)

    def test_ceiling_env_override(self, monkeypatch):
        monkeypatch.setenv("KRONMF_TABLE_CEILING", "3")
        with pytest.raises(TableCeilingError):
            character_table(4, ceiling=None)
        monkeypatch.delenv("KRONMF_TABLE_CEILING")

    def test_csv_and_json_exports(self):
        import csv as csvmod
        import io
        import json

        t = character_table(3)
        rows = list(csvmod.reader(io.StringIO(t.to_csv())))
        assert rows[0] == ["partition", "3", "2,1", "1^3"]
        assert rows[1] == ["3", "1", "1", "1"]
        assert len(rows) == 4

        blob = json.loads(t.to_json())
        assert blob["class_sizes"] == [2, 3, 1]
        assert blob["values"][0] == [1, 1, 1]


class TestKronOracle:
    def test_trivial_factor_is_identity(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    assert kron_oracle(lam, P(n), nu) == (1 if lam == nu else 0)

    def test_named_paper_values(self):
        assert kron_oracle(P(3, 3, 3), P(3, 3, 3), P(5, 2, 2)) == 2
        assert kron_oracle(P(4, 2), P(4, 2), P(3, 2, 1)) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            kron_oracle(P(3), P(2, 1), P(2, 2))

    def test_symmetry_exhaustive_small(self):
        for n in range(1, 7):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for j in range(i, len(parts)):
                    mu = parts[j]
                    for k in range(j, len(parts)):
                        nu = parts[k]
                        vals = {
                            kron_oracle(a, b, c)
                            for a, b, c in itertools.permutations((lam, mu, nu))
                        }
                        assert len(vals) == 1

    def test_symmetry_and_conjugation_random(self):
        import random

        rng = random.Random(987)
        for n in (7, 8):
            parts = enumerate_partitions(n)
            for _ in range(200):
                lam, mu, nu = (rng.choice(parts) for _ in range(3))
                g = kron_oracle(lam, mu, nu)
                assert g == kron_oracle(mu, nu, lam) == kron_oracle(nu, lam, mu)
                assert g == kron_oracle(conjugate(lam), conjugate(mu), nu)
                assert g == kron_oracle(conjugate(lam), mu, conjugate(nu))


class TestKronProductOracle:
    def test_natural_square_n4(self):
        got = kron_product_oracle(P(3, 1), P(3, 1))
        expected = CharacterExpansion(
            4, {P(4): 1, P(3, 1): 1, P(2, 2): 1, P(2, 1, 1): 1}
        )
        assert got == expected

    def test_two_row_square(self):
        got = kron_product_oracle(P(2, 2), P(2, 2))
        assert got == CharacterExpansion(4, {P(4): 1, P(2, 2): 1, P(1, 1, 1, 1): 1})

    def test_sign_twist(self):
        for n in range(2, 7):
            sign = P(*([1] * n))
            for lam in enumerate_partitions(n):
                got = kron_product_oracle(lam, sign)
                assert got == CharacterExpansion.irreducible(conjugate(lam))

    def test_dimension_sum_rule_exhaustive(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    exp = kron_product_oracle(lam, mu)
                    assert exp.total_dimension() == dimension(lam) * dimension(mu)
                    assert exp.is_genuine()


class TestPackedProduct:
    """The packed-column product against the row dot product of kron_oracle."""

    @staticmethod
    def assert_matches_dot_product(lam, mu, parts):
        got = kron_product_oracle(lam, mu)
        for nu in parts:
            assert got[nu] == kron_oracle(lam, mu, nu), (lam, mu, nu)

    def test_every_pair_up_to_9(self):
        for n in range(10):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    self.assert_matches_dot_product(lam, mu, parts)

    @pytest.mark.parametrize("n", [14, 16])
    def test_seeded_pairs(self, n, monkeypatch):
        import random

        monkeypatch.setenv("KRONMF_TABLE_CEILING", "16")
        rng = random.Random(n)
        parts = enumerate_partitions(n)
        for _ in range(6):
            self.assert_matches_dot_product(rng.choice(parts), rng.choice(parts), parts)

    def test_two_word_slots(self, monkeypatch):
        # a slot is two 64-bit words at n = 16 and 20; at 20 the square of
        # (6,5,4,3,2) holds n! g >= 2^64 in some slots, so high words are read
        monkeypatch.setenv("KRONMF_TABLE_CEILING", "20")
        assert characters._packed(16)[0] == characters._packed(20)[0] == 16
        lam = P(6, 5, 4, 3, 2)
        assert kron_product_oracle(lam, lam).max_multiplicity() * factorial(20) >= 2**64
        self.assert_matches_dot_product(lam, lam, enumerate_partitions(20))
        lam, mu = P(13, 2, 1), P(12, 3, 1)
        assert kron_product_oracle(lam, mu) == kronecker.kron_product(lam, mu, "dvir")

    def test_slot_width_covers_n_factorial_times_the_largest_dimension(self):
        # the bound must come from the identity class (1^n), the last
        # column: the n-cycle column holds only 0 and +-1
        for n in range(17):
            slot, columns, dims = characters._packed(n)
            bound = factorial(n) * max(dimension(p) for p in enumerate_partitions(n))
            assert 8 * slot >= bound.bit_length() + 2, n
            assert len(columns) == len(enumerate_partitions(n))
            assert dims == tuple(map(dimension, enumerate_partitions(n)))


class TestRowProduct:
    """kron_row_oracle, a whole row per lam, against kron_oracle's dot product."""

    @staticmethod
    def assert_row_matches_dot_product(lam, mus, parts):
        got = list(kron_row_oracle(lam, mus))
        assert len(got) == len(mus)
        for mu, product in zip(mus, got):
            for nu in parts:
                assert product[nu] == kron_oracle(lam, mu, nu), (lam, mu, nu)

    def test_every_row_up_to_9(self):
        for n in range(10):
            parts = enumerate_partitions(n)
            for lam in parts:
                self.assert_row_matches_dot_product(lam, parts, parts)

    @pytest.mark.parametrize("n", [14, 16])
    def test_seeded_rows(self, n, monkeypatch):
        import random

        monkeypatch.setenv("KRONMF_TABLE_CEILING", "16")
        rng = random.Random(n)
        parts = enumerate_partitions(n)
        for _ in range(2):
            self.assert_row_matches_dot_product(rng.choice(parts), rng.sample(parts, 6), parts)

    def test_two_word_slots(self, monkeypatch):
        # the pairs of TestPackedProduct.test_two_word_slots, each in a row
        # of several mu; at 20 some slots hold n! g >= 2^64 before the
        # division, and every g after it lies in the low word
        monkeypatch.setenv("KRONMF_TABLE_CEILING", "20")
        lam = P(6, 5, 4, 3, 2)
        self.assert_row_matches_dot_product(lam, [lam, conjugate(lam)], enumerate_partitions(20))
        lam = P(13, 2, 1)
        self.assert_row_matches_dot_product(lam, [P(12, 3, 1), lam], enumerate_partitions(16))

    def test_a_row_is_lazy(self, cold_memos):
        row = kron_row_oracle(P(3, 1), [P(4), P(2, 2)])
        assert characters._table.cache_info().misses == 0
        assert characters._packed.cache_info().misses == 0
        assert next(row) == CharacterExpansion.irreducible(P(3, 1))
        assert characters._packed.cache_info().misses == 1

    def test_degree_mismatch_raises_when_reached(self):
        row = kron_row_oracle(P(2, 1), [P(3), P(2, 1, 1)])
        assert next(row) == CharacterExpansion.irreducible(P(2, 1))
        with pytest.raises(ValueError, match="degree mismatch"):
            next(row)


class TestClassSumVerdict:
    """is_mf_class_function against the expanded product's own test."""

    # OEIS A000085: the number of involutions of S_n, n = 1..16
    INVOLUTIONS = (1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152,
                   568504, 2390480, 10349536, 46206736)

    @pytest.fixture(autouse=True)
    def _irreducible_products_once(self, monkeypatch):
        # the sweeps multiply the same irreducible pairs many times over,
        # and the oracle keeps no products of its own
        monkeypatch.setattr(kronecker, "kron_product_oracle", functools.cache(kron_product_oracle))

    @staticmethod
    def values(chi):
        """chi's values on the classes, summed from the table's rows."""
        t = character_table(chi.degree)
        return [sum(m * t.value(p, rho) for p, m in chi.items()) for rho in t.cols]

    def assert_verdict(self, *factors):
        product = factors[0]
        for f in factors[1:]:
            product = multiply_expansions(product, f, "oracle")
        pointwise = [math.prod(col) for col in zip(*map(self.values, factors))]
        got = is_mf_class_function(product.degree, pointwise)
        assert got == product.is_multiplicity_free(), factors

    def test_identity_class_counts_involutions(self):
        # Frobenius-Schur: every character of S_n is real with indicator
        # +1, so the column sum at an element counts its square roots
        for n, count in enumerate(self.INVOLUTIONS, start=1):
            sizes, weighted = characters._class_weights(n)
            assert characters._table(n).cols[-1] == P(*([1] * n))
            assert sizes[-1] == 1 and weighted[-1] == count, n

    def test_every_pair_up_to_10(self):
        for n in range(1, 11):
            irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(n)]
            for i, a in enumerate(irr):
                for b in irr[i:]:
                    self.assert_verdict(a, b)

    def test_every_triple_up_to_7(self):
        for n in range(1, 8):
            irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(n)]
            for a, b, c in itertools.combinations_with_replacement(irr, 3):
                self.assert_verdict(a, b, c)

    def test_every_skew_case_up_to_6(self):
        for n in range(1, 7):
            irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(n)]
            shapes = enumerate_basic_skew_shapes(n)
            for s in shapes:
                for a in irr:
                    self.assert_verdict(skew_expand(s), a)
            proper = list({skew_expand(s): None for s in shapes if is_proper_skew(s)})
            for i, a in enumerate(proper):
                for b in proper[i:]:
                    self.assert_verdict(a, b)



class TestMfRow:
    """mf_row, every chi . chi^alpha from one packed sum, against the
    expanded products' own test."""

    @pytest.fixture(autouse=True)
    def _irreducible_products_once(self, monkeypatch):
        monkeypatch.setattr(kronecker, "kron_product_oracle", functools.cache(kron_product_oracle))

    @staticmethod
    def assert_row(chi):
        irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(chi.degree)]
        got = mf_row(chi.degree, TestClassSumVerdict.values(chi))
        assert got == [multiply_expansions(chi, a, "oracle").is_multiplicity_free() for a in irr], chi

    def test_every_triple_up_to_8(self):
        for n in range(9):
            irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(n)]
            for i, a in enumerate(irr):
                for b in irr[i:]:
                    self.assert_row(multiply_expansions(a, b, "oracle"))

    def test_every_basic_shape_up_to_7(self):
        for n in range(1, 8):
            for chi in {skew_expand(s): None for s in enumerate_basic_skew_shapes(n)}:
                self.assert_row(chi)

    def test_forced_multi_word_slots_up_to_8(self, monkeypatch):
        # every row here fits one-word slots; two- and three-word slots,
        # whose byte runs are wider, read the same verdicts
        widths = set()
        packed = characters._mf_packed
        monkeypatch.setattr(characters, "_mf_packed", lambda n, words: widths.add((n, words)) or packed(n, words))
        for n in range(1, 9):
            t = character_table(n)
            for i, x in enumerate(t.values):
                for y in t.values[i:]:
                    values = [a * b for a, b in zip(x, y)]
                    one = mf_row(n, values)
                    assert mf_row(n, values, 2) == mf_row(n, values, 3) == one
        assert widths == {(n, words) for n in range(1, 9) for words in (1, 2, 3)}

    def test_multi_word_entries_pack_exactly(self):
        # entries of both signs past 2^63 and 2^64, in two-word entries of
        # three-word slots, against the plain sum of x_i 2^(192 i); and past
        # 2^128 in three-word entries, whose middle word is shifted by 64
        column = (2**127 - 1, -(2**127), 2**64, -(2**64) - 1, 2**63, -(2**63) - 1, 0, -1, 1)
        packed = characters._pack([column, column[::-1]], len(column), 3, 2)
        assert packed == tuple(
            sum(x << (192 * i) for i, x in enumerate(c)) for c in (column, column[::-1])
        )
        wide = (2**191 - 1, -(2**191), 2**128 + 2**64 + 1, -(2**128) - 1, -1)
        assert characters._pack([wide], len(wide), 4, 3) == (sum(x << (256 * i) for i, x in enumerate(wide)),)
        with pytest.raises(OverflowError):
            characters._pack([(2**127,)], 1, 3, 2)

class TestConcurrency:
    def test_parallel_reads_are_consistent(self):
        parts = enumerate_partitions(8)
        pairs = [(parts[i], parts[j]) for i in range(0, 22, 3) for j in range(0, 22, 5)]

        def work(pair):
            return kron_product_oracle(*pair)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, pairs * 2))
        for k, pair in enumerate(pairs):
            assert results[k] == results[k + len(pairs)] == kron_product_oracle(*pair)
