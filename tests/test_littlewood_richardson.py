import pytest

from conftest import brute_lr_tally, brute_skew_syt, brute_syt_count, seeded_skew_shapes, skew_components
from kronmf.expansion import CharacterExpansion
from kronmf.littlewood_richardson import (
    _lr_counts,
    _rim_paths,
    is_mf_outer,
    is_mf_skew,
    lr_coefficient,
    outer_product,
    outer_product_irr,
    path_profile,
    skew_expand,
)
from kronmf.partitions import (
    EMPTY,
    Partition,
    SkewShape,
    conjugate_skew,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    intersect,
    iter_subpartitions,
    parse_skew,
    rotate_skew,
    skew_normalize,
)
from kronmf.verdict import MfVerdict


def P(*parts):
    return Partition(parts)


def irr(*parts):
    return CharacterExpansion.irreducible(P(*parts))


class TestLrCoefficient:
    def test_classic_multiplicity_two(self):
        assert lr_coefficient(P(3, 2, 1), P(2, 1), P(2, 1)) == 2

    def test_trivial_cases(self):
        for lam in enumerate_partitions(5):
            assert lr_coefficient(lam, lam, EMPTY) == 1
            assert lr_coefficient(lam, EMPTY, lam) == 1
        assert lr_coefficient(P(3), P(2), P(1)) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lr_coefficient(P(3, 1), P(2), P(3))

    def test_non_containment_is_zero(self):
        assert lr_coefficient(P(2, 2), P(3), P(1)) == 0

    def test_symmetry_in_the_factors(self):
        for lam in enumerate_partitions(6):
            for m in range(7):
                for mu in enumerate_partitions(m):
                    if not lam.contains(mu):
                        continue
                    for nu in enumerate_partitions(6 - m):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)


class TestSkewExpand:
    def test_row_plus_box(self):
        for n in (3, 5, 7):
            got = skew_expand(SkewShape((n, 1), (1,)))
            assert got == irr(n) + irr(n - 1, 1)

    def test_staircase_strip(self):
        for k in (2, 3, 4):
            got = skew_expand(SkewShape((k + 1, k), (1,)))
            assert got == irr(k + 1, k - 1) + irr(k, k)

    def test_partition_diagram(self):
        for lam in enumerate_partitions(6):
            assert skew_expand(SkewShape(lam, ())) == CharacterExpansion.irreducible(lam)

    def test_brute_force_small_fully_naive(self):
        for size in range(6):
            for s in enumerate_basic_skew_shapes(size):
                assert brute_lr_tally(s, prune=False) == skew_expand(s).terms(), s

    def test_brute_force_up_to_size_8(self):
        # rowwise-lattice pruned variant of the naive filler; the pruned
        # and unpruned enumerations are compared against each other at
        # small sizes in test_brute_force_small_fully_naive
        for size in range(6, 9):
            for s in enumerate_basic_skew_shapes(size):
                if s.outer.width > 6:
                    continue
                assert brute_lr_tally(s, prune=True) == skew_expand(s).terms(), s

    def test_dimension_identity_up_to_size_8(self):
        for size in range(1, 9):
            for s in enumerate_basic_skew_shapes(size):
                if s.outer.width > 6:
                    continue
                exp = skew_expand(s)
                assert exp.is_genuine()
                total = sum(m * brute_syt_count(p) for p, m in exp.items())
                assert total == brute_skew_syt(s.outer, s.inner), s

    def test_conjugation_symmetry(self):
        from kronmf.partitions import conjugate

        for size in range(1, 8):
            for s in enumerate_basic_skew_shapes(size):
                mirrored = SkewShape(conjugate(s.outer), conjugate(s.inner))
                assert skew_expand(mirrored) == skew_expand(s).conjugate()

    def test_invariant_under_normalization_and_rotation(self):
        from kronmf.partitions import rotate_skew, skew_normalize

        for lam in enumerate_partitions(6):
            for m in range(7):
                for mu in enumerate_partitions(m):
                    if not lam.contains(mu):
                        continue
                    s = SkewShape(lam, mu)
                    basic = skew_normalize(s).basic
                    assert skew_expand(s) == skew_expand(basic)
                    if basic.size:
                        assert skew_expand(rotate_skew(basic)) == skew_expand(basic)

    def test_rotation_keeps_and_transposition_conjugates_on_seeded_shapes(self):
        # [s°] = [s] and [s'] = sgn . [s], the two facts the skew sweep
        # reads an orbit mate's character by, on shapes with empty rows
        # and columns left in
        shapes = seeded_skew_shapes(7219, 1000)
        assert sum(skew_normalize(s).basic != s for s in shapes) > 700
        for s in shapes:
            chi = skew_expand(s)
            assert skew_expand(rotate_skew(s)) == chi, s
            assert skew_expand(conjugate_skew(s)) == chi.conjugate(), s

    def test_every_shape_a_band_reads_up_to_size_9(self):
        # a band reads lam/alpha for every alpha inside lam, with empty
        # rows and columns left in: each tally equals its basic form's, and
        # its dimensions add up to the shape's standard fillings
        shapes = 0
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                for m in range(n + 1):
                    for alpha in iter_subpartitions(lam, m):
                        basic = skew_normalize(SkewShape(lam, alpha)).basic
                        tally = _lr_counts(lam, alpha)
                        assert tally == _lr_counts(basic.outer, basic.inner), (lam, alpha)
                        total = sum(c * brute_syt_count(nu) for nu, c in tally.items())
                        assert total == brute_skew_syt(lam, alpha), (lam, alpha)
                        shapes += 1
        assert shapes == 1591

    def test_disconnected_equals_outer_product_of_components(self):
        # the components are the reference's flood fills, as the normal
        # form holds only their labels
        checked = 0
        for size in range(2, 8):
            for s in enumerate_basic_skew_shapes(size):
                comps = skew_components(s)
                assert len(comps) == len(skew_normalize(s).components), s
                if len(comps) < 2:
                    continue
                product = skew_expand(comps[0])
                for c in comps[1:]:
                    product = outer_product(product, skew_expand(c))
                assert product == skew_expand(s), s
                checked += 1
        assert checked > 100

    def test_equal_contents_of_different_tallies_are_one_object(self, cold_memos):
        # every content is read through one interner, so the memoised
        # tallies hold one Partition per distinct content, and the
        # interner is a memo the cold start empties
        first = {}
        for s in enumerate_basic_skew_shapes(7):
            for content in _lr_counts(s.outer, s.inner):
                assert type(content) is Partition
                assert first.setdefault(content, content) is content, s
        assert len(first) == len(enumerate_partitions(7))
        assert cold_memos["littlewood_richardson._content"].cache_info().currsize == len(first)


class TestOuterProduct:
    def test_pieri_row(self):
        assert outer_product(irr(2), irr(1)) == irr(3) + irr(2, 1)

    def test_paper_products(self):
        for n in (4, 6):
            assert outer_product_irr(P(n - 1), P(1)) == irr(n) + irr(n - 1, 1)
            assert outer_product_irr(P(1, 1), P(n - 2)) == irr(n - 1, 1) + irr(n - 2, 1, 1)

    def test_degree_adds(self):
        got = outer_product(irr(2, 1), irr(2))
        assert got.degree == 5
        assert got.total_dimension() == 2 * 1 * 10  # dim induced = binom(5,3)*2*1

    def test_matches_skew_expansion(self):
        # <[lam/mu],[nu]> = multiplicity of [lam] in [mu] x [nu]
        for lam in enumerate_partitions(6):
            for m in range(7):
                for mu in enumerate_partitions(m):
                    if not lam.contains(mu):
                        continue
                    exp = skew_expand(SkewShape(lam, mu))
                    for nu, mult in exp.items():
                        assert outer_product_irr(mu, nu)[lam] == mult


class TestIsMfOuter:
    def test_examples(self):
        assert is_mf_outer(P(3, 3), P(4, 4, 2)).clause == "outer-rect-near-rect"
        assert not is_mf_outer(P(2, 1), P(2, 1))
        assert is_mf_outer(P(5), P(4, 3, 3, 1)).clause == "outer-linear-any"

    def test_exhaustive_against_expansion(self):
        for total in range(2, 10):
            for m in range(1, total):
                for a in enumerate_partitions(m):
                    for b in enumerate_partitions(total - m):
                        expected = outer_product_irr(a, b).is_multiplicity_free()
                        assert bool(is_mf_outer(a, b)) == expected, (a, b)

    def test_two_line_rectangles_against_expansion(self):
        # the two-line-rectangle-times-fat-hook clause first fires at 14
        # cells, on [1,1].[4,4,2,2], past the exhaustive sweep above
        rights = [P(4, 4, 2, 2), P(3, 3, 1, 1), P(4, 4, 1), P(3, 1, 1), P(5, 3, 1), P(4, 2, 1), P(3, 3, 2)]
        for k in (1, 2, 3):
            for left in (P(k, k), P(*[2] * k)):
                for right in rights:
                    expected = outer_product_irr(left, right).is_multiplicity_free()
                    assert bool(is_mf_outer(left, right)) == expected, (left, right)
                    assert bool(is_mf_outer(right, left)) == expected, (right, left)
        assert is_mf_outer(P(2, 2), P(4, 4, 2, 2)).clause == "outer-2line-rect-fat-hook"
        assert is_mf_outer(P(4, 4, 2, 2), P(3, 3)).normalization == ("swapped",)
        assert not is_mf_outer(P(2, 2), P(5, 3, 1))


class TestPathProfile:
    def test_two_row_example(self):
        prof = path_profile(SkewShape((4, 4), (2,)))
        assert prof.s_in == 1 and prof.s_out == 2
        assert prof.inner_is_rectangle and prof.outer_removable_count == 1

    def test_partition_diagram_paths(self):
        prof = path_profile(SkewShape((3, 3, 3), ()))
        assert prof.s_in == 3 and prof.inner_is_rectangle is False

    def test_non_rectangle_inner(self):
        prof = path_profile(SkewShape((3, 2, 1), (2, 1)))
        assert prof.inner_is_rectangle is False

    def test_rejects_non_basic(self):
        with pytest.raises(ValueError):
            path_profile(SkewShape((3, 2), (3,)))
        with pytest.raises(ValueError):
            path_profile(SkewShape((2, 2), (2, 2)))


def _rim_paths_by_two_loops(s):
    """The rim paths as drawn before one walker drew both: the reference."""
    ell = len(s.outer)
    w = s.outer.width
    inner_runs = []
    x = 0
    up = 0
    for y in range(ell):
        target = s.inner.row(ell - y)
        if target > x:
            inner_runs.extend((up, target - x))
            up = 0
            x = target
        up += 1
    inner_runs.extend((up, w - x))

    outer_runs = []
    x = 0
    up = 0
    for y in range(ell):
        target = s.outer.row(ell - y)
        if target > x:
            if up:
                outer_runs.append(up)
                up = 0
            outer_runs.append(target - x)
            x = target
        up += 1
    outer_runs.append(up)
    return [r for r in inner_runs if r], [r for r in outer_runs if r]


class TestRimPaths:
    def test_equal_to_the_two_loops_on_every_basic_shape_up_to_size_9(self):
        for size in range(1, 10):
            for s in enumerate_basic_skew_shapes(size):
                for shape in (s, rotate_skew(s)):
                    assert _rim_paths(shape) == _rim_paths_by_two_loops(shape), shape


class TestIsMfSkew:
    def test_examples(self):
        for n in (3, 5, 7):
            assert is_mf_skew(SkewShape((n, 1), (1,)))
        assert is_mf_skew(SkewShape((3, 2), ()))
        assert is_mf_skew(SkewShape((2, 2), (2, 2)))

    def test_both_rims_non_rectangular_fails(self):
        # 3-row shape whose inner and rotated inner are not rectangles
        s = SkewShape((5, 4, 2), (3, 1))
        assert not is_mf_skew(s)
        assert not skew_expand(s).is_multiplicity_free()

    def test_three_components_never_mf(self):
        from kronmf.partitions import skew_normalize

        s = SkewShape((3, 2, 1), (2, 1))
        assert len(skew_normalize(s).components) == 3
        assert not is_mf_skew(s)

    def test_exhaustive_against_expansion_size_8(self):
        for size in range(1, 9):
            for s in enumerate_basic_skew_shapes(size):
                assert bool(is_mf_skew(s)) == skew_expand(s).is_multiplicity_free(), s

    def test_exhaustive_against_expansion_size_9(self):
        # size 9 is where the clause skew-rem-2 first decides a shape
        for s in enumerate_basic_skew_shapes(9):
            assert bool(is_mf_skew(s)) == skew_expand(s).is_multiplicity_free(), s

    @pytest.mark.parametrize(
        "text, clause, normalization",
        [
            ("2/2", "skew-empty", ()),
            ("1", "skew-irreducible", ()),
            ("2,1/1", "skew-two-components:outer-rect-rect", ()),
            ("3,2/1", "skew-sin-1", ()),
            ("4,4,2,2/3,1,1", "skew-sin-2-rem-3", ("rotated",)),
            # the first sizes at which the last two clauses fire: 9 and 11
            ("4^3,1/2,2", "skew-rem-2", ()),
            ("4,3^3/2,2", "skew-rem-2", ()),
            ("6,4^3,1,1/3^3", "skew-sout-1-rem-3", ()),
            ("6^3,3^3/5,5,2^3", "skew-sout-1-rem-3", ("rotated",)),
        ],
    )
    def test_clause_of_each_case(self, text, clause, normalization):
        s = parse_skew(text)
        assert skew_expand(s).is_multiplicity_free()
        assert is_mf_skew(s) == MfVerdict(True, clause, normalization)


class TestSkewCharacterLemmas:
    def test_neighbouring_constituents(self):
        # every proper skew character of size <= 8 has neighbours at n-1
        from kronmf.partitions import is_proper_skew

        for size in range(2, 9):
            for s in enumerate_basic_skew_shapes(size):
                if not is_proper_skew(s):
                    continue
                sup = skew_expand(s).support()
                assert any(
                    intersect(a, b).n == size - 1
                    for i, a in enumerate(sup)
                    for b in sup[i + 1:]
                ), s

    def test_mf_with_full_row_constituent_is_two_rows(self):
        # a multiplicity-free proper skew character containing [n] is
        # [n-k] x [k] for some k <= n/2
        from kronmf.partitions import is_proper_skew

        for size in range(2, 9):
            whole = Partition((size,))
            for s in enumerate_basic_skew_shapes(size):
                if not is_proper_skew(s):
                    continue
                exp = skew_expand(s)
                if not exp.is_multiplicity_free() or whole not in exp:
                    continue
                matched = any(
                    exp == outer_product_irr(Partition((size - k,)), Partition((k,)))
                    for k in range(0, size // 2 + 1)
                )
                assert matched, s
