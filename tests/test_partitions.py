from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import brute_syt_count, seeded_skew_shapes, skew_components
import kronmf.partitions as partitions_mod
from kronmf.expansion import CharacterExpansion
from kronmf.partitions import (
    EMPTY,
    MAX_PARSED_SIZE,
    Node,
    Partition,
    SkewNormalForm,
    SkewShape,
    add_node,
    addable_nodes,
    classify_shape,
    conjugate,
    conjugate_skew,
    dimension,
    durfee_length,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    format_partition,
    hook_counts,
    hook_length,
    intersect,
    is_fat_hook,
    is_hook,
    is_near_rectangle,
    is_rectangle,
    iter_subpartitions,
    is_proper_skew,
    parse_partition,
    parse_skew,
    remove_node,
    removable_nodes,
    rotate_skew,
    skew_normalize,
    split_rows,
)

from math import factorial


partitions_st = st.lists(st.integers(1, 7), max_size=7).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def P(*parts):
    return Partition(parts)


class TestPartitionType:
    def test_construction_strips_trailing_zeros(self):
        assert Partition((3, 2, 0, 0)) == P(3, 2)

    def test_rejects_increases_and_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((3, 0, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_rejection_names_the_first_bad_part(self):
        # the check runs in C, and a rejected tuple is walked in order to
        # name its first part that is not positive or rises
        def first_fault(parts):
            for i, p in enumerate(parts):
                if p <= 0:
                    return f"partition parts must be positive, got {p}"
                if i and parts[i - 1] < p:
                    return f"parts not weakly decreasing: {parts}"
            return None

        for length in range(1, 6):
            for parts in product(range(-1, 3), repeat=length):
                kept = parts
                while kept and kept[-1] == 0:
                    kept = kept[:-1]
                message = first_fault(kept)
                if message is None:
                    assert Partition(parts) == kept
                else:
                    with pytest.raises(ValueError) as exc:
                        Partition(parts)
                    assert str(exc.value) == message, parts

    def test_rejects_non_integer_parts(self):
        for parts in ([2.7, 1], [2.0, 1], "321", ("3", "2")):
            with pytest.raises(TypeError):
                Partition(parts)
        for terms in ({(2.9, 1): 1}, {(2, 1): 1}):
            with pytest.raises(TypeError):
                CharacterExpansion(3, terms)

    def test_equal_partitions_hash_identically(self):
        assert hash(P(3, 1)) == hash(Partition([3, 1]))
        assert P(3, 1) == Partition([3, 1])

    def test_basic_properties(self):
        p = P(4, 2, 1)
        assert (p.n, p.length, p.width, p.depth) == (7, 3, 4, 3)
        assert EMPTY.n == 0 and EMPTY.width == 0


class TestConjugate:
    def test_examples(self):
        assert conjugate(P(3, 1)) == P(2, 1, 1)
        assert conjugate(EMPTY) == EMPTY
        assert conjugate(P(3, 3, 3)) == P(3, 3, 3)

    def test_matches_the_cell_count_definition(self):
        # column j of p' counts the parts longer than j; an involution
        # test alone would pass for the identity
        cases = [p for n in range(13) for p in enumerate_partitions(n)]
        for p in cases + [P(*[1] * 5000), P(5000)]:
            assert conjugate(p) == tuple(sum(part > j for part in p) for j in range(p.width)), p

    def test_involution_all_n_le_12(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                assert conjugate(conjugate(p)) == p

    @given(partitions_st)
    def test_involution_property(self, p):
        assert conjugate(conjugate(p)) == p


class TestIntersect:
    def test_examples(self):
        assert intersect(P(4, 2), P(3, 3)) == P(3, 2)
        assert intersect(P(4, 2), P(4, 2)) == P(4, 2)

    def test_paper_figure_pair(self):
        lam = parse_partition("11,7^3,6,5^4,2,1")
        mu = parse_partition("11,10^3,6,5,2^4,1")
        assert intersect(lam, mu) == parse_partition("11,7^3,6,5,2^4,1")

    def test_is_maximal_lower_bound(self):
        for p in enumerate_partitions(6):
            for q in enumerate_partitions(6):
                r = intersect(p, q)
                assert p.contains(r) and q.contains(r)

    def test_commutes_with_conjugation(self):
        for p in enumerate_partitions(6):
            for q in enumerate_partitions(6):
                lhs = intersect(p, q)
                rhs = conjugate(intersect(conjugate(p), conjugate(q)))
                assert lhs == rhs


class TestNodes:
    def test_examples(self):
        assert removable_nodes(P(3, 3, 1)) == [Node(2, 3), Node(3, 1)]
        assert addable_nodes(P(2, 2)) == [Node(1, 3), Node(3, 1)]
        assert removable_nodes(EMPTY) == []

    def test_removable_count_is_distinct_parts(self):
        for n in range(11):
            for p in enumerate_partitions(n):
                assert len(removable_nodes(p)) == len(set(p))

    def test_remove_then_add_restores(self):
        for n in range(1, 11):
            for p in enumerate_partitions(n):
                for node in removable_nodes(p):
                    assert add_node(remove_node(p, node), node) == p

    def test_bad_nodes_rejected(self):
        with pytest.raises(ValueError):
            remove_node(P(3, 3), Node(1, 3))
        with pytest.raises(ValueError):
            add_node(P(3, 1), Node(1, 3))


class TestClassifyShape:
    def test_examples(self):
        assert classify_shape(P(5)).tag == "linear"
        fh = classify_shape(P(4, 4, 2, 2))
        assert fh.tag == "fat-hook" and fh.has("proper-fat-hook")
        sq = classify_shape(P(3, 3, 3))
        assert sq.tag == "rectangle" and sq.has("fat-rectangle")

    def test_natural_labels(self):
        assert classify_shape(P(5, 1)).tag == "natural-label"
        assert classify_shape(P(2, 1, 1, 1, 1)).tag == "natural-label"

    def test_two_line_rectangle_flag(self):
        assert classify_shape(P(4, 4)).has("two-line-rectangle")
        assert classify_shape(P(2, 2, 2)).has("two-line-rectangle")
        assert not classify_shape(P(3, 3, 3)).has("two-line-rectangle")

    def test_near_rectangle_closed_under_conjugation(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                assert classify_shape(p).has("near-rectangle") == classify_shape(
                    conjugate(p)
                ).has("near-rectangle")

    def test_fat_hook_iff_at_most_two_part_values(self):
        fat_tags = {"linear", "natural-label", "two-line", "hook", "rectangle", "fat-hook"}
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                sc = classify_shape(p)
                if len(set(p)) <= 2:
                    assert sc.tag in fat_tags, p
                    assert is_fat_hook(p)
                else:
                    # three or more part values can still be two-line via width
                    if sc.tag not in ("two-line", "natural-label"):
                        assert sc.tag == "general", p

    def test_exactly_one_tag_total(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                assert classify_shape(p).tag


class TestShapePredicates:
    def test_same_on_a_partition_and_its_conjugate(self):
        # the pair classifier asks these of an operand in place of its conjugate
        for n in range(1, 15):
            for p in enumerate_partitions(n):
                for shape in (is_hook, is_rectangle, is_fat_hook):
                    assert shape(p) == shape(conjugate(p)), (shape.__name__, p)

    def test_read_from_the_ends_as_from_every_part(self):
        for n in range(15):
            for p in enumerate_partitions(n):
                assert is_rectangle(p) == (len(set(p)) <= 1), p
                assert is_fat_hook(p) == (len(set(p)) <= 2), p
                assert is_hook(p) == (bool(p) and all(part == 1 for part in p[1:])), p

    def test_near_rectangle_from_the_two_runs(self):
        # the reference deletes one part of p, or of its conjugate, and
        # asks for a rectangle
        def reference(p):
            if len(set(p)) != 2:
                return False
            return any(len(set(q[:i] + q[i + 1:])) <= 1 for q in (p, conjugate(p)) for i in range(len(q)))

        shapes = [p for n in range(19) for p in enumerate_partitions(n)]
        assert len(shapes) == 1597
        for p in shapes:
            assert is_near_rectangle(p) == reference(p), p


class TestHookCounts:
    def test_row_shape(self):
        for n in range(2, 8):
            h = hook_counts(P(n))
            assert h["h1"] == 1 and h["h2"] == 1 and h["h21"] == 0
            assert h["h3"] == (1 if n >= 3 else 0)

    def test_small_shapes(self):
        # frozen from direct hook-length enumeration of the diagrams
        assert hook_counts(P(2, 1)) == {"h1": 2, "h2": 0, "h3": 1, "h21": 1}
        assert hook_counts(P(2, 2)) == {"h1": 1, "h2": 2, "h3": 1, "h21": 1}

    def test_against_independent_enumeration(self):
        # arm and leg counted by explicit cell membership
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                cells = {(i, j) for i in range(1, len(p) + 1) for j in range(1, p[i - 1] + 1)}
                counts = {"h1": 0, "h2": 0, "h3": 0, "h21": 0}
                for (i, j) in cells:
                    arm = sum(1 for jj in range(j + 1, p.width + 1) if (i, jj) in cells)
                    leg = sum(1 for ii in range(i + 1, len(p) + 1) if (ii, j) in cells)
                    h = arm + leg + 1
                    if h <= 3:
                        counts[f"h{h}"] += 1
                    if h == 3 and arm == 1 and leg == 1:
                        counts["h21"] += 1
                assert hook_counts(p) == counts, p


class TestDimension:
    def test_examples(self):
        assert dimension(P(5)) == 1
        assert dimension(P(2, 1)) == 2
        assert dimension(P(3, 2)) == 5  # brute_syt_count agrees, frozen

    def test_matches_brute_force(self):
        for n in range(9):
            for p in enumerate_partitions(n):
                assert dimension(p) == brute_syt_count(p)

    def test_sum_rule(self):
        for n in range(11):
            assert sum(dimension(p) ** 2 for p in enumerate_partitions(n)) == factorial(n)

    def test_hook_length_formula_up_to_20(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                hooks = 1
                for i in range(1, len(p) + 1):
                    for j in range(1, p[i - 1] + 1):
                        hooks *= hook_length(p, i, j)
                assert dimension(p) * hooks == factorial(n), p


class TestEnumerate:
    def test_n4_order(self):
        assert enumerate_partitions(4) == [
            P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1),
        ]

    def test_n0(self):
        assert enumerate_partitions(0) == [EMPTY]

    def test_constraints(self):
        got = enumerate_partitions(5, max_length=4)
        assert len(got) == 6 and P(1, 1, 1, 1, 1) not in got
        assert all(p.width <= 3 for p in enumerate_partitions(7, max_width=3))

    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for n, count in enumerate(expected):
            assert len(enumerate_partitions(n)) == count

    def test_descending_lex_no_duplicates(self):
        for n in range(10):
            got = enumerate_partitions(n)
            assert got == sorted(set(got), reverse=True)

    @staticmethod
    def _brute(row_ranges, size):
        """Weakly decreasing rows of the given size, by filtering every choice."""
        return sorted(
            (Partition(rows) for rows in product(*row_ranges)
             if sum(rows) == size and all(a >= b for a, b in zip(rows, rows[1:]))),
            reverse=True,
        )

    def test_subpartitions_match_brute_force(self):
        for n in range(10):
            for p in enumerate_partitions(n):
                ranges = [range(part + 1) for part in p]
                for size in range(-1, n + 2):
                    assert list(iter_subpartitions(p, size)) == self._brute(ranges, size), (p, size)

    def test_constraints_match_brute_force(self):
        bounds = (None, 0, 1, 2, 3, 5)
        for n in range(13):
            # row i of a partition of n is at most n // i
            every = self._brute([range(n // i + 1) for i in range(1, n + 1)], n)
            for length in bounds:
                for width in bounds:
                    expected = [
                        p for p in every
                        if (length is None or len(p) <= length) and (width is None or p.width <= width)
                    ]
                    assert enumerate_partitions(n, length, width) == expected, (n, length, width)

    def test_long_box_without_recursion(self):
        assert list(iter_subpartitions(Partition((1,) * 5000), 4999)) == [Partition((1,) * 4999)]

    def test_negative_bound_gives_nothing(self):
        assert enumerate_partitions(3, max_length=-1) == []


class TestSplitRows:
    def test_examples(self):
        assert split_rows(P(5, 3, 1), {1, 3}) == (P(5, 1), P(3))
        assert split_rows(P(5, 3, 1), set()) == (EMPTY, P(5, 3, 1))
        assert split_rows(P(3, 3, 3), {2}) == (P(3), P(3, 3))

    def test_sizes_add_up(self):
        p = P(6, 4, 4, 2, 1)
        for idx in ({1}, {2, 4}, {1, 2, 3, 4, 5}):
            a, b = split_rows(p, idx)
            assert a.n + b.n == p.n

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            split_rows(P(3, 1), {3})


class TestSkewShapes:
    def test_validation(self):
        with pytest.raises(ValueError):
            SkewShape((2, 2), (3,))

    def test_normalize_connected(self):
        # neither 3,2/1 nor its rotation 3,2/1 is a partition diagram
        nf = skew_normalize(SkewShape((3, 2), (1,)))
        assert nf.basic == SkewShape((3, 2), (1,))
        assert nf.components == (None,) and nf.label is None

    def test_normalize_disconnected(self):
        nf = skew_normalize(SkewShape((4, 1), (1,)))
        assert nf.components == (P(3), P(1)) and nf.label is None

    def test_normalize_partition_diagram(self):
        nf = skew_normalize(SkewShape((2, 2), ()))
        assert nf.basic == SkewShape((2, 2), ()) and nf.components == (P(2, 2),) and nf.label == P(2, 2)
        # a rotated partition diagram: 2,2/1 rotates to 2,1
        nf = skew_normalize(SkewShape((2, 2), (1,)))
        assert nf.basic == SkewShape((2, 2), (1,)) and nf.components == (P(2, 1),) and nf.label == P(2, 1)

    def test_strip_empty_rows_and_columns(self):
        # (4,3,3)/(3,3,1) has an empty middle row and an empty first column
        nf = skew_normalize(SkewShape((4, 3, 3), (3, 3, 1)))
        assert nf.basic == SkewShape((3, 2), (2,))
        assert len(nf.components) == 2

    def test_zero_size(self):
        nf = skew_normalize(SkewShape((2, 1), (2, 1)))
        assert nf.basic.size == 0 and nf.components == ()

    def test_proper_examples(self):
        assert is_proper_skew(SkewShape((3, 2), (1,))) is True
        assert is_proper_skew(SkewShape((3, 3), (1,))) is False
        assert is_proper_skew(SkewShape((2, 2), ())) is False

    def test_rotation_involution(self):
        for size in range(1, 7):
            for s in enumerate_basic_skew_shapes(size):
                assert rotate_skew(rotate_skew(s)) == s

    def test_conjugate_is_the_checked_transpose_and_an_involution(self):
        shapes = seeded_skew_shapes(6113, 400)
        # not only basic shapes: empty rows and empty columns too
        assert any(len(skew_normalize(s).basic.outer) < len(s.outer) for s in shapes)
        assert any(skew_normalize(s).basic.outer.width < s.outer.width for s in shapes)
        for s in shapes:
            t = conjugate_skew(s)
            assert type(t) is SkewShape and t == SkewShape(conjugate(s.outer), conjugate(s.inner)), s
            assert _sized(t) and conjugate_skew(t) == s, s

    def test_conjugate_keeps_a_basic_shape_basic(self):
        for size in range(9):
            shapes = enumerate_basic_skew_shapes(size)
            assert set(map(conjugate_skew, shapes)) == set(shapes), size

    def test_basic_enumeration_matches_brute_force(self):
        for size in range(1, 6):
            brute = set()
            for outer_n in range(size, size * size + 1):
                for outer in enumerate_partitions(outer_n, max_length=size, max_width=size):
                    for inner in enumerate_partitions(outer_n - size):
                        if outer.contains(inner):
                            s = SkewShape(outer, inner)
                            if skew_normalize(s).basic == s:
                                brute.add(s)
            assert brute == set(enumerate_basic_skew_shapes(size))

    def test_equals_the_recursive_reference_in_order_up_to_size_10(self):
        for size in range(11):
            shapes = enumerate_basic_skew_shapes(size)
            assert shapes == _recursive_basic_shapes(size), size
            assert all(map(_sized, shapes)), size


def _recursive_basic_shapes(size):
    """Basic shapes by recursion over rows, with checked constructors only.

    Rows are column spans (a_i, b_i]; the basic conditions are a_i < b_i,
    a_i <= b_{i+1}, a and b weakly decreasing and a_last = 0.  The
    shapes come out in descending order of (b_1, a_1, b_2, a_2, ...).
    """
    if size == 0:
        return [SkewShape(EMPTY, EMPTY)]
    out = []

    def rec(rows, remaining):
        if remaining == 0:
            if rows[-1][0] == 0:
                out.append(SkewShape(Partition([b for a, b in rows]), Partition([a for a, b in rows])))
            return
        prev_a, prev_b = rows[-1]
        for b in range(prev_b, max(prev_a, 1) - 1, -1):
            for a in range(min(prev_a, b - 1), -1, -1):
                if b - a <= remaining:
                    rows.append((a, b))
                    rec(rows, remaining - (b - a))
                    rows.pop()

    for b in range(size, 0, -1):
        for a in range(b - 1, -1, -1):
            rec([(a, b)], size - (b - a))
    return out


def _reference_label(s):
    """The partition that a basic shape or its checked rotation is, or None."""
    rotated = _reference_rotation(s)
    return s.outer if s.inner == EMPTY else rotated.outer if rotated.inner == EMPTY else None


def _reference_normal_form(s):
    """The normal form from its definitions, with checked constructors only.

    Empty rows and columns are dropped by ranking the occupied columns;
    the components come from the flood fills of ``skew_components``, each
    labelled, as the basic form is, through ``_reference_rotation``.
    """
    rows = [(s.inner.row(i), part) for i, part in enumerate(s.outer, start=1)]
    rows = [(a, b) for a, b in rows if a < b]
    if not rows:
        return SkewNormalForm(SkewShape((), ()), (), EMPTY)
    rank = {c: k for k, c in enumerate(sorted({j for a, b in rows for j in range(a + 1, b + 1)}), start=1)}
    basic = SkewShape([rank[b] for a, b in rows], [rank[a + 1] - 1 for a, b in rows])
    return SkewNormalForm(basic, tuple(map(_reference_label, skew_components(basic))), _reference_label(basic))


def _reference_rotation(s):
    if s.size == 0:
        return SkewShape((), ())
    w, ell = s.outer.width, len(s.outer)
    return SkewShape(
        [w - s.inner.row(ell + 1 - r) for r in range(1, ell + 1)],
        [w - s.outer.row(ell + 1 - r) for r in range(1, ell + 1)],
    )


def _every_skew_shape(top):
    for n in range(top + 1):
        for outer in enumerate_partitions(n):
            for k in range(n + 1):
                for inner in iter_subpartitions(outer, k):
                    yield SkewShape(outer, inner)


def _sized(s):
    return s.size == s.outer.n - s.inner.n


class TestSkewNormalForm:
    """The normal form, built from row spans with unchecked parts, against
    the same form built from its definitions with the checked constructors."""

    def test_equals_the_reference_for_every_outer_up_to_size_9(self):
        shapes = list(_every_skew_shape(9))
        # not only basic shapes: empty rows and empty columns too
        assert any(len(skew_normalize(s).basic.outer) < len(s.outer) for s in shapes)
        assert any(skew_normalize(s).basic.outer.width < s.outer.width for s in shapes)
        for s in shapes:
            nf = skew_normalize(s)
            assert nf == _reference_normal_form(s), s
            assert all(c is None or type(c) is Partition for c in nf.components), s
            assert rotate_skew(s) == _reference_rotation(s), s
            assert all(map(_sized, (nf.basic, rotate_skew(s)))), s

    def test_normalizing_builds_at_most_the_basic_form(self, monkeypatch):
        # no rotation and no component shape: one unchecked shape, the
        # basic form, and none for a shape that is already basic
        calls = []
        for name in ("rotate_skew", "_unchecked_skew"):
            real = getattr(partitions_mod, name)
            monkeypatch.setattr(partitions_mod, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        for s in _every_skew_shape(9):
            calls.clear()
            nf = skew_normalize(s)
            assert calls == (["_unchecked_skew"] if nf.basic != s else []), s

    def test_a_basic_shape_is_its_own_basic_form(self):
        for s in enumerate_basic_skew_shapes(6):
            assert skew_normalize(s).basic is s

    def test_size_is_set_by_every_constructor(self):
        shapes = [SkewShape((4, 3, 1), (2, 1)), SkewShape((3,)), parse_skew("4,3,3/3,3,1"), parse_skew("2,1/2,1")]
        for s in list(shapes):
            shapes += [rotate_skew(s), skew_normalize(s).basic]
        shapes += list(_every_skew_shape(6))
        for s in shapes:
            assert _sized(s), s
            assert _sized(rotate_skew(s)), s
            assert _sized(skew_normalize(s).basic), s
        assert [s.size for s in shapes[:4]] == [5, 3, 3, 0]


class TestGrammar:
    def test_parse_examples(self):
        assert parse_partition("5,4,2^3,1") == P(5, 4, 2, 2, 2, 1)
        assert parse_partition("3^3") == P(3, 3, 3)
        assert parse_partition("") == EMPTY
        assert parse_partition(" 4 , 1 ") == P(4, 1)
        assert parse_partition("\t3^2 ,1\n") == P(3, 3, 1)
        assert parse_partition(" \t\n") == EMPTY

    def test_parse_rejects(self):
        for bad in ("2,3", "0", "a", "3^0", "-1", "3,,1"):
            with pytest.raises(ValueError):
                parse_partition(bad)
        # whitespace may surround a term but never joins its digits or its caret
        for bad in ("1 0", "1\t1", "4, 1 1", "3 ^2", "3^ 2", "2\n^2", "1\n0", "4\n1"):
            with pytest.raises(ValueError, match="bad partition term"):
                parse_partition(bad)
        with pytest.raises(ValueError, match="bad partition term '2 1'"):
            parse_skew("4,3/2 1")

    def test_parse_sizes_before_expanding(self):
        assert parse_partition("1000000").n == MAX_PARSED_SIZE
        assert parse_partition("1^1000000") == (1,) * MAX_PARSED_SIZE
        assert parse_partition("2^499999,1,1").n == MAX_PARSED_SIZE
        # none of these is ever expanded: 10^12 parts, a 10^9-wide row
        for big in ("1000001", "2^500000,1", "1^1000000000000", "1000000000", "5,4/1^10000000"):
            with pytest.raises(ValueError, match="exceeds the bound"):
                parse_skew(big)

    def test_format_examples(self):
        assert format_partition(P(4)) == "4"
        assert format_partition(P(2, 2)) == "2,2"
        assert format_partition(P(1, 1, 1, 1)) == "1^4"
        assert format_partition(P(5, 4, 2, 2, 2, 1)) == "5,4,2^3,1"

    def test_format_equals_the_index_walk(self):
        def by_index(p):
            # the run walk format_partition used before it read groupby runs
            if not p:
                return ""
            out = []
            i = 0
            while i < len(p):
                j = i
                while j < len(p) and p[j] == p[i]:
                    j += 1
                run = j - i
                out.append(f"{p[i]}^{run}" if run >= 3 else ",".join([str(p[i])] * run))
                i = j
            return ",".join(out)

        shapes = [p for n in range(19) for p in enumerate_partitions(n)]
        shapes += [P(*[part] * k) for part in (1, 2) for k in (1, 2, 3, 4, 10, 1000, 10**6)]
        for p in shapes:
            assert format_partition(p) == by_index(p)

    @given(partitions_st)
    def test_round_trip(self, p):
        assert parse_partition(format_partition(p)) == p

    def test_skew_grammar(self):
        s = parse_skew("4,3,1/2,1")
        assert s == SkewShape((4, 3, 1), (2, 1))
        assert parse_skew("4,1") == SkewShape((4, 1), ())
        assert parse_skew("4,1/") == SkewShape((4, 1), ())
        with pytest.raises(ValueError):
            parse_skew("3/1/1")


class TestDurfee:
    def test_examples(self):
        assert durfee_length(EMPTY) == 0
        assert durfee_length(P(1)) == 1
        assert durfee_length(P(4, 3, 1)) == 2
        assert durfee_length(P(3, 3, 3)) == 3

    def test_conjugation_invariant(self):
        for n in range(11):
            for p in enumerate_partitions(n):
                assert durfee_length(p) == durfee_length(conjugate(p))


def test_hook_length_spot():
    assert hook_length(P(3, 2), 1, 1) == 4
    assert hook_length(P(3, 2), 1, 2) == 3
    assert hook_length(P(3, 2), 2, 2) == 1
