import hashlib
from functools import partial

import pytest

from kronmf.characters import kron_oracle, kron_product_oracle
from kronmf.classification import (
    KK_N33_SMALL_EXCEPTIONS,
    _face,
    _pair_side,
    _skew_side,
    _triple_side,
    is_mf_pair,
    is_mf_skew_times_irr,
    is_mf_triple,
    kk_square,
    kk_times_hook_mult,
    kk_times_near,
    product_with_natural,
    small_depth_products,
    square_low_depth,
    staircase_square,
)
from kronmf.expansion import CharacterExpansion
from kronmf.kronecker import g_dvir, g_max, kron_product, multiply_expansions
from kronmf.littlewood_richardson import is_mf_skew, skew_expand
from kronmf.partitions import (
    Partition,
    SkewShape,
    conjugate,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    is_fat_hook,
    is_linear,
    is_near_rectangle,
    is_rectangle,
    iter_subpartitions,
    skew_normalize,
)


def P(*parts):
    return Partition(parts)


def irr(*parts):
    return CharacterExpansion.irreducible(P(*parts))


def low_depth(n, depths):
    """The partitions of n whose depth n - lam_1 lies in depths."""
    return [P(n - d, *bar) for d in depths for bar in enumerate_partitions(d)]


def low_depth_and_conjugates(n, depths):
    """``low_depth`` and the conjugates of its partitions, descending."""
    return sorted({q for p in low_depth(n, depths) for q in (p, conjugate(p))}, reverse=True)


class TestIsMfPair:
    def test_linear_clause(self):
        v = is_mf_pair(P(6), P(3, 2, 1))
        assert v and v.clause == "pair-case-1"
        v = is_mf_pair(P(1, 1, 1, 1), P(2, 1, 1))
        assert v and v.clause == "pair-case-1" and "conjugate-left" in v.normalization

    def test_square_counterexample(self):
        assert not is_mf_pair(P(4, 2), P(4, 2))

    def test_hook_with_two_row_rectangle(self):
        v = is_mf_pair(P(3, 3), P(4, 1, 1))
        assert v and v.clause == "pair-case-4"

    def test_exceptional_pairs(self):
        for a, b in ((P(3, 3, 3), P(6, 3)), (P(3, 3, 3), P(5, 4)), (P(4, 4, 4), P(6, 6))):
            v = is_mf_pair(a, b)
            assert v and v.clause == "pair-case-6"
            assert g_max(a, b) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_mf_pair(P(3), P(2, 2))

    def test_conjugation_coherence_exhaustive(self):
        for n in range(1, 10):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    base = bool(is_mf_pair(lam, mu))
                    assert base == bool(is_mf_pair(conjugate(lam), mu))
                    assert base == bool(is_mf_pair(lam, conjugate(mu)))
                    assert base == bool(is_mf_pair(conjugate(lam), conjugate(mu)))
                    assert base == bool(is_mf_pair(mu, lam))

    def test_matches_dvir_beyond_the_table(self):
        # Every pair of depth <= 4 at n = 20 and 30 (78 pairs per n).
        # [lam].[mu'] is the conjugate of [lam].[mu], so the same
        # product also settles the predicate's conjugate clauses.
        for n in (20, 30):
            parts = low_depth(n, range(5))
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    mf = kron_product(lam, mu, "dvir").is_multiplicity_free()
                    assert bool(is_mf_pair(lam, mu)) == mf, (lam, mu)
                    assert bool(is_mf_pair(lam, conjugate(mu))) == mf, (lam, mu)

    def test_every_clause_has_an_anchor(self, monkeypatch):
        # with the early reject off, every positive verdict at n <= 14 has
        # an operand that is an anchor or an anchor's conjugate, and the
        # verdicts equal those with the reject on; a clause added without
        # an anchor fails here
        from kronmf import classification

        class EveryFace:
            """An anchor set that holds every face: the reject never fires."""

            def isdisjoint(self, faces):
                return False

        def pairs():
            for n in range(1, 15):
                parts = enumerate_partitions(n)
                for lam in parts:
                    for mu in parts:
                        yield lam, mu

        expected = [is_mf_pair(lam, mu) for lam, mu in pairs()]
        pair_clauses = classification._pair_clauses
        monkeypatch.setattr(classification, "_pair_clauses", lambda n: (EveryFace(), pair_clauses(n)[1]))
        for (lam, mu), v in zip(pairs(), expected, strict=True):
            assert is_mf_pair(lam, mu) == v, (lam, mu)
            if v:
                anchors, _ = pair_clauses(lam.n)
                assert any(
                    len(q) <= 3 and (*q, 0, 0)[:3] in anchors
                    for q in (lam, conjugate(lam), mu, conjugate(mu))
                ), (lam, mu)

    def test_verdict_invariants(self):
        v = is_mf_pair(P(4, 2), P(4, 2))
        assert v.clause is None and not v.multiplicity_free

    def test_face_is_the_padded_partition_or_its_conjugate(self):
        # the face is read from part counts; checked against the conjugate,
        # which has at most three rows iff p_1 <= 3
        def padded(q):
            return (*q, 0, 0)[:3] if len(q) <= 3 else ()

        long_ones = [P(*(a,) * k) for a in (1, 2, 3) for k in (1, 2, 3, 4, 10**3, 10**6)]
        for p in [q for n in range(1, 15) for q in enumerate_partitions(n)] + long_ones:
            assert _face(p, False) == padded(p), p
            assert _face(p, True) == padded(conjugate(p)), p

    def test_run_ends_by_bisection_equal_the_part_counts(self):
        # the count-based forms that the bisections replaced, kept as the
        # reference: each counts a part value through the whole tuple
        def face(p):
            return (len(p), len(p) - p.count(1), p.count(3)) if p[0] <= 3 else ()

        def fat_hook(p):
            return is_rectangle(p) or p.count(p[0]) + p.count(p[-1]) == len(p)

        def near_rectangle(p):
            if is_rectangle(p) or not fat_hook(p):
                return False
            x = p.count(p[0])
            return 1 in (x, len(p) - x, p[-1], p[0] - p[-1])

        shapes = [q for n in range(1, 19) for q in enumerate_partitions(n)]
        for k in (1, 2, 3, 10, 10**3, 10**6):
            shapes += [P(*(1,) * k), P(2, *(1,) * k), P(*(3,) * k, *(1,) * k)]
        for p in shapes:
            assert _face(p, True) == face(p), p
            assert is_fat_hook(p) == fat_hook(p), p
            assert is_near_rectangle(p) == near_rectangle(p), p

    def test_builds_no_conjugate(self, monkeypatch):
        from kronmf import classification, partitions

        def refuse(p):
            raise AssertionError(f"conjugate of {len(p)} parts built")

        n = 10**6
        small = [(lam, mu) for m in range(1, 11) for lam in enumerate_partitions(m) for mu in enumerate_partitions(m)]
        huge = [(P(n - 1, 1), P(n - 1, 1)), (P(n - 2, 2), P(n - 3, 3)), (P(n - 4, 2, 2), P(n - 2, 1, 1))]
        for k in (1, 2, 3):
            q = P(*(k,) * n)
            huge += [(q, q), (q, P(k * n - 1, 1)), (P(k * n // 2 + 1, k * n // 2 - 1), q)]
        expected = [is_mf_pair(lam, mu) for lam, mu in small + huge]
        assert [v.clause for v in expected[len(small):]] == [
            "pair-case-2", None, None,
            "pair-case-1", "pair-case-1", "pair-case-1",
            "pair-case-3", "pair-case-2", "pair-case-4",
            None, "pair-case-2", None,
        ]
        monkeypatch.setattr(classification, "conjugate", refuse)
        monkeypatch.setattr(partitions, "conjugate", refuse)
        assert [is_mf_pair(lam, mu) for lam, mu in small + huge] == expected
        # nor does a side built once per lam and asked about each mu
        sides = {}
        for lam, _ in small + huge:
            if lam not in sides:
                sides[lam] = _pair_side(lam, lam.n)
        assert [sides[lam](mu) for lam, mu in small + huge] == expected


class TestIsMfTriple:
    def test_degree_zero_rejected_with_the_pair(self):
        # the pair and triple predicates, and so their sides, start at
        # degree 1; a skew shape of size 0 has its own clause
        for ask in (
            lambda: is_mf_pair(P(), P()),
            lambda: is_mf_triple(P(), P(), P()),
            lambda: _pair_side(P(), 0),
            lambda: _triple_side(P(), P(), 0),
        ):
            with pytest.raises(ValueError, match="degree must be at least 1"):
                ask()
        assert is_mf_skew_times_irr(SkewShape((), ()), P()).clause == "skew-irr-empty"

    def test_all_nonlinear_is_never_mf(self):
        assert not is_mf_triple(P(3, 1), P(2, 2), P(2, 1, 1))

    def test_trivial_operand_defers_to_pair(self):
        v = is_mf_triple(P(4), P(2, 2), P(3, 1))
        assert v and v.clause.startswith("triple-reduced:")

    def test_sign_operand_conjugates(self):
        v = is_mf_triple(P(1, 1, 1, 1), P(2, 2), P(3, 1))
        assert bool(v) == bool(is_mf_pair(conjugate(P(2, 2)), P(3, 1)))

    def test_two_linear_operands(self):
        assert is_mf_triple(P(4), P(1, 1, 1, 1), P(2, 2))
        assert is_mf_triple(P(4), P(1, 1, 1, 1), P(4))

    def test_matches_dvir_beyond_the_table(self):
        # every triple lam >= mu >= nu at n = 20 over the 14 operands of
        # depth <= 3 and their conjugates: 560 triples, each product from
        # Dvir ([lam].[mu], then times [nu])
        ops = low_depth_and_conjugates(20, range(4))
        assert len(ops) == 14
        verdicts = []
        for i, lam in enumerate(ops):
            for j, mu in enumerate(ops[i:], i):
                pair = kron_product(lam, mu, "dvir")
                for nu in ops[j:]:
                    mf = multiply_expansions(pair, CharacterExpansion.irreducible(nu), "dvir").is_multiplicity_free()
                    assert bool(is_mf_triple(lam, mu, nu)) == mf, (lam, mu, nu)
                    verdicts.append(mf)
        assert len(verdicts) == 560 and set(verdicts) == {True, False}


class TestIsMfSkewTimesIrr:
    def test_staircase_strip_case(self):
        v = is_mf_skew_times_irr(SkewShape((3, 2), (1,)), P(2, 2))
        assert v and v.clause == "skew-irr-case-3"
        product = multiply_expansions(skew_expand(SkewShape((3, 2), (1,))), irr(2, 2))
        assert product == irr(4) + irr(3, 1) + irr(2, 2) + irr(2, 1, 1) + irr(1, 1, 1, 1)

    def test_row_box_case(self):
        # [3] x [1] realized by the shape (4,1)/(1)
        v = is_mf_skew_times_irr(SkewShape((4, 1), (1,)), P(2, 2))
        assert v and v.clause == "skew-irr-case-2"
        product = multiply_expansions(skew_expand(SkewShape((4, 1), (1,))), irr(2, 2))
        assert product == irr(3, 1) + irr(2, 2) + irr(2, 1, 1)

    def test_mf_skew_with_linear(self):
        # (3,3,1)/(1) is proper (its rotation is (3,3,2)/(2)) and mf
        shape = SkewShape((3, 3, 1), (1,))
        assert skew_expand(shape).is_multiplicity_free()
        v = is_mf_skew_times_irr(shape, P(1, 1, 1, 1, 1, 1))
        assert v and v.clause == "skew-irr-case-1"

    def test_non_proper_defers_to_pair(self):
        v = is_mf_skew_times_irr(SkewShape((3, 1), ()), P(2, 2))
        assert v.clause == "skew-irr-reduced:pair-case-2"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_mf_skew_times_irr(SkewShape((3, 2), (1,)), P(2, 2, 1))

    def test_proper_skew_times_nonmatching_rect(self):
        shape = SkewShape((3, 3, 1), (1,))
        v = is_mf_skew_times_irr(shape, P(2, 2, 2))
        assert not v
        product = multiply_expansions(skew_expand(shape), irr(2, 2, 2))
        assert not product.is_multiplicity_free()

    def test_matches_dvir_beyond_the_table(self):
        # the 119 basic two-row shapes of size 20, rows (d + r, 20 - r)/(d),
        # each offset d from the least that keeps the outer parts weakly
        # decreasing to the most that leaves no empty column, times the 14
        # alpha of depth <= 3 and their conjugates: 1,666 products from Dvir
        n = 20
        shapes = [SkewShape((d + r, n - r), (d,)) for r in range(1, n) for d in range(max(0, n - 2 * r), n - r + 1)]
        assert len(shapes) == 119 and all(skew_normalize(s).basic == s for s in shapes)
        verdicts = []
        for s in shapes:
            chi = skew_expand(s)
            for alpha in low_depth_and_conjugates(n, range(4)):
                mf = multiply_expansions(chi, CharacterExpansion.irreducible(alpha), "dvir").is_multiplicity_free()
                assert bool(is_mf_skew_times_irr(s, alpha)) == mf, (s, alpha)
                verdicts.append(mf)
        assert len(verdicts) == 1666 and set(verdicts) == {True, False}

    def test_expands_only_for_alphas_a_clause_reads(self, monkeypatch):
        # A timing-free gate: only a rectangular alpha, or (k,k) / (2^k),
        # reaches a clause that reads the expansion, so every other alpha
        # is settled before skew_expand.  Expanding for every alpha would
        # make 2,794 calls here.
        import kronmf.classification as classification
        from kronmf.verify import verify_skew

        calls = []
        monkeypatch.setattr(
            classification, "skew_expand", lambda s: calls.append(s) or skew_expand(s)
        )
        from kronmf.littlewood_richardson import _lr_counts

        _lr_counts.cache_clear()
        assert verify_skew(6).ok
        # the sweep expands one shape per orbit {s, s°, s', (s')°} of the
        # 272 and hands each side its character, so no side expands
        assert _lr_counts.cache_info().misses == 80 and not calls

        # a side expands at the first alpha a clause reads, and only then
        for n in range(7):
            alphas = enumerate_partitions(n)
            unread = [a for a in alphas if not is_rectangle(a) and a not in (P(n // 2, n // 2), P(*(2,) * (n // 2)))]
            for s in enumerate_basic_skew_shapes(n):
                calls.clear()
                side = _skew_side(skew_normalize(s), n)
                for alpha in unread:
                    side(alpha)
                assert not calls, s
                for alpha in alphas:
                    side(alpha)
                assert len(calls) <= 1, s


def _pair_verdicts():
    for n in range(1, 13):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                yield is_mf_pair(lam, mu)


def _basic_skew_verdicts():
    for size in range(8):
        alphas = enumerate_partitions(size)
        for s in enumerate_basic_skew_shapes(size):
            for alpha in alphas:
                yield is_mf_skew_times_irr(s, alpha)


def _skew_verdicts():
    for m in range(8):
        for outer in enumerate_partitions(m):
            for k in range(m + 1):
                for inner in iter_subpartitions(outer, k):
                    s = SkewShape(outer, inner)
                    for alpha in enumerate_partitions(m - k):
                        yield is_mf_skew_times_irr(s, alpha)


def _basic_shape_verdicts():
    for size in range(10):
        yield from map(is_mf_skew, enumerate_basic_skew_shapes(size))


def _shape_verdicts():
    for m in range(10):
        for outer in enumerate_partitions(m):
            for k in range(m + 1):
                for inner in iter_subpartitions(outer, k):
                    yield is_mf_skew(SkewShape(outer, inner))


@pytest.mark.parametrize(
    "verdicts, count, digest",
    [
        (_pair_verdicts, 12647, "bfa37c69c9cdd3334ef03f725e4ea445514884caf28f5f38b4ac9cf3412aa933"),
        (_basic_skew_verdicts, 16526, "8faad9033bb075137f109a44ae95c49411a726b7cd1c506d2f379bab051de4c6"),
        (_skew_verdicts, 1723, "eb41848df0214d422957d66d710fdc4ad85f230606c4be7cf8ad9dad7e1ef9b0"),
        (_basic_shape_verdicts, 12228, "b21e54c299804a1392d34d523088d2ba0b5704d073bee40ab5699caaed11c539"),
        (_shape_verdicts, 1592, "cbdea1f17109e2c55e583485c4ba5612746ac8c906ca01b68a6d4d3a7e33f395"),
    ],
    ids=["pairs-n-le-12", "basic-skew-size-le-7", "skew-outer-le-7", "is-mf-skew-basic-le-9", "is-mf-skew-outer-le-9"],
)
def test_verdict_digest_frozen(verdicts, count, digest):
    # every (clause, normalization) in a fixed order: pair verdicts on
    # ordered pairs, skew-times-irreducible verdicts on shapes x alpha,
    # is_mf_skew verdicts on shapes.
    # The digests were taken from the clause-per-call predicates, so any
    # change to a verdict or to its tags changes them.
    h = hashlib.sha256()
    seen = 0
    for v in verdicts():
        h.update(repr((v.clause, v.normalization)).encode() + b"\n")
        seen += 1
    assert seen == count
    assert h.hexdigest() == digest


def _pad(bar, n):
    return P(n - bar.n, *bar)


def _pair_rows():
    for n in range(1, 13):
        parts = enumerate_partitions(n)
        for lam in parts:
            yield partial(_pair_side, lam, n), parts, partial(is_mf_pair, lam)


def _triple_rows():
    # every ordered triple at n <= 8, then every lam >= mu >= nu at n = 12
    # in the sweep's rows
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                yield partial(_triple_side, lam, mu, n), parts, partial(is_mf_triple, lam, mu)
    parts = enumerate_partitions(12)
    for i, lam in enumerate(parts):
        for j in range(i, len(parts)):
            yield partial(_triple_side, lam, parts[j], 12), parts[j:], partial(is_mf_triple, lam, parts[j])


def _skew_rows():
    for n in range(9):
        alphas = enumerate_partitions(n)
        for s in enumerate_basic_skew_shapes(n):
            yield partial(_skew_side, skew_normalize(s), n), alphas, partial(is_mf_skew_times_irr, s)


def _stable_tail_rows():
    # the tails of ``TestStability``, each pair at N0 and at 10^6: lam's
    # side asked about mu and about lam itself
    tails = [p for d in range(6) for p in enumerate_partitions(d)]
    for i, a in enumerate(tails):
        for b in tails[i:]:
            n0 = a.n + b.n + a.width + b.width
            for n in (n0, 10**6):
                if n:
                    lam = _pad(a, n)
                    yield partial(_pair_side, lam, n), [_pad(b, n), lam], partial(is_mf_pair, lam)


@pytest.mark.parametrize(
    "rows, count, digest",
    [
        (_pair_rows, 12647, "bfa37c69c9cdd3334ef03f725e4ea445514884caf28f5f38b4ac9cf3412aa933"),
        (_triple_rows, 94937, "4399b98cb384a9714ffe3b107e20a8777a56fe18a79c9551df6e92e731d4c629"),
        (_skew_rows, 75024, "26b1cfcc626dc32bba722a79731d35962957d8cb4608e80bd184a9776a7c98b5"),
        (_stable_tail_rows, 758, "c0583de4b5d2df52bba4af91f137ca69a376acf4c20bf6648172e150f20f4f3a"),
    ],
    ids=["pairs-n-le-12", "triples-n-le-8-and-12", "basic-skew-size-le-8", "stable-tails"],
)
def test_side_answers_its_row_as_the_predicate(rows, count, digest):
    # A public predicate is its degree or size check and then its side
    # function; a sweep builds one side per fixed operand and asks it
    # about a whole row.  So a side asked about the row, in order and
    # (a new one) in reverse, must give the verdict the predicate gives
    # each operand, whatever it read first.  The digests of the
    # predicate's (clause, normalization) were taken from the predicates
    # that derived every fact once per call, before the sides.
    h = hashlib.sha256()
    seen = 0
    for build, operands, predicate in rows():
        expected = list(map(predicate, operands))
        assert list(map(build(), operands)) == expected
        assert list(map(build(), reversed(operands))) == expected[::-1]
        for v in expected:
            h.update(repr((v.clause, v.normalization)).encode() + b"\n")
        seen += len(expected)
    assert seen == count
    assert h.hexdigest() == digest


def test_side_handed_its_character_answers_as_the_predicate():
    # the skew sweep hands each basic shape's side the character its
    # orbit walk holds for the shape; every verdict, clause and
    # normalization included, is the predicate's
    from kronmf.verify import _skew_characters

    for n in range(9):
        alphas = enumerate_partitions(n)
        for s, chi in _skew_characters(n):
            side = _skew_side(skew_normalize(s), n, chi)
            assert list(map(side, alphas)) == [is_mf_skew_times_irr(s, alpha) for alpha in alphas], s


class TestProductWithNatural:
    def test_natural_square(self):
        assert product_with_natural(P(3, 1)) == irr(4) + irr(3, 1) + irr(2, 2) + irr(2, 1, 1)

    def test_trivial(self):
        for n in (3, 5, 8):
            assert product_with_natural(P(n)) == irr(*([n - 1, 1]))

    def test_two_by_two(self):
        # oracle says [2,2].[3,1] = [3,1] + [2,1,1]
        assert product_with_natural(P(2, 2)) == irr(3, 1) + irr(2, 1, 1)
        assert kron_product_oracle(P(2, 2), P(3, 1)) == irr(3, 1) + irr(2, 1, 1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            product_with_natural(P(2))

    def test_self_multiplicity_is_removable_count_minus_one(self):
        for n in range(3, 10):
            for mu in enumerate_partitions(n):
                exp = product_with_natural(mu)
                assert exp[mu] == len(set(mu)) - 1

    def test_matches_oracle(self):
        for n in range(3, 10):
            nat = P(n - 1, 1)
            for mu in enumerate_partitions(n):
                assert product_with_natural(mu) == kron_product_oracle(mu, nat), mu

    def test_matches_dvir_beyond_the_table(self):
        for n in (20, 30):
            nat = P(n - 1, 1)
            for mu in low_depth(n, range(4)):
                assert product_with_natural(mu) == kron_product(mu, nat, "dvir"), mu


class TestTwoRowClosedForms:
    def test_staircase_k2(self):
        got = staircase_square(2)
        assert got == CharacterExpansion(
            5, {p: 1 for p in enumerate_partitions(5) if len(p) <= 4}
        )
        assert P(1, 1, 1, 1, 1) not in got

    def test_kk_k2(self):
        assert kk_square(2) == irr(4) + irr(2, 2) + irr(1, 1, 1, 1)

    def test_kk_near_k2(self):
        assert kk_times_near(2) == irr(3, 1) + irr(2, 1, 1)

    def test_against_oracle_k_up_to_6(self):
        for k in range(2, 7):
            assert staircase_square(k) == kron_product_oracle(P(k + 1, k), P(k + 1, k))
            assert kk_square(k) == kron_product_oracle(P(k, k), P(k, k))
            assert kk_times_near(k) == kron_product_oracle(P(k, k), P(k + 1, k - 1))

    def test_against_dvir_beyond_the_table(self):
        for k in range(7, 11):
            assert staircase_square(k) == kron_product(P(k + 1, k), P(k + 1, k), "dvir"), k
            assert kk_square(k) == kron_product(P(k, k), P(k, k), "dvir"), k
            assert kk_times_near(k) == kron_product(P(k, k), P(k + 1, k - 1), "dvir"), k

    def test_complement_identity(self):
        for k in range(1, 7):
            n = 2 * k
            whole = CharacterExpansion(
                n, {p: 1 for p in enumerate_partitions(n, max_length=4)}
            )
            assert kk_square(k) + kk_times_near(k) == whole


class TestKkTimesHook:
    def test_durfee_three_vanishes(self):
        assert kk_times_hook_mult(5, 2, P(4, 3, 3)) == 0
        assert kron_oracle(P(5, 5), P(8, 1, 1), P(4, 3, 3)) == 0
        assert kk_times_hook_mult(5, 4, P(3, 3, 3, 1)) == 0

    def test_mf_guarantee_and_oracle_sweep_small(self):
        for k in (2, 3):
            n = 2 * k
            for b in range(n):
                hook = P(*([n - b] + [1] * b))
                for nu in enumerate_partitions(n):
                    got = kk_times_hook_mult(k, b, nu)
                    assert got in (0, 1)
                    assert got == kron_oracle(P(k, k), hook, nu), (k, b, nu)

    def test_hook_rule_against_dvir(self):
        # every hook constituent of [k,k].[n-b,1^b], past the table at k = 8
        for k in range(1, 9):
            n = 2 * k
            hooks = [P(*([n - c] + [1] * c)) for c in range(n)]
            for b, hook in enumerate(hooks):
                product = kron_product(P(k, k), hook, "dvir")
                for c, nu in enumerate(hooks):
                    assert kk_times_hook_mult(k, b, nu) == product[nu], (k, b, c)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kk_times_hook_mult(3, 6, P(3, 3))  # b out of range
        with pytest.raises(ValueError):
            kk_times_hook_mult(3, 1, P(3, 2))  # degree mismatch


class TestSmallDepthProducts:
    def test_rect_n22_a3_b3(self):
        got = small_depth_products("rect-times-n22", a=3, b=3)
        expected = (
            irr(3, 3, 3) + irr(3, 3, 2, 1) + irr(3, 2, 2, 1, 1) + irr(4, 3, 2)
            + irr(4, 2, 2, 1) + irr(5, 3, 1) + irr(4, 3, 1, 1)
        )
        assert got == expected
        assert got == kron_product_oracle(P(7, 2), P(3, 3, 3))

    def test_rect_n212_a2_b2(self):
        got = small_depth_products("rect-times-n212", a=2, b=2)
        assert got == irr(3, 1) + irr(2, 1, 1)
        assert got == kron_product_oracle(P(2, 1, 1), P(2, 2))

    def test_oracle_sweep_all_small_rectangles(self):
        for a in range(2, 7):
            for b in range(2, 7):
                n = a * b
                if n > 12:
                    continue
                if n >= 6:
                    got = small_depth_products("rect-times-n22", a=a, b=b)
                    assert got == kron_product_oracle(P(*([n - 2, 2])), P(*([a] * b))), (a, b)
                if a >= b:
                    got = small_depth_products("rect-times-n212", a=a, b=b)
                    assert got == kron_product_oracle(P(*([n - 2, 1, 1])), P(*([a] * b))), (a, b)

    def test_kk_n33_small_range_matches_oracle(self):
        for k in (3, 4, 5, 6, 7):
            got = small_depth_products("kk-times-n33", k=k)
            assert got == kron_product_oracle(P(2 * k - 3, 3), P(k, k))

    def test_kk_n33_closed_form_above_16(self):
        from kronmf.partitions import dimension

        for k in (9, 10):
            n = 2 * k
            got = small_depth_products("kk-times-n33", k=k)
            assert len(got) == 11 and got.is_multiplicity_free()
            assert got.total_dimension() == dimension(P(n - 3, 3)) * dimension(P(k, k))

    def test_kk_n33_closed_form_matches_dvir(self):
        for k in (*range(3, 11), 12, 15):
            got = small_depth_products("kk-times-n33", k=k)
            assert got == kron_product(P(2 * k - 3, 3), P(k, k), "dvir"), k

    def test_rect_closed_forms_match_dvir(self):
        for a, b in ((4, 4), (5, 4), (6, 4), (5, 5), (6, 3), (7, 3), (8, 3), (4, 5)):
            n = a * b
            rect = P(*([a] * b))
            got = small_depth_products("rect-times-n22", a=a, b=b)
            assert got == kron_product(P(n - 2, 2), rect, "dvir"), (a, b)
            if a >= b:
                got = small_depth_products("rect-times-n212", a=a, b=b)
                assert got == kron_product(P(n - 2, 1, 1), rect, "dvir"), (a, b)

    def test_small_n_exception_list(self):
        # at 6 <= n <= 9 the mf partners of [n-3,3] among non-linear,
        # non-natural labels are (k,k) plus the listed exceptions
        for n in range(6, 10):
            two = P(n - 3, 3)
            expected = set()
            if n % 2 == 0:
                kk = P(n // 2, n // 2)
                expected |= {kk, conjugate(kk)}
            for lam in KK_N33_SMALL_EXCEPTIONS:
                if lam.n == n:
                    expected |= {lam, conjugate(lam)}
            natural = P(n - 1, 1)
            got = {
                lam
                for lam in enumerate_partitions(n)
                if not is_linear(lam)
                and lam != natural
                and conjugate(lam) != natural
                and kron_product_oracle(two, lam).is_multiplicity_free()
            }
            assert got == expected, n

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            small_depth_products("rect-times-n22", a=2, b=2)
        with pytest.raises(ValueError):
            small_depth_products("rect-times-n212", a=2, b=3)
        with pytest.raises(ValueError):
            small_depth_products("kk-times-n33", k=2)
        with pytest.raises(ValueError):
            small_depth_products("mystery", a=2, b=2)


class TestSquareLowDepth:
    def test_small_examples(self):
        got = square_low_depth(P(2, 1))
        assert got.a1 == 1 and got.b2 == 1
        assert got.a2 is None and got.a3 is None and got.c3 is None
        got = square_low_depth(P(2, 2))
        assert (got.a1, got.a2, got.b2, got.b3) == (0, 1, 0, 1)
        assert got.a3 is None and got.c3 is None

    def test_rejects_linear(self):
        with pytest.raises(ValueError):
            square_low_depth(P(5))
        with pytest.raises(ValueError):
            square_low_depth(P(1, 1, 1))

    def test_oracle_sweep(self):
        for n in range(4, 11):
            targets = {
                "a1": P(n - 1, 1),
                "a2": P(n - 2, 2),
                "b2": P(n - 2, 1, 1),
                "a3": P(n - 3, 3) if n >= 6 else None,
                "b3": P(n - 3, 1, 1, 1),
                "c3": P(n - 3, 2, 1) if n >= 5 else None,
            }
            for lam in enumerate_partitions(n):
                if is_linear(lam):
                    continue
                got = square_low_depth(lam)
                square = kron_product_oracle(lam, lam)
                for name, target in targets.items():
                    coeff = getattr(got, name)
                    if coeff is None or target is None:
                        continue
                    assert coeff == square[target], (lam, name)

    def test_dvir_beyond_the_table(self):
        for n in (20, 30):
            targets = {
                "a1": P(n - 1, 1),
                "a2": P(n - 2, 2),
                "b2": P(n - 2, 1, 1),
                "a3": P(n - 3, 3),
                "b3": P(n - 3, 1, 1, 1),
                "c3": P(n - 3, 2, 1),
            }
            for lam in low_depth(n, (1, 2, 3)):
                got = square_low_depth(lam)
                for name, target in targets.items():
                    assert getattr(got, name) == g_dvir(lam, lam, target), (lam, name)

    def test_a2_positive_from_degree_4(self):
        for n in range(4, 11):
            for lam in enumerate_partitions(n):
                if is_linear(lam):
                    continue
                assert square_low_depth(lam).a2 > 0
