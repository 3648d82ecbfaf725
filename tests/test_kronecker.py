import hashlib
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from kronmf import characters, classification, kronecker
from kronmf.characters import kron_oracle, kron_product_oracle
from kronmf.expansion import CharacterExpansion
from kronmf.kronecker import (
    SemigroupWitness,
    g_at_max_width,
    g_dvir,
    g_max,
    kron_coefficient,
    kron_product,
    max_width,
    multiply_expansions,
    semigroup_bound,
    virtual_extension_chi,
    y_set,
)
from kronmf.littlewood_richardson import _lr_counts, skew_expand
from kronmf.partitions import (
    EMPTY,
    Partition,
    SkewShape,
    canonical_pair,
    conjugate,
    enumerate_partitions,
    intersect,
    is_linear,
    iter_subpartitions,
    partition_sum,
)


def P(*parts):
    return Partition(parts)


def _calls(monkeypatch, name):
    """Record the arguments of every call to ``kronecker.<name>``."""
    calls = []
    kernel = getattr(kronecker, name)
    monkeypatch.setattr(kronecker, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


class TestMaxWidth:
    def test_examples(self):
        assert max_width(P(3, 3), P(4, 2)) == 5
        assert max_width(P(3, 1, 1, 1), P(4, 2)) == 4
        for lam in enumerate_partitions(6):
            assert max_width(lam, lam) == 6

    def test_mismatch(self):
        with pytest.raises(ValueError):
            max_width(P(3), P(2, 2))

    def test_full_row_appears_iff_equal(self):
        for n in range(1, 7):
            parts = enumerate_partitions(n)
            whole = P(n)
            for lam in parts:
                for mu in parts:
                    expected = 1 if lam == mu else 0
                    assert kron_oracle(lam, mu, whole) == expected
                    assert g_dvir(lam, mu, whole) == expected


class TestYSet:
    def test_examples(self):
        assert [tuple(e) for e in y_set(P(3, 2, 1))] == [
            (5, 1), (4, 2), (4, 1, 1), (3, 2, 1),
        ]
        assert y_set(P(5)) == (P(5),)
        assert set(y_set(P(1, 1))) == {P(1, 1), P(2)}

    def test_matches_interleaving_definition(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for nu in parts:
                def interleaves(eta):
                    for i in range(1, max(len(eta), len(nu)) + 1):
                        if not (eta.row(i) >= nu.row(i + 1) >= eta.row(i + 1)):
                            return False
                    return True

                expected = sorted((e for e in parts if interleaves(e)), reverse=True)
                assert list(y_set(nu)) == expected

    def test_members_include_base_and_larger_heads(self):
        for nu in enumerate_partitions(7):
            members = y_set(nu)
            assert nu in members
            assert all(e == nu or e[0] > nu[0] for e in members)


class TestDvir:
    def test_examples(self):
        assert g_dvir(P(2, 1), P(2, 1), P(2, 1)) == 1
        assert g_dvir(P(3, 3, 3), P(3, 3, 3), P(5, 2, 2)) == 2

    def test_g_at_max_width(self):
        assert g_at_max_width(P(3, 3), P(4, 2), P(5, 1)) == 1
        assert kron_oracle(P(3, 3), P(4, 2), P(5, 1)) == 1
        for lam in enumerate_partitions(5):
            assert g_at_max_width(lam, lam, P(5)) == 1
        assert g_at_max_width(P(3, 3, 3), P(3, 3, 3), P(9)) == 1

    def test_g_at_max_width_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            g_at_max_width(P(3, 3), P(4, 2), P(4, 2))

    def test_engine_equivalence_exhaustive(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    assert kron_product(lam, mu, "dvir") == kron_product(lam, mu, "oracle")

    def test_width_bound_attained_and_respected(self):
        for n in range(1, 7):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    w = max_width(lam, mu)
                    exp = kron_product(lam, mu, "dvir")
                    widths = [nu[0] for nu in exp.support()]
                    assert max(widths) == w

    def test_deterministic_across_threads(self):
        lam, mu = P(4, 3, 2), P(5, 2, 2)
        nus = enumerate_partitions(9)

        def work(nu):
            return g_dvir(lam, mu, nu)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, nus * 2))
        assert results[: len(nus)] == results[len(nus):]
        assert results[: len(nus)] == [kron_oracle(lam, mu, nu) for nu in nus]

    def test_swapped_operands_reuse_the_memo(self, cold_memos, monkeypatch):
        # (lam, mu), (mu, lam) and (lam', mu') orient to one pair, so the
        # three products make one sweep at degree n between them; the
        # sweeps of lower degree are the sub-products of its bands
        lam, mu, nu = P(4, 2, 1), P(3, 3, 1), P(3, 2, 2)
        sweeps = _calls(monkeypatch, "_sweep")
        pairs = [(lam, mu), (mu, lam), (conjugate(lam), conjugate(mu))]
        assert all(kron_product(a, b, "dvir") == kron_product_oracle(a, b) for a, b in pairs)
        assert [key for key in sweeps if key[0].n == lam.n] == [(lam, mu, 1)]
        product = kronecker._dvir_product(lam, mu)
        assert all(kronecker._dvir_product(a, b) is product for a, b in pairs)
        assert g_dvir(lam, mu, nu) == g_dvir(mu, lam, nu) == product[nu]

    def test_below_the_mackey_bound_sweeps_nothing(self, monkeypatch):
        # nu_1 = 20 < 38 + 37 - 40 = 35; the whole product builds 42 bands
        bands, sweeps = _calls(monkeypatch, "_band"), _calls(monkeypatch, "_sweep")
        assert g_dvir(P(38, 2), P(37, 3), P(20, 20)) == 0
        assert bands == sweeps == []

    def test_correction_reads_y_set_by_key(self):
        # the sweep subtracts out[eta] over eta in Y(nu) other than nu, and
        # never holds nu yet; the dicts also hold keys outside Y(nu)
        rng = random.Random(20)
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            for nu in parts:
                others = [eta for eta in parts if eta != nu]
                members = [eta for eta in y_set(nu) if eta != nu]
                for size in (0, len(others) // 2, len(others)):
                    out = {eta: rng.randint(1, 9) for eta in rng.sample(others, size)}
                    expected = sum(out.get(eta, 0) for eta in members)
                    assert kronecker._correction(out, n, P(*nu[1:])) == expected, (nu, out)

    def test_orient_is_idempotent(self):
        # _dvir_product sweeps only a pair that orients to itself, and
        # sends every other pair there: that must end in one step
        for n in range(11):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    olam, omu, _ = kronecker._orient(lam, mu)
                    assert kronecker._orient(olam, omu) == (olam, omu, False)

    def test_murnaghan_stability(self):
        # g(lam-bar[n], mu-bar[n], nu-bar[n]) is constant for large n; with
        # all three bars of size <= 3 it has settled by n = 20.
        bars = [p for d in range(4) for p in enumerate_partitions(d)]
        pairs = [(a, b) for i, a in enumerate(bars) for b in bars[i:]]
        assert len(pairs) * len(bars) == 196

        def pad(bar, n):
            return P(n - bar.n, *bar)

        for a, b in pairs:
            for c in bars:
                values = {g_dvir(pad(a, n), pad(b, n), pad(c, n)) for n in (20, 30, 40)}
                assert len(values) == 1, (a, b, c, values)

    @pytest.mark.parametrize(
        "lam_bar, mu_bar, terms", [((2,), (3,), 12), ((2, 1), (2, 2), 33)]
    )
    def test_product_work_is_independent_of_n(self, lam_bar, mu_bar, terms, cold_memos, monkeypatch):
        # A timing-free gate: the sweep visits only band supports inside
        # the depth window, so the band and sweep calls and the memo
        # misses of a depth-bounded product do not grow with n.
        # Enumerating all p(n) partitions would.
        bands, sweeps = _calls(monkeypatch, "_band"), _calls(monkeypatch, "_sweep")
        corrections = _calls(monkeypatch, "_correction")

        def work_at(n):
            for memo in cold_memos.values():
                memo.cache_clear()
            for calls in (bands, sweeps, corrections):
                calls.clear()
            lam = P(n - sum(lam_bar), *lam_bar)
            mu = P(n - sum(mu_bar), *mu_bar)
            assert len(kronecker._dvir_product(lam, mu)) == terms
            return len(bands), len(sweeps), kronecker._dvir_product.cache_info().misses, len(corrections)

        at_20 = work_at(20)
        # fewer Y(nu) corrections than p(20) = 627: a full sweep fails
        # here in seconds instead of running for hours at n = 60
        assert at_20[-1] < len(enumerate_partitions(20))
        assert work_at(60) == at_20

    @pytest.mark.parametrize("lam, mu", [(P(4, 3, 2), P(4, 3, 2)), (P(5, 3, 2, 1), P(4, 4, 2, 1))])
    def test_band_reads_each_distinct_pair_once(self, lam, mu, cold_memos, monkeypatch):
        # [sigma].[tau] = [tau].[sigma] and the band is linear in its
        # terms, so a band asks for each canonical (sigma, tau) once,
        # however many (alpha, sigma, tau) terms share it
        # only the reads a band makes itself count: a moved pair's step
        # to its oriented pair, inside _dvir_product, is not one
        band, product = kronecker._band, kronecker._dvir_product
        bands, asked, inside = set(), [], []

        def band_(*key):
            bands.add(key)
            inside.append("band")
            try:
                return band(*key)
            finally:
                inside.pop()

        def product_(a, b):
            if inside[-1:] == ["band"]:
                asked.append(canonical_pair(a, b))
            inside.append("product")
            try:
                return product(a, b)
            finally:
                inside.pop()

        monkeypatch.setattr(kronecker, "_band", band_)
        monkeypatch.setattr(kronecker, "_dvir_product", product_)
        assert product(lam, mu) == dict(kron_product_oracle(lam, mu).items())
        expected = Counter()
        for outer_l, outer_m, k in bands:
            expected.update({
                canonical_pair(sig, tau)
                for alpha in iter_subpartitions(intersect(outer_l, outer_m), k)
                for sig in _lr_counts(outer_l, alpha)
                for tau in _lr_counts(outer_m, alpha)
            })
        assert Counter(asked) == expected

    def test_every_memo_that_grows_is_hit(self, cold_memos):
        # a memo that fills and is never read only holds memory
        from kronmf.verify import verify_engines

        engine_memos = {
            name: memo for name, memo in cold_memos.items()
            if name.split(".")[0] in ("kronecker", "littlewood_richardson")
        }
        assert {"kronecker._dvir_product", "littlewood_richardson._lr_counts"} <= set(engine_memos)
        assert verify_engines(8).ok
        idle = [
            name for name, memo in engine_memos.items()
            if memo.cache_info().currsize and not memo.cache_info().hits
        ]
        assert idle == []

    def test_products_frozen_on_seeded_tail_6_pairs(self):
        # six seeded pairs with tail n - lam_1 = 6 at n = 30, where the
        # sweep's cost follows the tails; taken from the kernel that
        # multiplied every (alpha, sigma, tau) term of a band on its own
        rng = random.Random(30)
        tails = enumerate_partitions(6)
        h = hashlib.sha256()
        for _ in range(6):
            lam, mu = (P(24, *rng.choice(tails)) for _ in range(2))
            h.update(f"{lam} {mu} {sorted(kron_product(lam, mu, 'dvir').items())}\n".encode())
        assert h.hexdigest() == "d5205ef48175bc537e3547bcb408add4f17b5c20b7765b936e66218bb6165136"

    def test_every_orientation_matches_the_oracle(self):
        # the sweep runs on (lam, mu), (lam', mu'), (lam, mu') or (lam', mu)
        for n in range(1, 7):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    for nu in parts:
                        assert g_dvir(lam, mu, nu) == kron_oracle(lam, mu, nu), (lam, mu, nu)

    def test_mixed_orientation_against_the_natural_closed_form(self):
        # [mu].[(n-1,1)'] = ([mu].[n-1,1])': the sweep runs on (mu, (n-1,1))
        # and conjugates every label; the closed form uses no engine
        n = 1000
        natural_conjugate = conjugate(P(n - 1, 1))
        for d in range(5):
            for bar in enumerate_partitions(d):
                mu = P(n - d, *bar)
                expected = classification.product_with_natural(mu).conjugate()
                assert kron_product(mu, natural_conjugate, "dvir") == expected, mu


_TAILS = [p for d in range(6) for p in enumerate_partitions(d)]
_TAIL_PAIRS = [(a, b) for i, a in enumerate(_TAILS) for b in _TAILS[i:]]


class TestStability:
    """Murnaghan's stability as a gate that rests on a theorem, not an engine.

    With lam[n] = (n - |lam-bar|, lam-bar), the product [lam[n]].[mu[n]],
    first rows stripped, is the same for every n >= N0 = |lam-bar| +
    |mu-bar| + lam-bar_1 + mu-bar_1 (Briand, Orellana and Rosas, J.
    Algebra 331, 2011).  So the classification is checked at every
    degree from N0 on, for each pair of tails below.
    """

    @pytest.mark.parametrize("lam_bar, mu_bar", _TAIL_PAIRS, ids=lambda bar: str(bar) or "0")
    def test_product_settles_by_the_bound(self, lam_bar, mu_bar, monkeypatch):
        # N0 reaches 20 at tails of size 5; the oracle refuses n > 14 by default
        monkeypatch.setenv("KRONMF_TABLE_CEILING", "20")

        def pad(bar, n):
            return P(n - bar.n, *bar)

        def stripped(product):
            return {P(*nu[1:]): g for nu, g in product.items()}

        n0 = lam_bar.n + mu_bar.n + lam_bar.width + mu_bar.width
        stable = kron_product(pad(lam_bar, n0), pad(mu_bar, n0), "dvir")
        # the two engines agree where both reach: every N0 here is <= 20
        assert stable == kron_product_oracle(pad(lam_bar, n0), pad(mu_bar, n0))
        for n in (n0 + 1, 10**3, 10**6):
            assert stripped(kron_product(pad(lam_bar, n), pad(mu_bar, n), "dvir")) == stripped(stable), n
        verdict = stable.max_multiplicity() == 1
        # the predicate is defined from degree 1; N0 = 0 only for two empty tails
        for n in (n0, n0 + 1, 10**3, 10**6):
            if n:
                assert bool(classification.is_mf_pair(pad(lam_bar, n), pad(mu_bar, n))) == verdict, n


class TestKronProduct:
    def test_trivial_factor(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for engine in ("oracle", "dvir"):
                    got = kron_product(lam, P(n), engine)
                    assert got == CharacterExpansion.irreducible(lam)

    def test_engine_products_pass_the_public_checks(self):
        # both engines build their products without the constructor's
        # label checks; every product must still pass them
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    for engine in ("oracle", "dvir"):
                        got = kron_product(lam, mu, engine)
                        assert all(type(p) is Partition and m > 0 for p, m in got.items())
                        assert got == CharacterExpansion(n, got.terms())

    def test_staircase_square_spot(self):
        got = kron_product(P(3, 2), P(3, 2))
        assert len(got) == 6 and all(len(p) <= 4 for p in got.support())

    def test_g_max_values(self):
        assert g_max(P(4, 2), P(4, 2)) == 2
        assert g_max(P(3, 2, 1), P(3, 2, 1)) == 5
        for mu in enumerate_partitions(6):
            assert g_max(P(6), mu) == 1

    def test_engine_flag_validation(self):
        with pytest.raises(ValueError):
            kron_product(P(2), P(2), "magic")

    def test_coefficient_dispatch(self):
        assert kron_coefficient(P(3, 3, 3), P(3, 3, 3), P(5, 2, 2), "dvir") == 2
        assert kron_coefficient(P(3, 3, 3), P(3, 3, 3), P(5, 2, 2), "oracle") == 2

    def test_auto_crossover_env_override(self, monkeypatch):
        # auto: the oracle while the character table is within its ceiling
        from kronmf.characters import DEFAULT_TABLE_CEILING
        from kronmf.kronecker import _resolve_engine

        monkeypatch.delenv("KRONMF_TABLE_CEILING", raising=False)
        assert _resolve_engine("auto", DEFAULT_TABLE_CEILING) == "oracle"
        assert _resolve_engine("auto", DEFAULT_TABLE_CEILING + 1) == "dvir"
        monkeypatch.setenv("KRONMF_TABLE_CEILING", "5")
        assert _resolve_engine("auto", 5) == "oracle"
        assert _resolve_engine("auto", 6) == "dvir"
        # a ceiling above the 64-bit limit: the table stops at n = 33
        monkeypatch.setenv("KRONMF_TABLE_CEILING", "100")
        assert _resolve_engine("auto", 33) == "oracle"
        assert _resolve_engine("auto", 34) == "dvir"


class TestMultiplyExpansions:
    def test_bilinear(self):
        a = CharacterExpansion(3, {P(2, 1): 2})
        b = CharacterExpansion.irreducible(P(2, 1))
        got = multiply_expansions(a, b)
        assert got == kron_product(P(2, 1), P(2, 1)).scale(2)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            multiply_expansions(
                CharacterExpansion.irreducible(P(2)),
                CharacterExpansion.irreducible(P(2, 1)),
            )

    def test_engine_is_resolved_once_per_product(self, monkeypatch):
        calls = []
        ceiling = kronecker.table_ceiling
        monkeypatch.setattr(kronecker, "table_ceiling", lambda: calls.append(1) or ceiling())
        a = skew_expand(SkewShape(P(3, 2, 1), P(1)))
        b = skew_expand(SkewShape(P(4, 2), P(1)))
        assert len(a) * len(b) > 1
        got = multiply_expansions(a, b)
        assert len(calls) == 1
        expected = CharacterExpansion.zero(5)
        for sig, c1 in a.items():
            for tau, c2 in b.items():
                expected = expected + kron_product(sig, tau, "dvir").scale(c1 * c2)
        assert got == expected


class TestSemigroup:
    def test_square_seed_bound(self):
        # (a^3) = (3^3) + ((a-3)^3): the seed forces multiplicity
        for a in (4, 5, 6):
            w = SemigroupWitness(
                "sum-split",
                (P(3, 3, 3), P(a - 3, a - 3, a - 3)),
                (P(3, 3, 3), P(a - 3, a - 3, a - 3)),
            )
            res = semigroup_bound(w, engine="oracle")
            assert res.bound == 2
            assert res.target == (P(a, a, a), P(a, a, a))

    def test_trivial_split_gives_full_g(self):
        w = SemigroupWitness("sum-split", (P(4, 2), EMPTY), (P(4, 2), EMPTY))
        res = semigroup_bound(w, engine="oracle")
        assert res.bound == g_max(P(4, 2), P(4, 2)) == 2

    def test_row_split_bound_vs_oracle(self):
        lam, mu = P(3, 3, 3, 2, 1), P(4, 4, 2, 1, 1)
        w = SemigroupWitness.row_split(lam, mu, {1, 2, 3}, {1, 2, 4})
        assert w.left_parts == (P(3, 3, 3), P(2, 1))
        assert w.right_parts == (P(4, 4, 1), P(2, 1))
        res = semigroup_bound(w, engine="oracle")
        assert res.target == (lam, mu)
        assert res.bound >= 2  # g((3,3,3),(4,4,1)) carries a multiplicity
        assert res.bound <= g_max(lam, mu, engine="oracle")

    def test_row_split_needs_matching_sizes(self):
        with pytest.raises(ValueError):
            SemigroupWitness.row_split(P(3, 2), P(4, 1), {1}, {2})

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            SemigroupWitness("diag-split", (P(2), P(1)), (P(2), P(1)))

    def test_soundness_random_witnesses(self):
        rng = random.Random(4321)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 10)
            m = rng.randint(1, n - 1)
            small = enumerate_partitions(m)
            rest = enumerate_partitions(n - m)
            a1, b1 = rng.choice(small), rng.choice(small)
            a2, b2 = rng.choice(rest), rng.choice(rest)
            w = SemigroupWitness("sum-split", (a1, a2), (b1, b2))
            res = semigroup_bound(w, engine="oracle")
            lam, mu = res.target
            assert res.bound <= g_max(lam, mu, engine="oracle"), (w,)
            checked += 1

    def test_monotonicity_instances(self):
        rng = random.Random(99)
        tried = 0
        while tried < 60:
            n1 = rng.randint(2, 5)
            n2 = rng.randint(2, 4)
            p1 = enumerate_partitions(n1)
            p2 = enumerate_partitions(n2)
            lam, mu, nu = (rng.choice(p1) for _ in range(3))
            alp, bet, gam = (rng.choice(p2) for _ in range(3))
            g1 = kron_oracle(lam, mu, nu)
            g2 = kron_oracle(alp, bet, gam)
            if g1 == 0 or g2 == 0:
                continue
            big = kron_oracle(
                partition_sum(lam, alp), partition_sum(mu, bet), partition_sum(nu, gam)
            )
            assert big >= max(g1, g2)
            tried += 1


class TestVirtualExtension:
    def test_rejects_natural_and_linear(self):
        with pytest.raises(ValueError):
            virtual_extension_chi(P(5), P(3, 2))
        with pytest.raises(ValueError):
            virtual_extension_chi(P(4, 1), P(3, 2))
        with pytest.raises(ValueError):
            virtual_extension_chi(P(3, 2), P(2, 1, 1, 1))

    def test_rejects_multirow_difference(self):
        # lam/beta spans two rows here
        with pytest.raises(ValueError):
            virtual_extension_chi(P(3, 3), P(2, 2, 2))

    def test_contract_against_oracle(self):
        # wherever the preconditions hold, positive parts of chi pin the
        # coefficients at first part m-1, and (m, alpha) extends
        hits = 0
        for n in range(4, 9):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    beta = intersect(lam, mu)
                    try:
                        chi = virtual_extension_chi(lam, mu, engine="oracle")
                    except ValueError:
                        continue
                    hits += 1
                    m = beta.n
                    alpha = skew_expand(SkewShape(mu, beta)).support()[0]
                    assert kron_oracle(lam, mu, Partition((m,) + tuple(alpha))) > 0
                    for kappa, mult in chi.items():
                        if mult <= 0:
                            continue
                        nu = Partition((m - 1,) + tuple(kappa))
                        assert nu.n == n
                        assert kron_oracle(lam, mu, nu) == mult, (lam, mu, nu)
        assert hits > 50


class TestEngineIndependence:
    """The oracle never calls Dvir, Dvir never touches a character table,
    and the closed forms of ``classification`` use neither engine.

    Each test empties every memo of the package first, so every product
    is computed while the refused engine's kernels are replaced by a
    refusal.
    """

    @pytest.fixture
    def _cold(self, cold_memos, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"a refused engine kernel was called with {args}")

        def refuse_kernels(*kernels):
            for module, name in kernels:
                monkeypatch.setattr(module, name, refuse)

        return refuse_kernels

    @staticmethod
    def _every_product(engine):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    kron_product(lam, mu, engine)

    def test_dvir_never_touches_a_table(self, _cold):
        from kronmf.verify import verify_pairs, verify_skew, verify_triples

        _cold((characters, "_table"))
        self._every_product("dvir")
        assert verify_pairs(8, engine="dvir").ok
        assert verify_skew(5, engine="dvir").ok
        assert verify_triples(6, engine="dvir").ok

    def test_oracle_never_calls_dvir(self, _cold):
        from kronmf.verify import verify_pairs, verify_skew, verify_triples

        _cold((kronecker, "_sweep"), (kronecker, "_band"), (kronecker, "_dvir_product"))
        self._every_product("oracle")
        assert verify_pairs(8, engine="oracle").ok
        assert verify_skew(5, engine="oracle").ok
        assert verify_triples(6, engine="oracle").ok

    def test_closed_forms_need_no_engine(self, _cold):
        _cold((characters, "_table"), (characters, "_packed"),
              (kronecker, "_sweep"), (kronecker, "_band"), (kronecker, "_dvir_product"))
        for k in range(1, 7):
            for b in range(2 * k):
                for nu in enumerate_partitions(2 * k):
                    assert classification.kk_times_hook_mult(k, b, nu) in (0, 1)
        for k in range(3, 16):
            assert classification.small_depth_products("kk-times-n33", k=k).is_multiplicity_free()
        for a in range(2, 9):
            for b in range(2, 9):
                if a * b >= 6:
                    classification.small_depth_products("rect-times-n22", a=a, b=b)
                if a >= b:
                    classification.small_depth_products("rect-times-n212", a=a, b=b)
        for k in range(1, 11):
            classification.kk_square(k)
            classification.kk_times_near(k)
            classification.staircase_square(k)
        for n in range(3, 10):
            for lam in enumerate_partitions(n):
                classification.product_with_natural(lam)
                if not is_linear(lam):
                    classification.square_low_depth(lam)
