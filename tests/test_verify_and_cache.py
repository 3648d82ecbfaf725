import hashlib
import json
from collections import Counter
from itertools import combinations_with_replacement, starmap

import pytest

import kronmf.kronecker as kronecker_mod
import kronmf.verify as verify_mod
from kronmf.cache import ProductCache
from kronmf.characters import character_table
from kronmf.cli import main
from kronmf.expansion import CharacterExpansion
from kronmf.kronecker import kron_product, kron_row, multiply_expansions
from kronmf.littlewood_richardson import skew_expand
from kronmf.partitions import Partition, enumerate_basic_skew_shapes, enumerate_partitions, is_proper_skew
from kronmf.verify import (
    DEFAULT_CEILINGS,
    VerificationReport,
    verify_engines,
    verify_pairs,
    verify_skew,
    verify_triples,
)


def P(*parts):
    return Partition(parts)


def flipped(predicate):
    """The predicate with every verdict negated, as a non-``MfVerdict``."""

    def lying(*args):
        v = predicate(*args)

        class Flip:
            def __bool__(self):
                return not v

        return Flip()

    return lying


def flipped_side(side):
    """A side builder whose every verdict function is ``flipped``: the
    sweeps read a predicate through one side per fixed operand."""
    return lambda *fixed: flipped(side(*fixed))


def bump_dvir(kron_product):
    """kron_product with one constituent of every Dvir product raised by 1."""

    def bumped(lam, mu, engine="auto"):
        exp = kron_product(lam, mu, engine)
        if engine == "dvir":
            exp = exp + CharacterExpansion.irreducible(max(exp.support()))
        return exp

    return bumped


def always_mf(a, b, engine="auto"):
    """A stand-in for multiply_expansions whose every product is mf."""
    return CharacterExpansion.irreducible(P(a.degree))


def always_mf_values(n, values):
    """A stand-in for is_mf_class_function that calls every product mf."""
    return True


def always_mf_row(n, values):
    """A stand-in for mf_row that calls every product chi . chi^alpha mf."""
    return [True] * len(values)


class TestProductCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cache = ProductCache(path)
        terms = {P(4): 1, P(2, 2): 1, P(1, 1, 1, 1): 1}
        cache.put(4, P(2, 2), P(2, 2), terms)
        cache.put(4, P(3, 1), P(2, 2), {P(3, 1): 1, P(2, 1, 1): 1})
        cache.flush()

        reloaded = ProductCache(path)
        assert reloaded.get(4, P(2, 2), P(2, 2)) == terms
        # unordered key: either operand order resolves
        assert reloaded.get(4, P(2, 2), P(3, 1)) == {P(3, 1): 1, P(2, 1, 1): 1}
        assert len(reloaded) == 2

    def test_header_versioned(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cache = ProductCache(path)
        cache.put(2, P(2), P(2), {P(2): 1})
        cache.flush()
        with open(path, encoding="utf-8") as fh:
            head = json.loads(fh.readline())
        assert head == {"format": "kronmf-cache", "version": 1}

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"format":"other"}\n')
        with pytest.raises(ValueError):
            ProductCache(str(path))

    def test_append_only_last_write_wins(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cache = ProductCache(path)
        cache.put(2, P(2), P(2), {P(2): 1})
        cache.flush()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"n":2,"lambda":"2","mu":"2","terms":[["1,1",1]]}\n')
        reloaded = ProductCache(path)
        assert reloaded.get(2, P(2), P(2)) == {P(1, 1): 1}

    def test_each_distinct_partition_is_converted_once(self, tmp_path, monkeypatch):
        # A timing-free gate: a cache of verify_pairs(9) holds 465 records
        # over p(9) = 30 distinct partitions, so writing it formats, and
        # loading it parses, each partition at most once.
        import kronmf.cache as cache_mod

        calls = {"parse": 0, "format": 0}

        def counting(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)

            return wrapper

        monkeypatch.setattr(cache_mod, "parse_partition", counting("parse", cache_mod.parse_partition))
        monkeypatch.setattr(cache_mod, "format_partition", counting("format", cache_mod.format_partition))
        path = str(tmp_path / "c.jsonl")
        cold = ProductCache(path)
        assert verify_pairs(9, cache=cold).ok
        # record order and bytes, pinned from the sweep that held every product
        with open(path, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
        assert written == "533679164a88c68dcfa261a44932f11014a01b8ad8e03ff5490ca6086ad125de"
        reloaded = ProductCache(path)
        p9 = len(enumerate_partitions(9))
        assert len(reloaded) == p9 * (p9 + 1) // 2
        for lam, mu in combinations_with_replacement(enumerate_partitions(9), 2):
            assert reloaded.get(9, lam, mu) == kron_product(lam, mu, "oracle").terms()
        assert 0 < calls["format"] <= p9
        assert 0 < calls["parse"] <= p9

    def test_interrupted_sweep_keeps_its_records_and_resumes_to_the_same_bytes(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.jsonl")
        calls = 0

        def failing(lam, mus, engine="auto"):
            nonlocal calls
            for product in kron_row(lam, mus, engine):
                calls += 1
                if calls == 200:
                    raise RuntimeError("interrupted")
                yield product

        monkeypatch.setattr(verify_mod, "kron_row", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            verify_pairs(9, cache=ProductCache(path))
        assert len(ProductCache(path)) == 199
        monkeypatch.undo()
        assert verify_pairs(9, cache=ProductCache(path)).ok
        with open(path, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
        assert written == "533679164a88c68dcfa261a44932f11014a01b8ad8e03ff5490ca6086ad125de"

    def test_warm_sweep_on_a_full_file_builds_no_table(self, tmp_path, cold_memos, capsys):
        # every row of a full file is read, none computed, so the lazy row
        # products never build a character table or its packed columns
        path = str(tmp_path / "c.jsonl")
        assert verify_pairs(9, cache=ProductCache(path)).ok
        for memo in cold_memos.values():
            memo.cache_clear()
        assert main(["verify", "9", "--mode", "pairs", "--cache", path]) == 0
        assert "mismatches=0" in capsys.readouterr().out
        assert cold_memos["characters._table"].cache_info().misses == 0
        assert cold_memos["characters._packed"].cache_info().misses == 0


class TestReports:
    def test_clean_report_text(self):
        report = verify_pairs(4)
        text = report.to_text()
        assert text.splitlines()[0] == "verify mode=pairs n=4 engine=auto"
        assert text.splitlines()[-1] == "mismatches=0"
        assert report.ok

    def test_mismatch_population_and_ordering(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_pair_side", flipped_side(verify_mod._pair_side))
        report = verify_pairs(3)
        assert not report.ok
        assert len(report.mismatches) == report.pairs_checked == 6
        assert report.mismatches == sorted(report.mismatches)
        assert "mismatch:" in report.to_text()
        blob = json.loads(report.to_json())
        assert len(blob["mismatches"]) == 6

    def test_cli_exit_1_on_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_mod, "_pair_side", lambda lam, n: lambda mu: False)
        code = main(["verify", "2", "--mode", "pairs"])
        out = capsys.readouterr()
        assert code == 1
        assert "mismatch:" in out.out

    def test_engine_mismatch_labels_are_separated_by_semicolons(self, monkeypatch, capsys):
        # a label such as 2,1,1 holds commas, so the differing labels are
        # joined by a separator no label contains
        real = verify_mod.kron_product

        def one_pair_off(lam, mu, engine="auto"):
            exp = real(lam, mu, engine)
            if engine == "dvir" and (lam, mu) == (P(3, 1), P(2, 1, 1)):
                exp = exp + CharacterExpansion.irreducible(P(3, 1)) + CharacterExpansion.irreducible(P(2, 1, 1))
            return exp

        monkeypatch.setattr(verify_mod, "kron_product", one_pair_off)
        assert main(["verify", "4", "--mode", "engines"]) == 1
        assert capsys.readouterr().out == (
            "verify mode=engines n=4 engine=dvir-vs-oracle\n"
            "pairs_checked=15\n"
            "mismatch: 3,1 | 2,1,1 predicted=dvir!=oracle computed=3,1;2,1,1\n"
            "mismatches=1\n"
        )

    def test_mode_ceilings_defaults(self):
        assert DEFAULT_CEILINGS == {"pairs": 9, "triples": 7, "skew": 7, "engines": 10}

    def test_report_counts_cover_modes(self):
        assert verify_pairs(3).pairs_checked == 6
        assert verify_triples(3).pairs_checked == 10
        assert verify_engines(3).pairs_checked == 6
        assert [verify_skew(n).pairs_checked for n in range(1, 7)] == [2, 10, 51, 399, 3546, 35649]
        assert [verify_triples(n).pairs_checked for n in range(1, 7)] == [1, 4, 10, 35, 84, 286]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_skew_checks_cover_every_shape_and_proper_pair(self, n):
        # one is_mf_skew check and p(n) skew-times-irreducible checks per
        # basic shape, and one check per unordered pair of proper shapes,
        # whether it is computed or settled by a count row
        shapes = enumerate_basic_skew_shapes(n)
        basic, proper = len(shapes), sum(map(is_proper_skew, shapes))
        expected = basic * (1 + len(enumerate_partitions(n))) + proper * (proper + 1) // 2
        assert verify_skew(n).pairs_checked == expected
        if n == 6:
            assert (basic, proper, expected) == (272, 254, 35649)

    def test_orbit_walk_reads_each_basic_shape_its_character(self):
        # one LR expansion per orbit: the walk hands every basic shape,
        # in enumeration order, the character it would expand to.  A mate
        # leaves the held ones only when the walk reaches it, so none is
        # held at the last shape iff every one was held before it was met
        for n in range(10):
            shapes, walked = enumerate_basic_skew_shapes(n), []
            walk = verify_mod._skew_characters(n)
            for s, chi in walk:
                assert chi == skew_expand(s), s
                walked.append(s)
                if len(walked) == len(shapes):
                    assert not walk.gi_frame.f_locals["pending"], n
            assert walked == shapes, n

    @pytest.mark.parametrize("engine", ["oracle", "dvir"])
    def test_skew_sweep_normalises_each_shape_once(self, monkeypatch, engine):
        # the sweep reads each basic shape's normal form once and hands it
        # to every check of the shape; none normalises the shape again, nor
        # any of its components
        import kronmf.classification as classification_mod
        import kronmf.littlewood_richardson as lr_mod
        import kronmf.partitions as partitions_mod

        real, calls = partitions_mod.skew_normalize, []
        for module in (partitions_mod, lr_mod, classification_mod, verify_mod):
            monkeypatch.setattr(module, "skew_normalize", lambda s: calls.append(s) or real(s))
        for n in range(8):
            calls.clear()
            assert verify_skew(n, engine).ok
            assert calls == enumerate_basic_skew_shapes(n), n

    def test_report_adds_count_rows_and_sorts_mismatches(self):
        late, early = ("b", "x", "mf", "not-mf"), ("a", "y", "not-mf", "mf")
        rows = [None, late, 5, None, 0, early, 1]
        report = verify_mod._report(4, "skew", "auto", iter(rows))
        assert report.pairs_checked == 2 + 2 + 5 + 0 + 1
        assert report.mismatches == [early, late]
        assert verify_mod._report(4, "skew", "auto", iter([0])).pairs_checked == 0
        assert verify_mod._report(4, "skew", "auto", iter([])).pairs_checked == 0

    # Each case makes one mode report mismatches: a flipped predicate (the
    # pair, triple and skew-times-irreducible ones flipped in the side a
    # sweep builds per fixed operand, and is_mf_skew in the form check the
    # skew sweep hands each shape's normal form), a Dvir product with one constituent
    # raised, or a multiplicity-free verdict on every product (the skew
    # sweep's skew-times-irreducible rows, which the oracle reads from one
    # packed row per character, and its proper-times-proper rows, which it
    # decides from class sums).  The rows, their order and both renderings
    # were taken from the per-mode report loops that came before the
    # shared one, when the skew-products case replaced every expansion
    # product instead.
    @pytest.mark.parametrize(
        "mode, n, patches, rows, digest",
        [
            ("pairs", 5, {"_pair_side": flipped_side}, 28,
             "a60220100ba241d8d27696e2bdb04271a37b05aefd42672f266ff91e24810bfc"),
            ("triples", 4, {"_triple_side": flipped_side}, 35,
             "0ab9b3d734f7d46c1f3e1434ede347c151b03d3d40cff8031fc7ad650873edbe"),
            ("skew", 4, {"_mf_skew_form": flipped, "_skew_side": flipped_side}, 168,
             "5995e04d9f31b5a63b25667da66bc47cc747e1d02dcd7f5e4ac8d726098c1db4"),
            ("skew", 5, {"is_mf_class_function": lambda real: always_mf_values,
                         "mf_row": lambda real: always_mf_row}, 595,
             "6f2c24dc34ca8e7015f7aaaf272413e4bbe97a733c8f86f57137379d9032452b"),
            ("engines", 5, {"kron_product": bump_dvir}, 28,
             "d8c3f561045c8a53a7a0b99829e27d4b4cda1b90f0bbfabe8a5bdf7b88c1c21e"),
        ],
        ids=["pairs", "triples", "skew-predicates", "skew-products", "engines"],
    )
    def test_mismatch_rows_frozen(self, monkeypatch, capsys, mode, n, patches, rows, digest):
        for name, wrap in patches.items():
            monkeypatch.setattr(verify_mod, name, wrap(getattr(verify_mod, name)))
        h = hashlib.sha256()
        for fmt in ("text", "json"):
            assert main(["verify", str(n), "--mode", mode, "--format", fmt]) == 1
            out = capsys.readouterr().out
            h.update(out.encode())
        assert len(json.loads(out)["mismatches"]) == rows
        assert h.hexdigest() == digest

    # one small case in full: skew-times-irreducible rows, then the
    # proper-times-proper rows labelled by the first shape of each
    # character, all in one sorted list
    SKEW_3_PRODUCT_ROWS = (
        "pairs_checked=51\n"
        "mismatch: 2,1,1/1 | 2,1 predicted=not-mf computed=mf\n"
        "mismatch: 2,2,1/1,1 | 2,1 predicted=not-mf computed=mf\n"
        "mismatch: 2,2,1/1,1 | 2,2,1/1,1 predicted=not-mf computed=mf\n"
        "mismatch: 2,2,1/1,1 | 3,2/2 predicted=not-mf computed=mf\n"
        "mismatch: 3,1/1 | 2,1 predicted=not-mf computed=mf\n"
        "mismatch: 3,2,1/2,1 | 1^3 predicted=not-mf computed=mf\n"
        "mismatch: 3,2,1/2,1 | 2,1 predicted=not-mf computed=mf\n"
        "mismatch: 3,2,1/2,1 | 3 predicted=not-mf computed=mf\n"
        "mismatch: 3,2/2 | 2,1 predicted=not-mf computed=mf\n"
        "mismatch: 3,2/2 | 3,2/2 predicted=not-mf computed=mf\n"
        "mismatches=10"
    )

    def test_skew_product_rows_text(self, monkeypatch):
        # the oracle reads each skew-times-irreducible product from a
        # packed row, and each proper pair from class sums
        monkeypatch.setattr(verify_mod, "mf_row", always_mf_row)
        monkeypatch.setattr(verify_mod, "is_mf_class_function", always_mf_values)
        assert verify_skew(3).to_text() == (
            "verify mode=skew n=3 engine=auto\n" + self.SKEW_3_PRODUCT_ROWS
        )

    def test_skew_product_rows_text_under_dvir(self, monkeypatch):
        # Dvir expands each product
        monkeypatch.setattr(verify_mod, "multiply_expansions", always_mf)
        assert verify_skew(3, engine="dvir").to_text() == (
            "verify mode=skew n=3 engine=dvir\n" + self.SKEW_3_PRODUCT_ROWS
        )

    def test_oracle_sweeps_test_the_expanded_products(self, monkeypatch):
        # the characters that the oracle sweeps hand to the packed row and
        # the class functions they hand to the class-sum test are exactly
        # those of the products the sweeps stand for, each expanded here
        # by multiply_expansions: one row per distinct skew character and
        # per pair lam >= mu, each pair of mf proper characters once
        rows, asked = [], []

        def row(n, values):
            rows.append(tuple(values))
            return [True] * len(values)

        monkeypatch.setattr(verify_mod, "mf_row", row)
        monkeypatch.setattr(
            verify_mod, "is_mf_class_function", lambda n, values: asked.append(tuple(values))
        )

        def values(chi):
            t = character_table(chi.degree)
            return tuple(sum(m * t.value(p, rho) for p, m in chi.items()) for rho in t.cols)

        def product(*factors):
            out = factors[0]
            for f in factors[1:]:
                out = multiply_expansions(out, f, "oracle")
            return values(out)

        n = 5
        irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(n)]
        shapes = enumerate_basic_skew_shapes(n)
        distinct = list({skew_expand(s): None for s in shapes})
        proper = list({skew_expand(s): None for s in shapes if is_proper_skew(s)})
        mf_proper = [chi for chi in proper if chi.is_multiplicity_free()]
        expected = [product(a, b) for a, b in combinations_with_replacement(mf_proper, 2)]
        verify_skew(n)
        assert Counter(rows) == Counter(map(product, distinct))
        assert Counter(asked) == Counter(expected)

        rows.clear()
        asked.clear()
        verify_triples(n)
        assert Counter(rows) == Counter(starmap(product, combinations_with_replacement(irr, 2)))
        assert not asked


@pytest.mark.parametrize("ceiling", [3, 14])
@pytest.mark.parametrize("sweep", [verify_pairs, verify_triples, verify_skew])
def test_auto_engine_resolved_once_per_sweep(monkeypatch, sweep, ceiling):
    # "auto" reads the table ceiling once per sweep, not once per product,
    # whichever engine it picks; the report keeps the string it was given
    reads = []
    monkeypatch.setattr(kronecker_mod, "table_ceiling", lambda: reads.append(1) or ceiling)
    report = sweep(5)
    assert len(reads) == 1
    assert report.engine == "auto"


def test_verify_stdout_digest_frozen(capsys):
    # stdout and exit code of every mode in both formats, up to pairs 9,
    # triples 7, skew 6 and engines 7; taken from the per-mode report
    # loops that came before the shared one, so any change to a report
    # line, its order or an exit code changes the digest
    h = hashlib.sha256()
    for mode, top in (("pairs", 9), ("triples", 7), ("skew", 6), ("engines", 7)):
        for n in range(1, top + 1):
            for fmt in ("text", "json"):
                code = main(["verify", str(n), "--mode", mode, "--format", fmt, "--force"])
                h.update(f"{mode} {n} {fmt} exit={code}\n".encode() + capsys.readouterr().out.encode())
    assert h.hexdigest() == "55c43fa6c8fb312add5e89411c9690c7c5dedf6487ee8fae1852d38891213399"


def test_verify_stdout_digest_frozen_at_the_ceilings(capsys):
    # the skew sweep at its ceiling, the triple sweep one above it and the
    # pair sweep three above it, both formats; taken from the sweeps that
    # expanded every product
    h = hashlib.sha256()
    for mode, n in (("skew", 7), ("triples", 8), ("pairs", 12)):
        for fmt in ("text", "json"):
            code = main(["verify", str(n), "--mode", mode, "--format", fmt, "--force"])
            h.update(f"{mode} {n} {fmt} exit={code}\n".encode() + capsys.readouterr().out.encode())
    assert h.hexdigest() == "b0e311048c04dd3ea815ebe93463654b2a4d636a517987e1d9605e5f815278bb"
    # the engine sweep at its ceiling, taken from the Dvir kernel that
    # multiplied every (alpha, sigma, tau) term of a band on its own
    h = hashlib.sha256()
    for fmt in ("text", "json"):
        code = main(["verify", "10", "--mode", "engines", "--format", fmt, "--force"])
        h.update(f"engines 10 {fmt} exit={code}\n".encode() + capsys.readouterr().out.encode())
    assert h.hexdigest() == "1748b9ebed81d2c6d10a6c70947c9e84eeaf64731ba7a5987cc40887d5280925"



def test_verify_stdout_digest_frozen_above_the_ceilings(capsys):
    # the two sweeps that read a predicate through one side per fixed
    # operand, above their ceilings under the oracle, both formats; taken
    # from the sweeps that called the public predicate for every check
    h = hashlib.sha256()
    for mode, n in (("skew", 8), ("triples", 10)):
        for fmt in ("text", "json"):
            code = main(["verify", str(n), "--mode", mode, "--engine", "oracle", "--format", fmt, "--force"])
            h.update(f"{mode} {n} {fmt} exit={code}\n".encode() + capsys.readouterr().out.encode())
    assert h.hexdigest() == "0f1777ec4c424e0651cfb522e25e00ab7595a460a4bc4cb1eb494ac46f20125c"
