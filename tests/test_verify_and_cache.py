import json

import pytest

from kronmf.cache import ProductCache
from kronmf.expansion import CharacterExpansion
from kronmf.partitions import Partition, enumerate_partitions
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
        head = json.loads(open(path, encoding="utf-8").readline())
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
        reloaded = ProductCache(path)
        p9 = len(enumerate_partitions(9))
        assert len(reloaded) == p9 * (p9 + 1) // 2
        assert reloaded._records == cold._records
        assert 0 < calls["format"] <= p9
        assert 0 < calls["parse"] <= p9


class TestReports:
    def test_clean_report_text(self):
        report = verify_pairs(4)
        text = report.to_text()
        assert text.splitlines()[0] == "verify mode=pairs n=4 engine=auto"
        assert text.splitlines()[-1] == "mismatches=0"
        assert report.ok and report.wall_time >= 0

    def test_mismatch_population_and_ordering(self, monkeypatch):
        import kronmf.verify as verify_mod

        real = verify_mod.is_mf_pair

        def lying(lam, mu):
            v = real(lam, mu)

            class Flip:
                def __bool__(self):
                    return not v

            return Flip()

        monkeypatch.setattr(verify_mod, "is_mf_pair", lying)
        report = verify_pairs(3)
        assert not report.ok
        assert len(report.mismatches) == report.pairs_checked == 6
        assert report.mismatches == sorted(report.mismatches)
        assert "mismatch:" in report.to_text()
        blob = json.loads(report.to_json())
        assert len(blob["mismatches"]) == 6

    def test_cli_exit_1_on_mismatch(self, monkeypatch, capsys):
        import kronmf.verify as verify_mod
        from kronmf import cli

        monkeypatch.setattr(verify_mod, "is_mf_pair", lambda lam, mu: False)
        code = cli.main(["verify", "2", "--mode", "pairs"])
        out = capsys.readouterr()
        assert code == 1
        assert "mismatch:" in out.out

    def test_mode_ceilings_defaults(self):
        assert DEFAULT_CEILINGS == {"pairs": 9, "triples": 7, "skew": 7, "engines": 7}

    def test_report_counts_cover_modes(self):
        assert verify_pairs(3).pairs_checked == 6
        assert verify_triples(3).pairs_checked == 10
        assert verify_engines(3).pairs_checked == 6
        assert verify_skew(2).pairs_checked > 0

