import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest

from kronmf.cli import _render_expansion, main
from kronmf.expansion import CharacterExpansion
from kronmf.kronecker import kron_product
from kronmf.partitions import Partition, enumerate_partitions


def run_cli(*args, env_extra=None):
    """Run ``main(args)`` in this process, as ``python -m kronmf`` would."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, env_extra or {}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_module(*args):
    """Run ``python -m kronmf`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "kronmf", *args], capture_output=True, text=True)


class TestKron:
    def test_text(self):
        res = run_module("kron", "2,2", "2,2")
        assert res.returncode == 0
        assert res.stdout.strip() == "[4] + [2,2] + [1^4]"

    def test_json_schema(self):
        res = run_cli("kron", "3^3", "3^3", "--format", "json")
        blob = json.loads(res.stdout)
        assert set(blob) == {"left", "right", "n", "terms"}
        assert blob["n"] == 9
        terms = {t["p"]: t["m"] for t in blob["terms"]}
        assert terms["5,2,2"] == 2

    def test_csv(self):
        res = run_cli("kron", "2,2", "2,2", "--format", "csv")
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "partition,multiplicity"
        assert "1^4,1" in lines

    def test_engines_agree(self):
        a = run_cli("kron", "3,2,1", "3,3", "--engine", "oracle")
        b = run_cli("kron", "3,2,1", "3,3", "--engine", "dvir")
        assert a.stdout == b.stdout and a.returncode == 0

    def test_degree_mismatch_exit_2(self):
        res = run_cli("kron", "3", "2,2")
        assert res.returncode == 2
        assert "degree mismatch" in res.stderr

    def test_parse_error_names_token(self):
        res = run_cli("kron", "3,x", "2,2")
        assert res.returncode == 2
        assert "'x'" in res.stderr

    def test_auto_above_the_ceiling_uses_dvir(self):
        # n = 40 is far beyond the table ceiling; [n-2,2].[n-3,3]
        res = run_cli("kron", "38,2", "37,3")
        assert res.returncode == 0
        assert res.stdout == (
            "[39,1] + [38,2] + [38,1,1] + 2[37,3] + 2[37,2,1] + [36,4] + 2[36,3,1]"
            " + [36,2,2] + [36,2,1,1] + [35,5] + [35,4,1] + [35,3,2]\n"
        )

    def test_deterministic_output(self):
        a = run_cli("kron", "4,3,2", "5,2,2", "--format", "json")
        b = run_cli("kron", "4,3,2", "5,2,2", "--format", "json")
        assert a.stdout == b.stdout

    def test_renderers_sort_terms_whatever_the_insertion_order(self):
        # expansions keep insertion order; support() is the one display order
        P = Partition
        exp = CharacterExpansion(4, {P((1, 1, 1, 1)): 1, P((4,)): 1, P((2, 2)): 2})
        assert str(exp) == "[4] + 2[2,2] + [1^4]"
        assert _render_expansion(exp, "text", "a", "b") == str(exp)
        assert json.loads(_render_expansion(exp, "json", "a", "b"))["terms"] == [
            {"p": "4", "m": 1}, {"p": "2,2", "m": 2}, {"p": "1^4", "m": 1},
        ]
        assert _render_expansion(exp, "csv", "a", "b") == 'partition,multiplicity\n4,1\n"2,2",2\n1^4,1'

    def test_csv_reads_back_as_the_json_terms(self):
        # a label holding a comma is one quoted field, so a csv reader
        # sees two fields on every row
        for n in range(7):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    exp = kron_product(lam, mu)
                    rows = list(csv.reader(io.StringIO(_render_expansion(exp, "csv", lam, mu))))
                    assert rows[0] == ["partition", "multiplicity"]
                    terms = json.loads(_render_expansion(exp, "json", lam, mu))["terms"]
                    assert rows[1:] == [[t["p"], str(t["m"])] for t in terms], (lam, mu)
        assert run_cli("kron", "3", "2,1", "--format", "csv").stdout == 'partition,multiplicity\n"2,1",1\n'


class TestCoeff:
    def test_value(self):
        res = run_cli("coeff", "3^3", "3^3", "5,2,2")
        assert res.returncode == 0 and res.stdout.strip() == "2"

    def test_json(self):
        res = run_cli("coeff", "4,2", "4,2", "3,2,1", "--format", "json")
        assert json.loads(res.stdout)["g"] == 2


class TestClassify:
    def test_mf_exit_0(self):
        res = run_cli("classify", "3,3", "4,1,1")
        assert res.returncode == 0
        assert "pair-case-4" in res.stdout

    def test_not_mf_exit_1(self):
        res = run_cli("classify", "4,2", "4,2")
        assert res.returncode == 1
        assert "not multiplicity-free" in res.stdout

    def test_triple(self):
        res = run_cli("classify-triple", "3,1", "2,2", "2,1,1")
        assert res.returncode == 1
        res = run_cli("classify-triple", "4", "2,2", "3,1")
        assert res.returncode == 0

    def test_skew(self):
        res = run_cli("classify-skew", "3,2/1", "2,2")
        assert res.returncode == 0
        assert "skew-irr-case-3" in res.stdout
        res = run_cli("classify-skew", "3,3,1/1", "2,2,2")
        assert res.returncode == 1

    def test_skew_size_mismatch(self):
        res = run_cli("classify-skew", "3,2/1", "2,2,1")
        assert res.returncode == 2

    def test_skew_not_contained_quotes_the_grammar(self):
        # both partitions in the operand grammar, as every other operand
        # error gives them, and never a Python repr
        res = run_cli("classify-skew", "3,2/4", "1")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: inner '4' not contained in outer '3,2'\n"
        res = run_cli("classify-skew", "/1^3", "1")
        assert res.returncode == 2
        assert res.stderr == "error: inner '1^3' not contained in outer ''\n"

    def test_json_verdict(self):
        res = run_cli("classify", "6,3", "3^3", "--format", "json")
        blob = json.loads(res.stdout)
        assert blob["multiplicity_free"] is True and blob["clause"] == "pair-case-6"


@pytest.mark.parametrize("argv, stdout", [
    (("kron", "2,2", "2,2"), "[4] + [2,2] + [1^4]\n"),
    (("classify", "3,3", "4,1,1"), "multiplicity-free  clause=pair-case-4  normalization=none\n"),
    (("classify", "4,2", "4,2"), "not multiplicity-free\n"),
    (("classify-triple", "4", "2,2", "3,1"),
     "multiplicity-free  clause=triple-reduced:pair-case-2  normalization=linear-reduction\n"),
    (("classify-skew", "3,2/1", "2,2"), "multiplicity-free  clause=skew-irr-case-3  normalization=none\n"),
])
def test_text_output_renders_no_operand(argv, stdout, monkeypatch):
    # text output never prints an operand, so none is rendered: rendering
    # 1^1000000 alone walks a million parts
    import kronmf.cli

    rendered = []
    render = kronmf.cli.format_partition
    monkeypatch.setattr(kronmf.cli, "format_partition", lambda p: rendered.append(p) or render(p))
    assert run_cli(*argv).stdout == stdout
    assert rendered == []


@pytest.mark.parametrize("argv, stdout", [
    (("kron", "3,2", "3,1,1"),
     '{"left":"3,2","right":"3,1,1","n":5,"terms":[{"p":"4,1","m":1},{"p":"3,2","m":1},'
     '{"p":"3,1,1","m":2},{"p":"2,2,1","m":1},{"p":"2,1^3","m":1}]}\n'),
    (("classify", "1^5", "4,1"),
     '{"left":"1^5","right":"4,1","multiplicity_free":true,"clause":"pair-case-1",'
     '"normalization":["conjugate-left"]}\n'),
    (("classify-triple", "4", "2,2", "3,1"),
     '{"left":"4","middle":"2,2","right":"3,1","multiplicity_free":true,'
     '"clause":"triple-reduced:pair-case-2","normalization":["linear-reduction"]}\n'),
    (("classify-skew", "3,2/1", "2,2"),
     '{"skew":"3,2/1","alpha":"2,2","multiplicity_free":true,"clause":"skew-irr-case-3","normalization":[]}\n'),
])
def test_json_output_renders_the_operands(argv, stdout):
    assert run_cli(*argv, "--format", "json").stdout == stdout


class TestTable:
    def test_text_contains_class_sizes(self):
        res = run_cli("table", "3")
        assert res.returncode == 0
        assert "class size" in res.stdout

    def test_csv(self):
        res = run_cli("table", "2", "--format", "csv")
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 3  # header + two data rows

    def test_json(self):
        res = run_cli("table", "4", "--format", "json")
        blob = json.loads(res.stdout)
        assert blob["class_sizes"] == [6, 8, 3, 6, 1]

    @pytest.mark.parametrize(
        "n, fmt, expected",
        [
            ("0", "text", "            \nclass size 1\n           1\n"),
            ("0", "json", '{"n":0,"partitions":[""],"cycle_types":[""],"class_sizes":[1],"values":[[1]]}\n'),
            ("0", "csv", "partition,\n,1\n"),
            ("1", "text", "           1\nclass size 1\n         1 1\n"),
            ("1", "json", '{"n":1,"partitions":["1"],"cycle_types":["1"],"class_sizes":[1],"values":[[1]]}\n'),
            ("1", "csv", "partition,1\n1,1\n"),
        ],
    )
    def test_degenerate_degrees(self, n, fmt, expected):
        res = run_cli("table", n, "--format", fmt)
        assert res.returncode == 0
        assert res.stdout == expected

    def test_ceiling_exit_2(self):
        res = run_cli("table", "40")
        assert res.returncode == 2
        assert "ceiling" in res.stderr

    def test_ceiling_env_override(self):
        res = run_cli("table", "4", env_extra={"KRONMF_TABLE_CEILING": "3"})
        assert res.returncode == 2

    def test_malformed_ceiling_env_exit_2(self):
        res = run_cli("kron", "2,1", "2,1", env_extra={"KRONMF_TABLE_CEILING": "abc"})
        assert res.returncode == 2
        assert res.stderr == "error: KRONMF_TABLE_CEILING='abc' is not an integer\n"

    def test_force_bypasses_ceiling(self):
        res = run_cli("table", "15", "--force", "--format", "json")
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["partitions"]) == 176

    def test_table_never_packs(self):
        from kronmf import characters

        characters._packed.cache_clear()
        characters.character_table(14)
        assert characters._packed.cache_info().misses == 0
        assert run_cli("table", "14").returncode == 0
        assert characters._packed.cache_info().misses == 0


class TestVerify:
    def test_pairs_clean(self):
        res = run_cli("verify", "5", "--mode", "pairs")
        assert res.returncode == 0
        assert "mismatches=0" in res.stdout
        assert "wall_time" in res.stderr and "wall_time" not in res.stdout

    def test_engines_mode(self):
        res = run_cli("verify", "5", "--mode", "engines")
        assert res.returncode == 0

    def test_triples_mode(self):
        res = run_cli("verify", "4", "--mode", "triples")
        assert res.returncode == 0

    def test_skew_mode(self):
        res = run_cli("verify", "4", "--mode", "skew")
        assert res.returncode == 0

    def test_ceiling(self):
        res = run_cli("verify", "10", "--mode", "pairs")
        assert res.returncode == 2
        assert res.stderr == "error: n=10 exceeds the pairs ceiling 9; pass --force\n"

    def test_engine_flag_reaches_the_sweep(self):
        a = run_cli("verify", "5", "--mode", "pairs", "--engine", "dvir")
        b = run_cli("verify", "5", "--mode", "pairs", "--engine", "oracle")
        assert a.returncode == b.returncode == 0
        assert "engine=dvir" in a.stdout and "engine=oracle" in b.stdout
        res = run_cli("verify", "4", "--mode", "skew", "--engine", "dvir")
        assert res.returncode == 0

    def test_cache_warm_equals_cold(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cold = run_cli("verify", "5", "--mode", "pairs", "--cache", path)
        with open(path, encoding="utf-8") as fh:
            head = fh.readline()
        assert json.loads(head)["format"] == "kronmf-cache"
        warm = run_cli("verify", "5", "--mode", "pairs", "--cache", path)
        assert cold.stdout == warm.stdout
        assert cold.returncode == warm.returncode == 0

    def test_cache_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cold = run_cli("verify", "5", "--mode", "pairs", "--cache", str(path))
        whole = path.read_bytes()
        path.write_bytes(whole[:-20])
        warm = run_cli("verify", "5", "--mode", "pairs", "--cache", str(path))
        assert warm.returncode == 0 and warm.stdout == cold.stdout
        assert path.read_bytes() == whole

    def test_cache_not_a_cache_exit_2(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text("hello\n")
        res = run_cli("verify", "5", "--mode", "pairs", "--cache", str(path))
        assert res.returncode == 2
        assert res.stderr == f"error: {path}: not a kronmf cache file\n"

    @pytest.mark.parametrize("head", ['{"format":"kronmf-cache","version":1}', '{"format":"kro', "{"])
    def test_cache_torn_header_loads_empty_and_is_rewritten(self, tmp_path, head):
        fresh = tmp_path / "fresh.jsonl"
        cold = run_cli("verify", "4", "--mode", "pairs", "--cache", str(fresh))
        path = tmp_path / "cache.jsonl"
        path.write_text(head)
        for _ in range(2):
            res = run_cli("verify", "4", "--mode", "pairs", "--cache", str(path))
            assert res.returncode == 0 and res.stdout == cold.stdout
            assert path.read_bytes() == fresh.read_bytes()

    def test_cache_foreign_line_without_newline_exit_2(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format":"other"}')
        res = run_cli("verify", "4", "--mode", "pairs", "--cache", str(path))
        assert res.returncode == 2
        assert res.stderr == f"error: {path}: not a kronmf cache file\n"
        assert path.read_text() == '{"format":"other"}'

    def test_cache_in_a_missing_directory_exit_2_before_the_sweep(self, tmp_path):
        path = tmp_path / "missing" / "cache.jsonl"
        with mock.patch("kronmf.verify.kron_product", side_effect=AssertionError("product computed")):
            res = run_cli("verify", "5", "--mode", "pairs", "--cache", str(path))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert str(path) in res.stderr

    def test_cache_malformed_record_exit_2(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        assert run_cli("verify", "4", "--mode", "pairs", "--cache", str(path)).returncode == 0
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:10] + "\n"
        path.write_text("".join(lines))
        res = run_cli("verify", "4", "--mode", "pairs", "--cache", str(path))
        assert res.returncode == 2
        assert res.stderr == f"error: {path}: line 3 is not a cache record\n"

    def test_cache_bytes_are_frozen(self, tmp_path):
        # the on-disk format: header, records in sweep order, terms sorted
        # whichever engine computed the products
        for engine in ("auto", "dvir"):
            path = tmp_path / f"cache-{engine}.jsonl"
            res = run_cli("verify", "8", "--mode", "pairs", "--engine", engine, "--cache", str(path))
            assert res.returncode == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "ba4e9aff9432859f2609d89845957f450fa61c20359b3012ded8e699430ddf72"
            )

    @pytest.mark.parametrize(
        "lineno, record",
        [
            # a label of the wrong degree, in place of [["3",1]]
            (2, '{"n":3,"lambda":"3","mu":"3","terms":[["4",1]]}'),
            # operands of the wrong degree
            (2, '{"n":3,"lambda":"4","mu":"3","terms":[["3",1]]}'),
            (2, '{"n":3,"lambda":"3","mu":"4","terms":[["3",1]]}'),
            # sum(m * dim nu) = 4, not dim [3] * dim [3] = 1
            (8, '{"n":3,"lambda":"3","mu":"3","terms":[["2,1",2]]}'),
            # multiplicities that are not positive ints
            (2, '{"n":3,"lambda":"3","mu":"3","terms":[["3",1.5]]}'),
            (2, '{"n":3,"lambda":"3","mu":"3","terms":[["3","1"]]}'),
            (2, '{"n":3,"lambda":"3","mu":"3","terms":[["3",true]]}'),
            (8, '{"n":3,"lambda":"3","mu":"3","terms":[["3",1],["2,1",0]]}'),
            # a repeated label whose dimensions still add up
            (8, '{"n":3,"lambda":"2,1","mu":"2,1","terms":[["3",1],["3",1],["2,1",1]]}'),
        ],
    )
    def test_cache_record_that_is_not_a_product_exit_2(self, tmp_path, lineno, record):
        path = tmp_path / "cache.jsonl"
        assert run_cli("verify", "3", "--mode", "pairs", "--cache", str(path)).returncode == 0
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 7
        lines[lineno - 1 : lineno] = [record + "\n"]
        path.write_text("".join(lines))
        res = run_cli("verify", "3", "--mode", "pairs", "--cache", str(path))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {path}: line {lineno} is not a cache record\n"

    def test_wall_time_covers_the_cache_load(self, tmp_path, monkeypatch):
        from kronmf.cache import ProductCache

        path = str(tmp_path / "cache.jsonl")
        assert run_cli("verify", "3", "--mode", "pairs", "--cache", path).returncode == 0
        load = ProductCache._load

        def slow_load(self):
            time.sleep(0.2)
            load(self)

        monkeypatch.setattr(ProductCache, "_load", slow_load)
        res = run_cli("verify", "3", "--mode", "pairs", "--cache", path)
        assert res.returncode == 0
        assert res.stderr.startswith("wall_time=") and res.stderr.endswith("s\n")
        assert float(res.stderr[len("wall_time=") : -2]) >= 0.2

    def test_json_report(self):
        res = run_cli("verify", "4", "--mode", "pairs", "--format", "json")
        blob = json.loads(res.stdout)
        assert blob["mismatches"] == [] and blob["mode"] == "pairs"


@pytest.mark.parametrize(
    "argv",
    [
        # flags a subcommand does not read
        ("classify", "3,3", "4,1,1", "--engine", "dvir"),
        ("classify", "3,3", "4,1,1", "--jobs", "5"),
        ("classify", "3,3", "4,1,1", "--cache", "unused.jsonl"),
        ("classify-triple", "4", "2,2", "3,1", "--force"),
        ("table", "4", "--engine", "dvir"),
        ("table", "4", "--jobs", "2"),
        ("kron", "8,7", "8,7", "--engine", "oracle", "--force"),
        ("coeff", "2,1", "2,1", "2,1", "--format", "csv"),
        ("classify", "3,3", "4,1,1", "--format", "csv"),
        ("classify-triple", "4", "2,2", "3,1", "--format", "csv"),
        ("classify-skew", "3,2/1", "2,2", "--format", "csv"),
        ("verify", "4", "--format", "csv"),
        # verify flags its mode ignores, and --jobs other than 1
        ("verify", "5", "--mode", "skew", "--cache", "unused.jsonl"),
        ("verify", "4", "--mode", "pairs", "--jobs", "2"),
        ("verify", "4", "--mode", "triples", "--jobs", "2"),
        ("verify", "4", "--mode", "engines", "--jobs", "2"),
        ("verify", "4", "--jobs", "0"),
        ("verify", "4", "--mode", "skew", "--jobs", "-3"),
        ("verify", "4", "--mode", "engines", "--engine", "oracle"),
        ("verify", "4", "--mode", "engines", "--engine", "dvir"),
        # degrees out of range
        ("table", "-1"),
        ("verify", "-1"),
        ("verify", "0"),
        ("verify", "0", "--mode", "skew"),
    ],
)
def test_usage_error_is_one_line_exit_2(argv):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "error: " in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("kron", "\uff13", "\uff13"),  # fullwidth 3
        ("kron", "\u0662,\u0661", "\u0663"),  # Arabic-Indic 2,1 and 3
        ("classify-skew", "\uff13/1", "2"),
        ("kron", "2^\uff13", "3,3"),
        ("table", "\uff13"),
        ("verify", "\u0663", "--mode", "skew"),
        ("table", "1_0"),
        ("table", "+3"),
        ("table", " 3"),
        ("verify", "3", "--jobs", "\uff11"),
    ],
)
def test_digits_outside_ascii_are_usage_errors(argv):
    # the grammar and the degrees are ASCII: int() and \d would also read
    # the digits of other scripts, and int() reads "_" as a separator
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "error: " in res.stderr


def test_usage_error_in_a_fresh_interpreter():
    res = run_module("verify", "4", "--format", "csv")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "error: " in res.stderr


@pytest.mark.parametrize(
    "operands",
    [("1^1000000000000", "1"), ("1000000000", "1000000000")],
    ids=["long", "wide"],
)
def test_huge_partition_is_one_line_exit_2(operands):
    # the parser sizes a partition before it builds one, so neither a
    # partition too long to list nor one too wide to conjugate is ever
    # built; the address-space limit turns a regression into a
    # MemoryError instead of exhausting the machine
    import resource

    limit = 1_500_000_000
    res = subprocess.run(
        [sys.executable, "-m", "kronmf", "classify", *operands],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        ("kron 1^1000 1^1000", "[1000]"),
        ("kron 1^300 1^300", "[300]"),
        ("kron 996,4 2,1^998", "[3,2^3,1^991] + [3,2,2,1^993] + [2^5,1^990] + [2^4,1^992] + [2^3,1^994]"),
        ("coeff 2,1^998 2,1^998 1000", "1"),
        ("coeff 2,1^998 1000 2,1^998", "1"),
        ("coeff 1^1000 1^1000 1^1000", "0"),
        ("classify-skew 501,500/1 1000", "multiplicity-free  clause=skew-irr-case-1  normalization=none"),
        (
            "classify-skew 1^200000/1 199999",
            "multiplicity-free  clause=skew-irr-reduced:pair-case-1  normalization=none",
        ),
    ],
)
def test_long_operands_answer_without_recursion(argv, stdout):
    # Dvir sweeps the widest orientation of the pair, so its cost follows
    # the tails; the enumerator and the LR fill keep no per-row stack, and
    # a partition strips its trailing zeros in one slice
    res = subprocess.run(
        [sys.executable, "-m", "kronmf", *argv.split()], capture_output=True, text=True, timeout=30
    )
    assert res.returncode == 0
    assert res.stdout == stdout + "\n"
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [("table", "14"), ("kron", "3^3", "3^3")], ids=["table", "kron"])
def test_closed_pipe_is_one_line_exit_2(argv):
    # the reader is gone before the program starts, as with `| head -1`
    # after it has read its line, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "kronmf", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_is_one_line_exit_2():
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "kronmf", "kron", "3^3", "3^3"], stdout=full, stderr=subprocess.PIPE, text=True)
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_output_fault_in_process_leaves_a_redirected_stdout_alone(monkeypatch):
    # a caller that redirects stdout to a StringIO (which has no file
    # descriptor) gets the one-line error and keeps its stdout
    import kronmf.cli

    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(kronmf.cli, "kron_product", full)
    res = run_cli("kron", "2,1", "2,1")
    assert res.returncode == 2
    assert res.stderr == "error: [Errno 28] No space left on device\n"


def _fuzz_operand(rng, n):
    """A partition of n in the grammar, or now and then a malformed token."""
    if rng.random() < 0.05:
        return rng.choice(
            ["", "a", "3,,1", "1^", "2^0", "-1", "0", "1,3", "2^x", "3/1", " 2 , 1 ", "３", "2²", "é", "1^1000001", "9" * 40]
        )
    parts = rng.choice(enumerate_partitions(n))
    return ",".join(map(str, parts)) if rng.random() < 0.7 else format(parts)


def _fuzz_skew(rng, n):
    if rng.random() < 0.05:
        return rng.choice(["/", "2/3", "3,1/1/1", "3,2/", "/1", "2,2/a", "1^3/1^4", "３/1", "1^1000001/1"])
    outer = rng.choice(enumerate_partitions(n + rng.randrange(3)))
    inner = rng.choice(enumerate_partitions(outer.n - n))
    return f"{format(outer)}/{format(inner)}"


_FUZZ_FLAGS = {
    # each list ends in a value that no subcommand takes
    "--format": ["text", "json", "csv", "xml"],
    "--engine": ["auto", "oracle", "dvir", "fast"],
    "--mode": ["pairs", "triples", "skew", "engines", "all"],
    "--jobs": ["1", "1", "1", "2", "x"],
}
_FUZZ_READS = {
    "kron": ("--format", "--engine"),
    "coeff": ("--format", "--engine"),
    "classify": ("--format",),
    "classify-triple": ("--format",),
    "classify-skew": ("--format",),
    "table": ("--format", "--force"),
    "verify": ("--mode", "--format", "--engine", "--jobs", "--cache", "--force"),
}


def _fuzz_argv(rng, cache_paths):
    """One command line: a subcommand with mostly well-formed operands of
    degree <= 8 and flags it reads, and now and then a bad value, a flag
    it does not read, or a missing or extra argument."""
    command = rng.choice([*_FUZZ_READS] * 3 + ["bogus"])
    n = rng.randrange(9)
    if command in ("table", "verify"):
        argv = [command, str(n) if rng.random() < 0.9 else rng.choice(["-1", "0", "x"])]
    elif command == "classify-skew":
        argv = [command, _fuzz_skew(rng, n), _fuzz_operand(rng, n)]
    else:
        arity = 3 if command in ("coeff", "classify-triple") else 2
        degrees = [n] * arity
        if rng.random() < 0.1:
            degrees[rng.randrange(arity)] = max(n - 1, 0)
        argv = [command] + [_fuzz_operand(rng, d) for d in degrees]
    flags = [f for f in _FUZZ_READS.get(command, ()) if rng.random() < 0.5]
    if rng.random() < 0.1:
        flags.append(rng.choice(["--force", "--cache", *_FUZZ_FLAGS]))
    for flag in flags:
        if flag == "--force":
            argv.append(flag)
        else:
            argv += [flag, rng.choice(cache_paths if flag == "--cache" else _FUZZ_FLAGS[flag])]
    if rng.random() < 0.05:
        argv.append(rng.choice(["7", "--nope"]))
    if rng.random() < 0.05:
        argv = argv[: rng.randrange(len(argv))]
    return argv


def test_fuzzed_command_lines_exit_0_1_or_2_and_a_usage_error_is_one_line(tmp_path):
    # seeded: a failure names its argv and environment, and reruns as is.
    # Degrees stay at or below 8, --force or not, so every case is short,
    # and a cache lies under tmp_path or in a directory that does not exist
    junk = tmp_path / "junk.jsonl"
    junk.write_text("not a cache\n")
    cache_paths = [str(tmp_path / "cache.jsonl"), str(junk), str(tmp_path / "missing" / "cache.jsonl")]
    ceilings = [None, None, None, "0", "5", "8", "14", "-3", "", "x", "9" * 30]
    rng = random.Random(26)
    for _ in range(500):
        argv = _fuzz_argv(rng, cache_paths)
        ceiling = rng.choice(ceilings)
        env = {} if ceiling is None else {"KRONMF_TABLE_CEILING": ceiling}
        try:
            res = run_cli(*argv, env_extra=env)
        except Exception as exc:
            pytest.fail(f"{argv} with {env} raised {exc!r}")
        case = f"{argv} with {env}"
        assert res.returncode in (0, 1, 2), case
        assert "Traceback" not in res.stdout + res.stderr, case
        if res.returncode == 2:
            assert res.stdout == "", case
            assert res.stderr.count("\n") == 1 and "error:" in res.stderr, case


def test_cli_import_leaves_out_the_process_pool():
    # the program runs in one process, and every module it imports without
    # using slows every start; compared with a bare interpreter, so that
    # what a site hook loads does not count
    def modules(imports):
        code = f"import sys{imports}; print(*sys.modules, sep='\\n')"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0
        return set(res.stdout.split())

    added = modules(", kronmf.cli") - modules("")
    assert "kronmf.cli" in added
    assert added.isdisjoint({"concurrent.futures.process", "dataclasses", "inspect", "csv"})


def test_verify_accepts_jobs_1_in_every_mode():
    for mode in ("pairs", "triples", "skew", "engines"):
        assert run_cli("verify", "3", "--mode", mode, "--jobs", "1").returncode == 0


def test_console_script_is_installed():
    import shutil

    exe = shutil.which("kronmf")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "coeff", "2,1", "2,1", "2,1"], capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout.strip() == "1"
