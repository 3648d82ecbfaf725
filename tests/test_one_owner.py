"""Decisions made in one place: outside integers, CSV fields and small
shapes up to conjugation, each read the same way by every caller."""

import contextlib
import csv
import io
import os
from unittest import mock

import pytest

from kronmf.characters import character_table
from kronmf.cli import main
from kronmf.kronecker import virtual_extension_chi
from kronmf.partitions import (
    Partition,
    _face,
    classify_shape,
    conjugate,
    csv_field,
    enumerate_partitions,
    format_partition,
    parse_integer,
)


def run_cli(*args, env=None):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("7", 7), ("007", 7), ("-3", -3), ("16", 16)])
def test_parse_integer_reads_ascii_digits(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("text", ["", "-", "+16", " 16", "16 ", "16\n", "1_6", "１６", "٣", "--3", "1.0", "0x10"])
def test_parse_integer_rejects_what_int_would_stretch_to(text):
    with pytest.raises(ValueError) as info:
        parse_integer(text)
    assert str(info.value) == f"bad integer {text!r}"


@pytest.mark.parametrize("value", ["１６", "1_6", " 16", "+16"])
def test_table_ceiling_from_the_environment_takes_ascii_digits_only(value):
    code, out, err = run_cli("table", "1", env={"KRONMF_TABLE_CEILING": value})
    assert (code, out) == (2, "")
    assert err == f"error: KRONMF_TABLE_CEILING={value!r} is not an integer\n"


@pytest.mark.parametrize(
    "value, code, err",
    [
        ("16", 0, ""),
        ("", 0, ""),
        ("-3", 2, "error: character table for n=1 exceeds the ceiling -3; raise it explicitly or via KRONMF_TABLE_CEILING\n"),
    ],
)
def test_table_ceiling_from_the_environment_as_before(value, code, err):
    got, out, got_err = run_cli("table", "1", env={"KRONMF_TABLE_CEILING": value})
    assert (got, got_err) == (code, err)
    assert out == ("" if code else " " * 11 + "1\nclass size 1\n" + " " * 9 + "1 1\n")


def _writer_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def test_csv_field_is_what_csv_writer_writes():
    for n in range(9):
        for p in enumerate_partitions(n):
            label = format_partition(p)
            assert f"{csv_field(label)},1\n" == _writer_line([label, 1]), label
            assert f"1,{csv_field(label)}\n" == _writer_line([1, label]), label


@pytest.mark.parametrize("n", range(9))
def test_table_csv_is_what_csv_writer_writes(n):
    t = character_table(n)
    expected = _writer_line(["partition", *map(format_partition, t.cols)])
    for lam, row in zip(t.rows, t.values):
        expected += _writer_line([format_partition(lam), *row])
    assert t.to_csv() == expected


def test_face_reads_the_empty_partition():
    assert _face(Partition(), False) == _face(Partition(), True) == (0, 0, 0)


def test_natural_label_is_n_minus_1_1_up_to_conjugation():
    for n in range(10):
        for p in enumerate_partitions(n):
            natural = n >= 3 and Partition((n - 1, 1)) in (p, conjugate(p))
            assert (classify_shape(p).tag == "natural-label") == natural, p


def test_virtual_extension_chi_bans_n_and_n_minus_1_1_up_to_conjugation():
    for n in range(9):
        banned = {Partition((n,)), Partition((n - 1, 1)) if n >= 2 else Partition((n,))}
        banned |= {conjugate(p) for p in banned}
        for p in enumerate_partitions(n):
            # p against itself: lam/beta is empty, so an operand that is
            # not banned fails the single-row test instead
            with pytest.raises(ValueError) as info:
                virtual_extension_chi(p, p)
            assert ("up to conjugation" in str(info.value)) == (p in banned), p
