"""Inputs at the edge of a bound that the other tests stay well inside."""

from math import factorial

from kronmf import characters
from kronmf.characters import kron_product_oracle
from kronmf.partitions import Partition, dimension


def test_packed_decode_bound_is_the_whole_slot(monkeypatch):
    # n! g may use almost all of a slot's bits: at n = 25 a slot is two
    # words, and the square of (6,5,4,4,3,2,1) has n! g >= 2^112, so a
    # decode bound of 7 bits per slot byte would reject a true product
    monkeypatch.setenv("KRONMF_TABLE_CEILING", "25")
    lam = Partition((6, 5, 4, 4, 3, 2, 1))
    try:
        assert characters._packed(25)[0] == 16
        square = kron_product_oracle(lam, lam)
        assert square.max_multiplicity() == 2352826799
        assert square.max_multiplicity() * factorial(25) >= 2**112
        assert square.total_dimension() == dimension(lam) ** 2
    finally:
        # the degree-25 table and its packed columns take about 150 MB
        characters._packed.cache_clear()
        characters._table.cache_clear()


def _widths(monkeypatch):
    """The slot widths mf_row asks _mf_packed for, in call order."""
    widths = []
    packed = characters._mf_packed
    monkeypatch.setattr(characters, "_mf_packed", lambda n, words: widths.append(words) or packed(n, words))
    return widths


def _slots(n, values):
    """Slot alpha of mf_row's packed sum, n! sum of m(m - 1) over the
    multiplicities m of chi . chi^alpha, from the class sums alone."""
    t = characters._table(n)
    sizes, weighted = characters._class_weights(n)
    return [
        sum(cs * v * x * v * x - w * v * x for cs, w, v, x in zip(sizes, weighted, values, row))
        for row in t.values
    ]


def test_mf_row_width_is_the_whole_bound(monkeypatch):
    # the per-call bound may end on a word boundary: at n = 20 the row of
    # (18,2).(9,5,3,2,1) has (max dim)^2 sum cs v^2 of exactly 128 bits,
    # so its slots are two words, and some slot holds n! sum m(m - 1) >=
    # 2^64, which one word fewer would carry into the next slot; the row
    # of (17,3).(14,3,2,1) has 129 bits, one past the boundary, and takes
    # three words
    n = 20
    memo = characters._mf_packed
    widths = _widths(monkeypatch)
    t = characters._table(n)
    sizes, _ = characters._class_weights(n)
    top = max(map(dimension, t.rows)) ** 2
    try:
        for lam, mu, bits, words in [((18, 2), (9, 5, 3, 2, 1), 128, 2), ((17, 3), (14, 3, 2, 1), 129, 3)]:
            values = [x * y for x, y in zip(t.row(Partition(lam)), t.row(Partition(mu)))]
            bound = top * sum(cs * v * v for cs, v in zip(sizes, values))
            assert bound.bit_length() == bits
            slots = _slots(n, values)
            assert 2**64 <= max(slots) <= bound
            assert characters.mf_row(n, values) == [s == 0 for s in slots]
            assert widths.pop() == words
            assert characters.mf_row(n, values, words + 1) == [s == 0 for s in slots]
            assert widths.pop() == words + 1
    finally:
        # the degree-20 packed squares take about 30 MB
        memo.cache_clear()


def test_mf_row_squares_past_one_word(monkeypatch):
    # at n = 22 the square of the largest dimension, that of
    # (7,5,4,3,2,1), passes 2^64, so the packed squares take two-word
    # entries; every verdict still matches the class sums
    monkeypatch.setenv("KRONMF_TABLE_CEILING", "22")
    n = 22
    memo = characters._mf_packed
    widths = _widths(monkeypatch)
    lam = Partition((7, 5, 4, 3, 2, 1))
    try:
        t = characters.character_table(n)
        assert max(map(dimension, t.rows)) == dimension(lam) and dimension(lam) ** 2 >= 2**64
        values = t.row(lam)
        slots = _slots(n, values)
        assert characters.mf_row(n, values) == [s == 0 for s in slots]
        assert widths == [3] and slots.count(0) == 2
    finally:
        # the degree-22 table and its packed squares take about 70 MB
        memo.cache_clear()
        characters._class_weights.cache_clear()
        characters._table.cache_clear()
