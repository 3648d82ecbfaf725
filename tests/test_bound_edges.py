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
