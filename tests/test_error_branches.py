"""Error branches and small behaviours that no other test reaches.

Each case pins the exception type and its whole message.  Left out on
purpose: invariants that only a bug can break (asserts, and the
``AssertionError``, ``RuntimeError`` and ``DvirInvariantError`` raises),
the big-endian ``byteswap`` lines and the CLI's ``__main__`` guard.
"""

import pytest

from kronmf.cache import HEADER_LINE, ProductCache
from kronmf.characters import character_table, character_value, kron_product_oracle
from kronmf.classification import is_mf_triple, kk_square, staircase_square
from kronmf.expansion import CharacterExpansion
from kronmf.kronecker import g_at_max_width, g_dvir, kron_product, virtual_extension_chi
from kronmf.partitions import (
    Node,
    Partition,
    add_node,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    hook_length,
    remove_node,
)


def P(*parts):
    return Partition(parts)


def E(degree, terms):
    return CharacterExpansion(degree, terms)


def _unsupported_version(tmp):
    path = tmp / "cache.jsonl"
    path.write_text('{"format":"kronmf-cache","version":2}\n')
    ProductCache(str(path))


CASES = {
    "remove_node-not-a-corner": (
        lambda tmp: remove_node(P(2, 1), Node(1, 1)),
        "Node(row=1, col=1) is not a corner of Partition((2, 1))",
    ),
    "add_node-below-the-last-row-not-in-column-1": (
        lambda tmp: add_node(P(2, 1), Node(3, 2)),
        "Node(row=3, col=2) is not addable to Partition((2, 1))",
    ),
    "enumerate_partitions-negative": (lambda tmp: enumerate_partitions(-1), "n must be nonnegative"),
    "enumerate_basic_skew_shapes-negative": (
        lambda tmp: enumerate_basic_skew_shapes(-1),
        "size must be nonnegative",
    ),
    "hook_length-row-0": (
        lambda tmp: hook_length(P(3, 1), 0, 1),
        "node (0, 1) is not in the diagram of Partition((3, 1))",
    ),
    "hook_length-column-0": (
        lambda tmp: hook_length(P(3, 1), 1, 0),
        "node (1, 0) is not in the diagram of Partition((3, 1))",
    ),
    "hook_length-past-the-row": (
        lambda tmp: hook_length(P(3, 1), 1, 5),
        "node (1, 5) is not in the diagram of Partition((3, 1))",
    ),
    "hook_length-column-past-a-lower-row": (
        lambda tmp: hook_length(P(3, 1), 2, 3),
        "node (2, 3) is not in the diagram of Partition((3, 1))",
    ),
    "hook_length-below-the-last-row": (
        lambda tmp: hook_length(P(3, 1), 3, 1),
        "node (3, 1) is not in the diagram of Partition((3, 1))",
    ),
    "character_table-negative": (lambda tmp: character_table(-1), "n must be nonnegative"),
    "character_value-degrees": (lambda tmp: character_value(P(3), P(2, 2)), "degree mismatch: 3 vs 4"),
    "kron_product_oracle-degrees": (lambda tmp: kron_product_oracle(P(2), P(1)), "degree mismatch: 2 vs 1"),
    "g_dvir-degrees": (lambda tmp: g_dvir(P(2), P(1), P(2)), "degree mismatch: 2, 1, 2"),
    "g_at_max_width-degrees": (lambda tmp: g_at_max_width(P(2), P(1, 1), P(1)), "degree mismatch: 1 vs 2"),
    "kron_product-degrees": (lambda tmp: kron_product(P(2), P(1)), "degree mismatch: 2 vs 1"),
    "virtual_extension_chi-degrees": (lambda tmp: virtual_extension_chi(P(2), P(1)), "degree mismatch: 2 vs 1"),
    "virtual_extension_chi-degree-0": (
        lambda tmp: virtual_extension_chi(P(), P()),
        "operand Partition(()) is (n) or (n-1,1) up to conjugation",
    ),
    "is_mf_triple-degrees": (lambda tmp: is_mf_triple(P(2), P(2), P(1)), "degree mismatch: 2, 2, 1"),
    "staircase_square-0": (lambda tmp: staircase_square(0), "k must be positive"),
    "kk_square-0": (lambda tmp: kk_square(0), "k must be positive"),
    "expansion-term-degree": (lambda tmp: E(2, {P(1): 1}), "term Partition((1,)) has degree 1, expected 2"),
    "expansion-add-degrees": (lambda tmp: E(1, {}) + E(2, {}), "degree mismatch: 1 vs 2"),
    "expansion-sub-degrees": (lambda tmp: E(2, {}) - E(1, {}), "degree mismatch: 2 vs 1"),
    "cache-unsupported-version": (_unsupported_version, "{tmp}/cache.jsonl: unsupported cache version 2"),
}


@pytest.mark.parametrize("name", CASES)
def test_error_branch_raises_its_message(name, tmp_path):
    call, message = CASES[name]
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert type(info.value) is ValueError
    assert str(info.value) == message.format(tmp=tmp_path)


def test_expansion_zero_and_negative_terms_truth_and_repr():
    zero = E(2, {})
    assert str(zero) == "0" and not zero
    assert zero.max_multiplicity() == 0
    virtual = E(2, {P(2): -1, P(1, 1): 1})
    assert str(virtual) == "-[2] + [1,1]"
    assert str(E(2, {P(2): 1, P(1, 1): -1})) == "[2] - [1,1]"
    assert virtual
    assert repr(E(2, {P(2): -1})) == "CharacterExpansion(2, {Partition((2,)): -1})"


def test_put_of_a_loaded_key_writes_nothing(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = '{"n":2,"lambda":"2","mu":"2","terms":[["2",1]]}\n'
    path.write_text(HEADER_LINE + record)
    cache = ProductCache(str(path))
    cache.put(2, P(2), P(2), {P(1, 1): 1})
    cache.flush()
    assert path.read_text() == HEADER_LINE + record
    assert cache.get(2, P(2), P(2)) == {P(2): 1}
    assert len(cache) == 1


def test_a_put_key_is_written_once_and_never_answered(tmp_path):
    # one key store: a key put since the open reads as a miss, counts in
    # len and is not written again, under either operand order
    path = tmp_path / "cache.jsonl"
    cache = ProductCache(str(path))
    cache.put(2, P(2), P(1, 1), {P(1, 1): 1})
    cache.put(2, P(1, 1), P(2), {P(1, 1): 1})
    cache.flush()
    assert path.read_text() == HEADER_LINE + '{"n":2,"lambda":"2","mu":"1,1","terms":[["1,1",1]]}\n'
    assert cache.get(2, P(2), P(1, 1)) is None
    assert len(cache) == 1
