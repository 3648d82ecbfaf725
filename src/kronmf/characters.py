"""Exact symmetric-group character tables and the scalar-product oracle.

The oracle computes Kronecker coefficients straight from the definition
(class-size weighted triple products divided by n!) and is the ground
truth that every structural engine is checked against.

The table is built by rows (``_rows``), with the Murnaghan-Nakayama
rule applied by rim-hook removal on a bead abacus: the row of a
partition lam of degree m is assembled from the rows of the partitions
lam - h of degree m - k, over the rim hooks h of each size k.  Each row
is one packed integer with a fixed-width slot per cycle type, so the
block of cycle types with first part k is the signed sum of the
children's rows, cut to a suffix and moved into place with a shift.
The rows of lower degree live only during the build.  A single value
(``character_value``) comes from the same rule applied forward, a
border strip added per part (``_add_strips``), and stays the
independent reference for the table.  All values are exact Python
integers.  Three kernels are memoised with ``functools.cache`` for the
life of the process, one entry per degree:
``_table`` (one table), ``_packed`` (the same table packed by columns,
and the rows' dimensions, built on the first product of a degree, never
by ``character_table``) and ``_class_weights`` (the class sizes and the
class-weighted column sums, built on the first ``is_mf_class_function``
of a degree).
Products from ``kron_row_oracle`` and single values from
``character_value`` are recomputed on each call.

A product [lam].[mu] is one Kronecker substitution (D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 44, 2009): each column rho of the table is packed into
one integer P_rho with a fixed-width slot per row nu, and the sum over
rho of cs_rho chi^lam(rho) chi^mu(rho) P_rho holds n! g(lam, mu, nu) in
slot nu.  That is p(n) big-integer multiply-adds in C in place of p(n)^2
interpreted ones.  Products come by the row: ``kron_row_oracle`` weighs
the columns by cs_rho chi^lam(rho) once per lam, so each [lam].[mu]
of the row is one sum of those columns times chi^mu(rho), decoded by
one exact division of the whole sum by n!, after which each slot's low
word is g.  ``kron_product_oracle`` is its one-mu case.  ``kron_oracle``
keeps the row dot product, one coefficient at a time, as the independent
reference for the packed path.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from functools import cache
from itertools import compress, groupby
from math import factorial, isqrt
from operator import mul
from typing import Iterable, Iterator

from .expansion import CharacterExpansion
from .partitions import Partition, csv_field, dimension, enumerate_partitions, format_partition, parse_integer

DEFAULT_TABLE_CEILING = 14
_CEILING_ENV = "KRONMF_TABLE_CEILING"
# the largest n with isqrt(n!) < 2^63: every character value of degree n
# is at most dim <= isqrt(n!) in size, so the table's 64-bit words hold it
MAX_TABLE_DEGREE = 33


class TableCeilingError(ValueError):
    """Raised when a character-table request exceeds the resource ceiling
    or the 64-bit values the table holds (n > MAX_TABLE_DEGREE), or when
    the ceiling set in the environment is not an integer."""


def table_ceiling() -> int:
    raw = os.environ.get(_CEILING_ENV)
    if not raw:
        return DEFAULT_TABLE_CEILING
    try:
        return parse_integer(raw)
    except ValueError:
        raise TableCeilingError(f"{_CEILING_ENV}={raw!r} is not an integer") from None


def _check_ceiling(n: int, ceiling: int | None) -> None:
    limit = table_ceiling() if ceiling is None else ceiling
    if n > limit:
        raise TableCeilingError(
            f"character table for n={n} exceeds the ceiling {limit}; "
            f"raise it explicitly or via {_CEILING_ENV}"
        )


def _beads(lam: tuple[int, ...], n: int) -> int:
    """Bead mask of lam (at most n parts) on an n-bead abacus: bead i
    sits at position lam_i + n - 1 - i, with lam_i = 0 past the last part."""
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


def _add_strips(vec: dict[int, int], k: int) -> dict[int, int]:
    """Multiply a Schur-basis vector {bead mask: coefficient} by p_k.

    Soundness.  The Schur functions are orthonormal for the Hall inner
    product and chi^lam(rho) = <p_rho, s_lam>, so the column of cycle
    type rho is the Schur expansion of p_rho, the product of p_k over the
    parts k of rho.  The Murnaghan-Nakayama rule gives
    s_mu * p_k = sum of (-1)^ht(lam/mu) s_lam over the lam for which
    lam/mu is a border strip of size k, ht being its number of rows
    minus one.  On the abacus (James-Kerber, 2.7) these strips are
    exactly the moves of one bead from an occupied b to an empty b + k.
    If the bead was row r and j beads lie strictly between b and b + k,
    the moved bead becomes row r - j and rows r - j + 1 .. r each take
    the bead of the row above, ending one cell past where that row
    ended.  The added cells fill rows r - j .. r, consecutive rows share
    exactly one column, and they number k: a border strip of height j.
    The reverse move removes any such strip, so moves and strips match
    one to one.  n beads suffice for a degree-n computation started from
    the empty partition, because every shape reached has at most n parts.
    """
    out: dict[int, int] = {}
    get = out.get
    between = (1 << (k - 1)) - 1
    for mask, c in vec.items():
        movable = mask & ~(mask >> k)
        while movable:
            bead = movable & -movable
            movable ^= bead
            new = mask ^ bead ^ (bead << k)
            if (mask & (between * (bead << 1))).bit_count() & 1:
                out[new] = get(new, 0) - c
            else:
                out[new] = get(new, 0) + c
    return {mask: c for mask, c in out.items() if c}


def character_value(lam: Partition, rho: Partition) -> int:
    """Character of the irreducible [lam] on the class of cycle type rho."""
    if lam.n != rho.n:
        raise ValueError(f"degree mismatch: |{lam!r}| = {lam.n}, |{rho!r}| = {rho.n}")
    n = lam.n
    vec = {(1 << n) - 1: 1}
    for k in rho:
        vec = _add_strips(vec, k)
    return vec.get(_beads(lam, n), 0)


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type rho: n! / prod i^{m_i} m_i!."""
    z = 1
    for part, run in groupby(rho):
        m = len(list(run))
        z *= part**m * factorial(m)
    size, rem = divmod(factorial(rho.n), z)
    assert rem == 0
    return size


class CharacterTable:
    """The exact character table of degree ``degree``, immutable:
    ``values[i][j]`` is the character of ``rows[i]`` on the class
    ``cols[j]``, of size ``class_sizes[j]``.  Equality and the hash
    read the five fields."""

    __slots__ = ("degree", "rows", "cols", "values", "class_sizes", "_index")

    def __init__(
        self,
        degree: int,
        rows: tuple[Partition, ...],
        cols: tuple[Partition, ...],
        values: tuple[tuple[int, ...], ...],
        class_sizes: tuple[int, ...],
    ) -> None:
        # rows and cols are both the partitions of degree, in one order
        index = {p: i for i, p in enumerate(rows)}
        for name, value in zip(self.__slots__, (degree, rows, cols, values, class_sizes, index)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable CharacterTable")

    def _fields(self) -> tuple:
        return self.degree, self.rows, self.cols, self.values, self.class_sizes

    def __eq__(self, other) -> bool:
        return type(other) is CharacterTable and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.values[self._index[lam]][self._index[rho]]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self._index[lam]]

    def check_orthogonality(self) -> None:
        """Both orthogonality relations, exactly; raises on violation."""
        nfact = factorial(self.degree)
        k = len(self.rows)
        for a in range(k):
            for b in range(a, k):
                dot = sum(
                    cs * x * y
                    for cs, x, y in zip(self.class_sizes, self.values[a], self.values[b])
                )
                expected = nfact if a == b else 0
                if dot != expected:
                    raise AssertionError(f"row orthogonality fails at {self.rows[a]}, {self.rows[b]}")
        for a in range(k):
            for b in range(a, k):
                dot = sum(self.values[i][a] * self.values[i][b] for i in range(k))
                expected = nfact // self.class_sizes[a] if a == b else 0
                if dot != expected:
                    raise AssertionError(f"column orthogonality fails at {self.cols[a]}, {self.cols[b]}")

    def to_csv(self) -> str:
        lines = [",".join(["partition", *(csv_field(format_partition(c)) for c in self.cols)])]
        for lam, row in zip(self.rows, self.values):
            lines.append(",".join([csv_field(format_partition(lam)), *map(str, row)]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.degree,
                "partitions": [format_partition(p) for p in self.rows],
                "cycle_types": [format_partition(c) for c in self.cols],
                "class_sizes": list(self.class_sizes),
                "values": [list(row) for row in self.values],
            },
            separators=(",", ":"),
        )


def character_table(n: int, ceiling: int | None = None) -> CharacterTable:
    """Complete exact character table of the symmetric group of degree n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_ceiling(n, ceiling)
    return _table(n)


def _restricted_counts(n: int) -> list[list[int]]:
    """counts[c][m] = the number of partitions of m with all parts <= c,
    for 0 <= c, m <= n: adding parts of size c to the partitions with
    parts < c, or not."""
    counts = [[1] + [0] * n]
    for c in range(1, n + 1):
        row = counts[-1][:]
        for m in range(c, n + 1):
            row[m] += row[m - c]
        counts.append(row)
    return counts


def _rows(
    n: int, parts: tuple[Partition, ...], words: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The rows of the degree-n table, for parts the partitions of n in
    descending lex order, each row over the cycle types in that order.

    Soundness.  The Murnaghan-Nakayama rule by rim-hook removal:
    chi^lam(k, rho') is the sum of (-1)^ht(h) chi^(lam - h)(rho') over
    the rim hooks h of lam of size k, and chi^() = 1 on the empty cycle
    type.  On an n-bead abacus (``_beads``) a rim hook of size k is a
    bead moved from an occupied b to an empty b - k, and its height is
    the number of beads strictly between: the reverse of a strip move of
    ``_add_strips``.  A partition of degree m <= n has at most n parts,
    so one n-bead mask names a partition of any degree.

    Layout.  A row is one signed integer with a B-bit slot per cycle type,
    B = 64 * words, the i-th cycle type in descending lex order at weight
    2^(B i).  Among the cycle types of m with parts <= c, those with first
    part k form one block, which starts at slot counts[c][m] -
    counts[k][m], after the types with a larger first part.  It holds the
    types (k, rho'), rho' running over the partitions of m - k with parts
    <= k in descending lex order.  That is the suffix of the last
    counts[k][m - k] slots of a degree-(m - k) row.  So a block is the
    signed sum of the children's rows, cut to that suffix and shifted
    into place, and a row is the plain sum of its disjoint blocks.

    The n - m cap.  A row of degree m < n keeps only the cycle types with
    parts <= n - m.  It is read only by the block k' of a row of degree
    m + k' <= n, on the parts <= k' <= n - m, so no slot a degree-n row
    depends on is dropped.  The degree-n rows keep every cycle type, and
    the children of their block k, of degree n - k, hold exactly the
    parts <= k, so those blocks need no cut.

    The bias bound.  The cut adds the bias, 2^(B - 1) in every slot,
    before the right shift and subtracts it from the slots kept after.
    If every slot of the sum lies strictly between -2^(B - 1) and
    2^(B - 1), each biased slot is a digit in [0, 2^B), so the shift
    drops the low slots with no borrow.  A block sums at most n hooks,
    since the rim hooks of size k match the cells of hook length k, and
    each value obeys |chi^mu(rho)| <= dim mu <= isqrt(m!), since the
    squared dimensions sum to m!.  So B >= bitlen(n * isqrt(n!)) + 2
    bounds every slot.  The degree-n rows are read back the same way:
    with the bias added every slot is a digit, one XOR with the bias
    turns it into its value's two's complement in B bits, and the low
    64-bit word of the slot is the value, since |chi| <= isqrt(n!) <
    2^63.  ``words`` only widens the slots; by default it is the least
    the bound allows.
    """
    root = isqrt(factorial(n))
    assert root < 1 << 63
    if words is None:
        words = -(-((n * root).bit_length() + 2) // 64)
    width = 64 * words
    digit = bytes(8 * words - 1) + b"\x80"
    biases: dict[int, int] = {}

    def bias(slots: int) -> int:
        if slots not in biases:
            biases[slots] = int.from_bytes(digit * slots, "little")
        return biases[slots]

    counts = _restricted_counts(n)
    rows = {(1 << n) - 1: 1}
    level = [(1 << n) - 1]
    for m in range(1, n + 1):
        if m < n:
            # one box added to each partition of m - 1: a bead moved up one
            masks: set[int] = set()
            for mask in level:
                movable = mask & ~(mask >> 1)
                while movable:
                    bead = movable & -movable
                    movable ^= bead
                    masks.add(mask ^ bead ^ (bead << 1))
            level = list(masks)
        else:
            level = [_beads(lam, n) for lam in parts]
        cap = n - m or n  # the degree-n rows keep every cycle type
        for mask in level:
            row = 0
            for k in range(1, min(cap, m) + 1):
                block = 0
                movable = mask & ~(mask << k) & -(1 << k)
                while movable:
                    bead = movable & -movable
                    movable ^= bead
                    child = rows[mask ^ bead ^ (bead >> k)]
                    if (mask & (bead - (bead >> (k - 1)))).bit_count() & 1:
                        block -= child
                    else:
                        block += child
                if block:
                    j = m - k
                    keep = counts[k][j]
                    held = counts[n - j][j]
                    if held > keep:
                        block = ((block + bias(held)) >> (width * (held - keep))) - bias(keep)
                    row += block << (width * (counts[cap][m] - counts[k][m]))
            rows[mask] = row
    full = bias(len(parts))
    size = 8 * words * len(parts)
    out = []
    for mask in level:
        slots = array("q", ((rows[mask] + full) ^ full).to_bytes(size, "little"))
        if sys.byteorder == "big":
            slots.byteswap()
        out.append(tuple(slots[::words]))
    return tuple(out)


@cache
def _table(n: int) -> CharacterTable:
    """The degree-n table: rows from ``_rows``, columns in the same order."""
    if n > MAX_TABLE_DEGREE:
        raise TableCeilingError(f"character values for n={n} may not fit 64-bit words")
    parts = tuple(enumerate_partitions(n))
    return CharacterTable(
        degree=n,
        rows=parts,
        cols=parts,
        values=_rows(n, parts),
        class_sizes=tuple(class_size(rho) for rho in parts),
    )


def kron_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient from the class-sum scalar product."""
    if not (lam.n == mu.n == nu.n):
        raise ValueError(f"degree mismatch: {lam.n}, {mu.n}, {nu.n}")
    t = character_table(lam.n)
    total = sum(
        cs * x * y * z
        for cs, x, y, z in zip(t.class_sizes, t.row(lam), t.row(mu), t.row(nu))
    )
    g, rem = divmod(total, factorial(lam.n))
    assert rem == 0, f"scalar product not divisible by n! for {lam}, {mu}, {nu}"
    assert g >= 0
    return g


@cache
def _packed(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The degree-n table packed by columns: (slot bytes, P_rho per column,
    dim nu per row).

    The dimensions come from the hook length formula, not from the
    table, so the dimension check of ``kron_row_oracle`` rests on
    nothing the table computed.

    P_rho = sum over rows nu of chi^nu(rho) * 2^(B * i_nu), i_nu being the
    row index of nu and B = 8 * slot bytes.  So sum over rho of
    w_rho * P_rho holds sum over rho of w_rho * chi^nu(rho) in slot nu,
    as long as each slot's final value fits its B bits.

    Soundness.  For w_rho = cs_rho chi^lam(rho) chi^mu(rho), slot nu's
    exact value is sum over rho of cs chi^lam chi^mu chi^nu = n! g(lam,
    mu, nu) >= 0.  It is at most n! * max dim: |chi^nu(rho)| <= dim(nu),
    and sum over rho of cs |chi^lam chi^mu| <= n! by Cauchy-Schwarz and
    row orthogonality.  B is a whole number of 64-bit words with
    B >= bitlen(n! * max dim) + 2, so every slot value lies in [0, 2^B)
    and the base-2^B digits of the exact sum are those values, with no
    borrow between slots.  Intermediate sums may be negative or carry
    across slots; that does not matter, because big-integer arithmetic is
    exact and only the final sum is read.  The largest dimension is read
    from the identity class, the last column; the n-cycle column, the
    first, has entries 0 and +-1 only.

    Packing is linear in the table size, with no per-entry Python
    arithmetic: each column goes into an array of 64-bit words (each
    entry the low word of its slot, zero above; array("q") rejects
    |entry| >= 2^63), which is read as an unsigned integer A.  A negative
    entry x reads as x + 2^64, flagged by the top bit of its word, so
    P_rho = A minus twice the flagged bits.

    Word order.  Slot i holds words i * W .. i * W + W - 1 of the
    little-endian 64-bit word sequence of a packed sum, W = B / 64, its
    low word first.  So word j of every slot is the strided slice
    [j::W] of that sequence, and slot i's value is the sum over j of
    word j << 64 j.
    """
    t = _table(n)
    k = len(t.rows)
    dim_bound = factorial(n) * max(row[-1] for row in t.values)
    words = -(-(dim_bound.bit_length() + 2) // 64)
    sign_bits = int.from_bytes((bytes(7) + b"\x80" + bytes(8 * words - 8)) * k, "little")
    slots = array("q", bytes(8 * k * words))
    columns = []
    for column in zip(*t.values):
        slots[::words] = array("q", column)
        if sys.byteorder == "big":
            slots.byteswap()
        a = int.from_bytes(slots, "little")
        columns.append(a - ((a & sign_bits) << 1))
    return 8 * words, tuple(columns), tuple(map(dimension, t.rows))


def kron_row_oracle(lam: Partition, mus: Iterable[Partition]) -> Iterator[CharacterExpansion]:
    """[lam].[mu] for each mu of mus in turn, via the character table.

    Lazy: the table, the packed columns and lam's weighted columns are
    built at the first product asked for, so a row that is never asked
    for builds nothing.

    Row form.  V_rho = cs_rho chi^lam(rho) P_rho, P_rho being
    ``_packed``'s column, is formed once per row, and [lam].[mu] is the
    one sum S = sum over rho of chi^mu(rho) V_rho: p(n) big multiplies
    by a table entry per product, in place of weighing every column by
    cs_rho chi^lam(rho) chi^mu(rho) afresh for each pair.  Slot nu of S
    holds s_nu = n! g(lam, mu, nu), with 0 <= s_nu < 2^B (see
    ``_packed``).

    Soundness of the decode.  One exact division, S = n! q + r, decodes
    every slot.  Write q = sum over nu of q_nu 2^(B nu), its base-2^B
    digits, which ``to_bytes`` writes out (and refuses a q that is
    negative or wider than p(n) slots).  Require r = 0, every high word
    of every q_nu to be 0 (one AND with a mask of those words), and
    max q_nu * n! < 2^B.  Then S = sum over nu of (n! q_nu) 2^(B nu)
    with every n! q_nu in [0, 2^B): a base-2^B digit expansion of S.
    Digits are unique, so n! q_nu = s_nu, and g(lam, mu, nu) = q_nu is
    the low word of slot nu.  These checks stand in for a remainder test
    per slot.  Read as unsigned 64-bit words in ``_packed``'s word order,
    the low words of all slots are the one strided slice [::W].

    Every product is also checked: sum of g dim nu = dim lam dim mu, one
    C-level sum over the slots against ``_packed``'s hook-length
    dimensions; dim lam and dim mu are read at the row index that finds
    their table rows.
    """
    n = lam.n
    t = character_table(n)
    slot, columns, dims = _packed(n)
    nfact = factorial(n)
    width = slot // 8
    size = slot * len(t.rows)
    limit = 1 << (8 * slot)
    # every bit of every slot above its low word; 0 for one-word slots
    high = int.from_bytes((bytes(8) + b"\xff" * (slot - 8)) * len(t.rows), "little")
    i = t._index[lam]
    dim_lam = dims[i]
    weighted = list(map(mul, map(mul, t.class_sizes, t.values[i]), columns))
    for mu in mus:
        if mu.n != n:
            raise ValueError(f"degree mismatch: {n} vs {mu.n}")
        j = t._index[mu]
        q, r = divmod(sum(map(mul, t.values[j], weighted)), nfact)
        words = array("Q", q.to_bytes(size, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        low = words[::width]
        assert r == 0 and not q & high and max(low) * nfact < limit
        assert sum(map(mul, low, dims)) == dim_lam * dims[j]
        yield CharacterExpansion(n, dict(compress(zip(t.rows, low), low)), _trusted=True)


def kron_product_oracle(lam: Partition, mu: Partition) -> CharacterExpansion:
    """Full Kronecker product expansion via the character table: the
    one-mu row of ``kron_row_oracle``."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {mu.n}")
    return next(kron_row_oracle(lam, (mu,)))


@cache
def _class_weights(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cs_rho, cs_rho * r(rho)) per class of degree n, in column order.

    r(rho) = sum over nu of chi^nu(rho) is the column sum of the table.
    """
    t = _table(n)
    return t.class_sizes, tuple(map(mul, t.class_sizes, map(sum, zip(*t.values))))


def is_mf_class_function(n: int, values) -> bool:
    """Is the genuine character with these values on the classes of
    degree n (in the table's column order) multiplicity-free?

    Soundness.  Write chi = sum of m_nu chi^nu.  By row orthogonality
    <chi, chi> = sum of m_nu^2 and <chi, r> = sum of m_nu, where
    <f, g> = (1/n!) sum over rho of cs_rho f(rho) g(rho) and r is the sum
    of all irreducible characters.  So n! (<chi, chi> - <chi, r>) = n!
    sum of m(m - 1), which for a genuine chi (every m >= 0) is >= 0, and 0
    iff every m <= 1.  The test compares the two class sums exactly, with
    no expansion and no division.  The callers pass genuine characters
    only: an irreducible, a skew character (its Littlewood-Richardson
    coefficients are >= 0), and pointwise products of these, which are
    genuine because Kronecker coefficients are >= 0.
    """
    sizes, weighted = _class_weights(n)
    return sum(map(mul, map(mul, sizes, values), values)) == sum(map(mul, weighted, values))
