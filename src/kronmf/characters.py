"""Exact symmetric-group character tables and the scalar-product oracle.

The oracle computes Kronecker coefficients straight from the definition
(class-size weighted triple products divided by n!) and is the ground
truth that every structural engine is checked against.

Character values come from the Murnaghan-Nakayama border-strip
recursion and are exact Python integers.  Values (on shape and
remaining cycle type), tables and oracle products are memoised with
``functools.cache`` for the life of the process.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from functools import cache
from math import factorial

from .expansion import CharacterExpansion
from .partitions import Partition, dimension, enumerate_partitions, format_partition

DEFAULT_TABLE_CEILING = 14
_CEILING_ENV = "KRONMF_TABLE_CEILING"


class TableCeilingError(ValueError):
    """Raised when a character-table request exceeds the resource ceiling,
    or when the ceiling set in the environment is not an integer."""


def table_ceiling() -> int:
    raw = os.environ.get(_CEILING_ENV)
    if not raw:
        return DEFAULT_TABLE_CEILING
    try:
        return int(raw)
    except ValueError:
        raise TableCeilingError(f"{_CEILING_ENV}={raw!r} is not an integer") from None


def _check_ceiling(n: int, ceiling: int | None) -> None:
    limit = table_ceiling() if ceiling is None else ceiling
    if n > limit:
        raise TableCeilingError(
            f"character table for n={n} exceeds the ceiling {limit}; "
            f"raise it explicitly or via {_CEILING_ENV}"
        )


def _strips(lam: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Removals of a border strip of size k: (height, remaining shape)."""
    ell = len(lam)
    out = []
    for i in range(ell):
        for r in range(i, ell):
            rest = lam[i + 1:r + 1]
            last = lam[i] + (r - i) - k
            below = lam[r + 1] if r + 1 < ell else 0
            if below <= last <= lam[r] - 1:
                mu = lam[:i] + tuple(v - 1 for v in rest) + (last,) + lam[r + 1:]
                while mu and mu[-1] == 0:
                    mu = mu[:-1]
                out.append((r - i, mu))
    return out


@cache
def _char_value(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Character value of the irreducible labelled lam at cycle type cycles.

    ``cycles`` must be sorted weakly decreasing; the largest cycle is
    peeled off first, which keeps the branching shallow.
    """
    if not lam:
        return 1
    k = cycles[0]
    rest = cycles[1:]
    total = 0
    for height, mu in _strips(lam, k):
        sub = _char_value(mu, rest)
        total += -sub if height & 1 else sub
    return total


def character_value(lam: Partition, rho: Partition) -> int:
    """Character of the irreducible [lam] on the class of cycle type rho."""
    if lam.n != rho.n:
        raise ValueError(f"degree mismatch: |{lam!r}| = {lam.n}, |{rho!r}| = {rho.n}")
    return _char_value(tuple(lam), tuple(rho))


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type rho: n! / prod i^{m_i} m_i!."""
    n = rho.n
    z = 1
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    size, rem = divmod(factorial(n), z)
    assert rem == 0
    return size


@dataclass(frozen=True)
class CharacterTable:
    degree: int
    rows: tuple[Partition, ...]
    cols: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.values[self.rows.index(lam)][self.cols.index(rho)]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self.rows.index(lam)]

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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition"] + [format_partition(c) for c in self.cols])
        for lam, row in zip(self.rows, self.values):
            writer.writerow([format_partition(lam)] + list(row))
        return buf.getvalue()

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


@cache
def _table(n: int) -> CharacterTable:
    parts = tuple(enumerate_partitions(n))
    values = tuple(
        tuple(_char_value(tuple(lam), tuple(rho)) for rho in parts) for lam in parts
    )
    return CharacterTable(
        degree=n,
        rows=parts,
        cols=parts,
        values=values,
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


def kron_product_oracle(lam: Partition, mu: Partition) -> CharacterExpansion:
    """Full Kronecker product expansion via the character table."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {mu.n}")
    return _product_oracle(*((lam, mu) if lam >= mu else (mu, lam)))


@cache
def _product_oracle(lam: Partition, mu: Partition) -> CharacterExpansion:
    n = lam.n
    t = character_table(n)
    nfact = factorial(n)
    weights = [cs * x * y for cs, x, y in zip(t.class_sizes, t.row(lam), t.row(mu))]
    terms = {}
    for nu, row in zip(t.rows, t.values):
        total = sum(w * z for w, z in zip(weights, row))
        g, rem = divmod(total, nfact)
        assert rem == 0 and g >= 0
        if g:
            terms[nu] = g
    out = CharacterExpansion(n, terms)
    assert out.total_dimension() == dimension(lam) * dimension(mu)
    return out
