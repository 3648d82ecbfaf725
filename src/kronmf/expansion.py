"""Integer-multiplicity expansions in the irreducible-character basis.

A :class:`CharacterExpansion` maps partitions of one fixed degree to
integer multiplicities.  Genuine characters carry positive entries;
virtual characters (differences of characters) may go negative.  The
container is deliberately dumb: products depend on which engine is in
play and live with the engines.

The library iterates terms in the order they were built; only
:meth:`CharacterExpansion.support` sorts them, for rendering.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .partitions import Partition, dimension, format_partition, same_degree


class CharacterExpansion:
    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: Mapping[Partition, int], *, _trusted: bool = False):
        if _trusted:
            # an engine's own product or LR tally: a dict of nonzero terms,
            # handed over, whose labels are partitions of degree by
            # construction.  No method changes _terms in place, so the
            # dict may be a memo's own
            self.degree, self._terms = degree, terms
            return
        for p in terms:
            if not isinstance(p, Partition):
                raise TypeError(f"term label {p!r} is not a Partition")
            if p.n != degree:
                raise ValueError(f"term {p!r} has degree {p.n}, expected {degree}")
        self.degree = degree
        self._terms = {p: m for p, m in terms.items() if m}

    @classmethod
    def irreducible(cls, p: Partition) -> "CharacterExpansion":
        return cls(p.n, {p: 1})

    @classmethod
    def zero(cls, degree: int) -> "CharacterExpansion":
        return cls(degree, {})

    def terms(self) -> dict[Partition, int]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Partition, int]]:
        """The nonzero terms, in no particular order."""
        return iter(self._terms.items())

    def support(self) -> list[Partition]:
        """Labels of the nonzero terms in descending lex order: the display order."""
        return sorted(self._terms, reverse=True)

    def __getitem__(self, p: Partition) -> int:
        return self._terms.get(p, 0)

    def __contains__(self, p: Partition) -> bool:
        return p in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharacterExpansion)
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self._terms.items())))

    def __add__(self, other: "CharacterExpansion") -> "CharacterExpansion":
        return self._merge(other, 1)

    def __sub__(self, other: "CharacterExpansion") -> "CharacterExpansion":
        return self._merge(other, -1)

    def _merge(self, other: "CharacterExpansion", sign: int) -> "CharacterExpansion":
        degree = same_degree(self.degree, other.degree)
        out = dict(self._terms)
        for p, m in other._terms.items():
            out[p] = out.get(p, 0) + sign * m
        return CharacterExpansion(degree, out)

    def scale(self, c: int) -> "CharacterExpansion":
        return CharacterExpansion(self.degree, {p: c * m for p, m in self._terms.items()})

    def conjugate(self) -> "CharacterExpansion":
        """Twist by the sign character: conjugate every label."""
        return CharacterExpansion(self.degree, {p.conjugate(): m for p, m in self._terms.items()})

    def max_multiplicity(self) -> int:
        return max(self._terms.values()) if self._terms else 0

    def is_multiplicity_free(self) -> bool:
        return all(m == 1 for m in self._terms.values())

    def is_genuine(self) -> bool:
        return all(m > 0 for m in self._terms.values())

    def total_dimension(self) -> int:
        return sum(m * dimension(p) for p, m in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for p in self.support():
            m = self._terms[p]
            label = f"[{format_partition(p)}]"
            if m == 1:
                term = label
            elif m == -1:
                term = f"-{label}"
            else:
                term = f"{m}{label}"
            pieces.append(term)
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CharacterExpansion({self.degree}, {self._terms!r})"


def bilinear(a: CharacterExpansion, b: CharacterExpansion, product, degree: int) -> CharacterExpansion:
    """Extend product(p, q), of irreducibles p and q, bilinearly to a and b."""
    terms: dict[Partition, int] = {}
    for p, m1 in a.items():
        for q, m2 in b.items():
            for r, c in product(p, q).items():
                terms[r] = terms.get(r, 0) + m1 * m2 * c
    return CharacterExpansion(degree, terms)
