"""Littlewood-Richardson expansions and the outer-product classifications.

Skew characters are expanded into irreducibles by enumerating
column-strict fillings whose reverse reading word is a lattice word.
The enumeration fills cells row by row, right to left inside each row,
which is exactly reverse reading order, so the lattice condition can be
maintained incrementally with a single counts array; in that order the
row ends give each cell's right and upper neighbour by arithmetic.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .expansion import CharacterExpansion, bilinear
from .partitions import (
    EMPTY,
    Partition,
    SkewNormalForm,
    SkewShape,
    _unchecked,
    is_fat_hook,
    is_linear,
    is_near_rectangle,
    is_rectangle,
    is_two_line,
    removable_nodes,
    rotate_skew,
    skew_normalize,
)
from .verdict import MF_NO, MfVerdict


@cache
def _content(parts: tuple[int, ...]) -> Partition:
    """The one ``Partition`` of an LR content, shared by every tally.

    Each distinct tuple is built once, unchecked (``_lr_counts`` argues
    that a content is a partition), and every later tally holding the
    same content reads that object.  Sound: a Partition is an immutable
    tuple, so sharing one changes no value, hash or order; only the
    number of objects the memoised tallies hold drops, to one per
    distinct content.
    """
    return _unchecked(parts)


@cache
def _lr_counts(outer: Partition, inner: Partition) -> dict[Partition, int]:
    """Tally LR tableau contents over all fillings of outer/inner.

    Cells are numbered in fill order, rows top to bottom, each right to
    left: row i spans columns a(i) < j <= b(i) (a = inner, b = outer) and
    its column-j cell is start(i) + b(i) - j.  So the cell right of cell k
    is k - 1 when j < b(i), and the cell above is start(i-1) + b(i-1) - j
    when a(i-1) < j <= b(i-1); no cell lies above any other column, nor
    above the first row or a row under an empty span.

    A content is the counts of a lattice word: every value v > 1 is
    placed only while counts[v - 1] > counts[v], so the nonzero counts
    are weakly decreasing and each content is built unchecked.  A
    filling is tallied under the counts array itself, copied in C; each
    distinct array has one content, read at the end through the
    ``_content`` interner, so the contents keep the order in which they
    were first met, and equal contents of different tallies are one
    object.

    counts has len(outer) + 2 entries: value v, at most its row number,
    is counted at index v, index 0 is unused, and the last entry is never
    written, a sentinel zero.  The nonzero counts come first, so a content
    is the slice from index 1 to the first zero after it.
    """
    # per cell: its row, whether a cell lies to its right, the cell above or -1
    row_of, has_right, above = [], [], []
    a0 = b0 = start0 = 0  # span and first cell of the row above
    for i, b in enumerate(outer, start=1):
        a = inner.row(i)
        start = len(row_of)
        for j in range(b, a, -1):
            row_of.append(i)
            has_right.append(j < b)
            above.append(start0 + b0 - j if a0 < j <= b0 else -1)
        a0, b0, start0 = a, b, start
    ncells = len(row_of)
    if ncells == 0:
        return {EMPTY: 1}
    tally: dict[tuple[int, ...], int] = {}
    counts = [0] * (len(outer) + 2)
    values = [0] * ncells

    # Backtrack by index: cell k takes its next admissible value v, or
    # the search goes back to cell k - 1 and moves it past its value.
    k, v = 0, 1  # the first cell has no cell above it
    while True:
        hi = row_of[k]
        if has_right[k]:
            hi = min(hi, values[k - 1])
        while v <= hi and v > 1 and counts[v - 1] <= counts[v]:
            v += 1
        if v <= hi:
            counts[v] += 1
            values[k] = v
            if k + 1 < ncells:
                k += 1
                v = values[above[k]] + 1 if above[k] >= 0 else 1
                continue
            key = tuple(counts)
            tally[key] = tally.get(key, 0) + 1
        elif k:
            k -= 1
            v = values[k]
        else:
            return {_content(key[1 : key.index(0, 1)]): m for key, m in tally.items()}
        counts[v] -= 1
        v += 1


def skew_expand(s: SkewShape) -> CharacterExpansion:
    """Decompose the skew character of s into irreducibles.

    The memoised tally is handed over as a trusted expansion, unchecked
    and uncopied: every content is a partition of |s| (one count per
    cell), every tally is positive, and no expansion changes its terms
    in place.
    """
    return CharacterExpansion(s.size, _lr_counts(s.outer, s.inner), _trusted=True)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The multiplicity of [lam] in [mu] x [nu], via LR tableau counting."""
    if mu.n + nu.n != lam.n:
        raise ValueError(f"|mu| + |nu| = {mu.n + nu.n} != |lam| = {lam.n}")
    if not lam.contains(mu):
        return 0
    return skew_expand(SkewShape(lam, mu))[nu]


def outer_product_irr(a: Partition, b: Partition) -> CharacterExpansion:
    """Outer (induction) product of two irreducible characters.

    [a] x [b] is the skew character of the disjoint union of the two
    diagrams.  Placing b up and to the right of a, the union is the
    skew shape (b + a_1, a) / (a_1^len(b)), so one LR expansion gives
    the whole product.
    """
    w = a.width
    outer = tuple(part + w for part in b) + tuple(a)
    return skew_expand(SkewShape(outer, (w,) * len(b)))


def outer_product(a: CharacterExpansion, b: CharacterExpansion) -> CharacterExpansion:
    """Bilinear extension of the outer product to expansions."""
    return bilinear(a, b, outer_product_irr, a.degree + b.degree)


def is_mf_outer(a: Partition, b: Partition) -> MfVerdict:
    """Stembridge's classification of multiplicity-free outer products."""
    for left, right, swapped in ((a, b, False), (b, a, True)):
        norm = ("swapped",) if swapped else ()
        if is_rectangle(left) and is_rectangle(right):
            return MfVerdict(True, "outer-rect-rect", norm)
        if is_rectangle(left) and is_near_rectangle(right):
            return MfVerdict(True, "outer-rect-near-rect", norm)
        if is_rectangle(left) and is_two_line(left) and is_fat_hook(right):
            return MfVerdict(True, "outer-2line-rect-fat-hook", norm)
        if is_linear(left):
            return MfVerdict(True, "outer-linear-any", norm)
    return MF_NO


class PathProfile(NamedTuple):
    s_in: int
    s_out: int
    inner_is_rectangle: bool
    outer_removable_count: int


def _rim(row_ends, width: int) -> list[int]:
    """Nonempty segment lengths of the path along row_ends, bottom row
    first: each longer row ends an upward run and steps right, and the
    path closes with the last run and the step to width."""
    segs: list[int] = []
    x = up = 0
    for end in row_ends:
        if end > x:
            segs += (up, end - x)
            x, up = end, 0
        up += 1
    segs += (up, width - x)
    return [r for r in segs if r]


def _rim_paths(s: SkewShape) -> tuple[list[int], list[int]]:
    """Segment lengths of the inner and outer rim paths, in order.

    Both paths run from the lower left to the upper right corner of the
    bounding box; the inner one hugs the inner partition (starting with
    an upward segment), the outer one hugs the outer partition (starting
    rightward).  Lengths count unit cell edges.
    """
    inner = (0,) * (len(s.outer) - len(s.inner)) + s.inner[::-1]
    return _rim(inner, s.outer.width), _rim(s.outer[::-1], s.outer.width)


def _profile(s: SkewShape) -> PathProfile:
    """Rim-path profile of s, read without checking that s is basic."""
    inner_segs, outer_segs = _rim_paths(s)
    inner_is_rectangle = s.inner != EMPTY and is_rectangle(s.inner)
    return PathProfile(min(inner_segs), min(outer_segs), inner_is_rectangle, len(removable_nodes(s.outer)))


def path_profile(s: SkewShape) -> PathProfile:
    """Rim-path profile of a nonempty basic skew shape, else ValueError."""
    norm = skew_normalize(s)
    if s.size == 0:
        raise ValueError("empty shape has no rim paths")
    if norm.basic != s:
        raise ValueError(f"{s!r} is not basic; normalize first")
    return _profile(s)


def is_mf_skew(s: SkewShape) -> MfVerdict:
    """Gutschwager's classification of multiplicity-free skew characters."""
    return _mf_skew_form(skew_normalize(s))


def _mf_skew_form(norm: SkewNormalForm) -> MfVerdict:
    """``is_mf_skew`` of the shape with normal form norm; of the components it reads only their labels."""
    basic = norm.basic
    if basic.size == 0:
        return MfVerdict(True, "skew-empty")
    if norm.label is not None:
        return MfVerdict(True, "skew-irreducible")

    comps = norm.components
    if len(comps) > 2:
        return MF_NO
    if len(comps) == 2:
        return MF_NO if None in comps else is_mf_outer(*comps).reduced("skew-two-components")

    # the rotation of a basic shape is basic, so both rims are read
    # directly, without ``path_profile``'s check
    for shape, rotated in ((basic, False), (rotate_skew(basic), True)):
        if shape.inner == EMPTY or not is_rectangle(shape.inner):
            continue
        norm_tag = ("rotated",) if rotated else ()
        s_in, s_out, _, r = _profile(shape)
        if s_in == 1:
            return MfVerdict(True, "skew-sin-1", norm_tag)
        if s_in == 2 and r == 3:
            return MfVerdict(True, "skew-sin-2-rem-3", norm_tag)
        if s_out == 1 and r == 3:
            return MfVerdict(True, "skew-sout-1-rem-3", norm_tag)
        if r == 2:
            return MfVerdict(True, "skew-rem-2", norm_tag)
    return MF_NO
