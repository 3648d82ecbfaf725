"""Integer partitions, Young diagrams and skew shapes.

Everything downstream (characters, Littlewood-Richardson expansions, the
Kronecker engines) consumes the types defined here.  All values are
tuples, ``Partition`` a tuple subclass and the rest tuple records, so
the tuple makes them immutable and hashable, copies and pickles them,
and they can be used as memo keys and shared freely between threads.
Skew shapes are read as row spans: one walk over the rows gives a
shape's normal form, its basic form and its components' labels, kept
by no memo: the skew sweep normalises each shape once and hands it on.
The basic shapes of a size are listed from their row lengths and
offsets.
It also owns the text grammar (integers, partitions, CSV fields), the
one degree check (``same_degree``) and, in ``_face``, the test of a
small shape up to conjugation.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, groupby, product, repeat
from math import factorial
from typing import Iterable, Iterator, NamedTuple


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction; a part that is not an
    integer raises TypeError (no float or string is coerced), and
    anything not weakly decreasing and positive is rejected.  Equality,
    ordering and hashing are inherited from tuple, so two equal
    partitions always hash identically.

    The check runs in C: a weakly decreasing tuple whose last part is
    positive has every part positive.  Only a rejected tuple is walked
    in Python, to name its first bad part in the message.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(map(operator.index, parts))
        if parts and not parts[-1]:
            end = len(parts) - 1
            while end and parts[end - 1] == 0:
                end -= 1
            parts = parts[:end]
        if parts and (parts[-1] < 0 or any(map(operator.lt, parts, parts[1:]))):
            for i, p in enumerate(parts):
                if p <= 0:
                    raise ValueError(f"partition parts must be positive, got {p}")
                if i and parts[i - 1] < p:
                    raise ValueError(f"parts not weakly decreasing: {parts}")
        return tuple.__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def width(self) -> int:
        return self[0] if self else 0

    @property
    def depth(self) -> int:
        return self.n - self.width

    def conjugate(self) -> "Partition":
        return conjugate(self)

    def contains(self, other: "Partition") -> bool:
        """Rowwise containment of Young diagrams."""
        if len(other) > len(self):
            return False
        return all(o <= s for o, s in zip(other, self))

    def row(self, i: int) -> int:
        """Part at 1-based row i, zero beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


EMPTY = Partition()


def _unchecked(parts: Iterable[int]) -> Partition:
    """A Partition built without the checks of ``Partition.__new__``.

    Only for parts that are a partition by construction: positive ints,
    weakly decreasing, no trailing zero.  Each caller says why in its
    docstring.  Input from outside the program (the CLI, the parser,
    the cache loader) always goes through the checked constructor.
    """
    return tuple.__new__(Partition, parts)


class Node(NamedTuple):
    """A diagram node in 1-based (row, col) coordinates."""

    row: int
    col: int


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram, one run of equal parts at a time.

    Column j (0-based) counts the rows longer than j.  If rows 0..i-1
    are the rows of length >= p_{i-1}, and the next shorter part is b
    (0 past the last row), columns b .. p_{i-1} - 1 each count exactly
    those i rows.  So the walk starts at the last row, appends i for
    each such column, and jumps by bisection to the first row of the
    run, the next i.  The columns come out left to right.  The work is
    one loop step and one C-level bisection (log length probes) per
    distinct part, and p_1 entries filled in C: a column of 10^6 cells
    is one step, where a walk over the cells takes 10^6.  Each column
    is positive for j < p_1 and weakly decreasing in j, so it is built
    unchecked.
    """
    cols: list[int] = []
    i = len(p)
    while i:
        part = p[i - 1]
        cols.extend(repeat(i, part - len(cols)))
        i = bisect_left(p, -part, 0, i, key=operator.neg)
    return _unchecked(cols)


def intersect(p: Partition, q: Partition) -> Partition:
    """Rowwise minimum: the largest partition contained in both.

    ``zip`` stops at the shorter operand, so every part is the minimum of
    two positive parts, and the rowwise minimum of two weakly decreasing
    sequences is weakly decreasing: built unchecked.
    """
    return _unchecked(min(a, b) for a, b in zip(p, q))


def same_degree(*degrees: int) -> int:
    """The common value of degrees that must agree, else ValueError
    naming them in the order given: "a vs b" for two, "a, b, c" for more.
    The one degree check of every product, pairing and coefficient; the
    comparison is one C-level count, since it runs once per product."""
    if degrees.count(degrees[0]) != len(degrees):
        sep = " vs " if len(degrees) == 2 else ", "
        raise ValueError("degree mismatch: " + sep.join(map(str, degrees)))
    return degrees[0]


def canonical_pair(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """{lam, mu} lex-larger first: the key order of every pair memo and the cache."""
    return (lam, mu) if lam >= mu else (mu, lam)


def partition_sum(p: Partition, q: Partition) -> Partition:
    """Componentwise sum, padding the shorter with zeros."""
    if len(p) < len(q):
        p, q = q, p
    return Partition(a + (q[i] if i < len(q) else 0) for i, a in enumerate(p))


def removable_nodes(p: Partition) -> list[Node]:
    """Corners that can be removed leaving a partition, top to bottom."""
    out = []
    for i, part in enumerate(p):
        below = p[i + 1] if i + 1 < len(p) else 0
        if part > below:
            out.append(Node(i + 1, part))
    return out


def addable_nodes(p: Partition) -> list[Node]:
    """Positions where a node can be added, top to bottom."""
    out = [Node(1, p[0] + 1)] if p else [Node(1, 1)]
    for i in range(1, len(p)):
        if p[i] < p[i - 1]:
            out.append(Node(i + 1, p[i] + 1))
    if p:
        out.append(Node(len(p) + 1, 1))
    return out


def remove_node(p: Partition, node: Node) -> Partition:
    """Remove a removable corner node."""
    i = node.row - 1
    if not (0 <= i < len(p)) or p[i] != node.col:
        raise ValueError(f"{node} is not a corner of {p!r}")
    return Partition(p[:i] + (p[i] - 1,) + p[i + 1:])


def add_node(p: Partition, node: Node) -> Partition:
    """Add a node at an addable position."""
    i = node.row - 1
    if i == len(p):
        if node.col != 1:
            raise ValueError(f"{node} is not addable to {p!r}")
        return Partition(p + (1,))
    if not (0 <= i < len(p)) or p[i] + 1 != node.col:
        raise ValueError(f"{node} is not addable to {p!r}")
    return Partition(p[:i] + (p[i] + 1,) + p[i + 1:])


def hook_length(p: Partition, i: int, j: int) -> int:
    """Hook length of the 1-based node (i, j) of p's diagram."""
    if not (1 <= i <= len(p) and 1 <= j <= p[i - 1]):
        raise ValueError(f"node ({i}, {j}) is not in the diagram of {p!r}")
    arm = p[i - 1] - j
    leg = sum(1 for r in range(i, len(p)) if p[r] >= j)
    return arm + leg + 1


def hook_counts(p: Partition) -> dict[str, int]:
    """Counts of small hooks: nodes of hook length 1, 2 and 3.

    ``h21`` counts the non-linear 3-hooks, i.e. hooks of size three
    with arm and leg both of length one.  As in ``dimension``, the
    0-based cell (i, j) has hook p_i + p'_j - i - j - 1 and arm p_i - j - 1.
    A hook of at most 3 has an arm of at most 2, so only the last three
    cells of each row are read: rows plus columns, not cells times rows.
    """
    cols = conjugate(p)
    counts = [0, 0, 0, 0]
    h21 = 0
    for i, part in enumerate(p):
        for j in range(max(part - 3, 0), part):
            h = part + cols[j] - i - j - 1
            if h <= 3:
                counts[h] += 1
                h21 += h == 3 and part - j == 2
    return {"h1": counts[1], "h2": counts[2], "h3": counts[3], "h21": h21}


def dimension(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook length formula).

    The hook of the 0-based cell (i, j) is p_i + p'_j - i - j - 1, read
    from the conjugate p' in one pass instead of scanning each leg.
    """
    col_terms = [c - j - 1 for j, c in enumerate(conjugate(p))]
    den = 1
    for i, part in enumerate(p):
        row_term = part - i
        for col_term in col_terms[:part]:
            den *= row_term + col_term
    num = factorial(p.n)
    assert num % den == 0
    return num // den


def durfee_length(p: Partition) -> int:
    """Side of the largest square fitting inside the diagram."""
    d = 0
    for i, part in enumerate(p, start=1):
        if part >= i:
            d = i
    return d


def enumerate_partitions(
    n: int,
    max_length: int | None = None,
    max_width: int | None = None,
) -> list[Partition]:
    """All partitions of n under the constraints, in descending lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows = n if max_length is None else min(max_length, n)
    width = n if max_width is None else max(0, min(max_width, n))
    return list(iter_subpartitions(Partition((width,) * rows), n))


# --- shape classification (the vocabulary of the multiplicity-free families) ---

class ShapeClass(NamedTuple):
    tag: str
    qualifiers: frozenset[str]

    def has(self, qualifier: str) -> bool:
        return qualifier in self.qualifiers


def is_linear(p: Partition) -> bool:
    return len(p) <= 1 or p[0] == 1


def is_rectangle(p: Partition) -> bool:
    return not p or p[0] == p[-1]


def is_hook(p: Partition) -> bool:
    return len(p) == 1 or len(p) > 1 and p[1] == 1


def _parts_at_least(p: Partition, m: int) -> int:
    """The number of parts >= m, by one bisection, as in ``conjugate``."""
    return bisect_right(p, -m, key=operator.neg)


def _face(p: Partition, conjugated: bool) -> tuple[int, ...]:
    """p, or p' if conjugated, padded with zeros to three rows; () if longer.

    p' has at most three rows iff p is empty or p_1 <= 3; then column j
    counts the parts >= j, each read by one bisection.  Every test of p
    against a partition of at most three rows, up to conjugation, reads
    the two faces, and none builds a conjugate.
    """
    if conjugated:
        return (len(p), _parts_at_least(p, 2), _parts_at_least(p, 3)) if not p or p[0] <= 3 else ()
    return (*p, 0, 0, 0)[:3] if len(p) <= 3 else ()


def is_fat_hook(p: Partition) -> bool:
    """At most two part values: the run of p_1 ends where that of p_l starts."""
    return is_rectangle(p) or _parts_at_least(p, p[0]) == _parts_at_least(p, p[-1] + 1)


def is_two_line(p: Partition) -> bool:
    return bool(p) and (len(p) == 2 or p[0] == 2)


def is_near_rectangle(p: Partition) -> bool:
    """A rectangle with one extra row or column (a special fat hook).

    Read from the two runs of p = (a^x, b^y), a > b: deleting one part
    of p leaves a rectangle iff x = 1 or y = 1, and one part of its
    conjugate ((x + y)^b, x^(a - b)) iff b = 1 or a - b = 1.  Closed
    under conjugation, as that swaps the two pairs.
    """
    if is_rectangle(p) or not is_fat_hook(p):
        return False
    x = _parts_at_least(p, p[0])
    return 1 in (x, len(p) - x, p[-1], p[0] - p[-1])


def classify_shape(p: Partition) -> ShapeClass:
    """Total classification into one tag plus refinement flags."""
    quals = set()
    if is_near_rectangle(p):
        quals.add("near-rectangle")
    if is_rectangle(p) and p and is_two_line(p):
        quals.add("two-line-rectangle")
    if is_rectangle(p) and len(p) >= 3 and p[0] >= 3:
        quals.add("fat-rectangle")
    if is_hook(p) and len(p) >= 2 and p[0] >= 2:
        quals.add("proper-hook")
    if is_fat_hook(p) and not (is_rectangle(p) or is_hook(p) or is_two_line(p)):
        quals.add("proper-fat-hook")

    if not p:
        tag = "empty"
    elif is_linear(p):
        tag = "linear"
    elif p.n >= 3 and (p.n - 1, 1, 0) in (_face(p, False), _face(p, True)):
        tag = "natural-label"
    elif is_two_line(p):
        tag = "two-line"
    elif is_hook(p):
        tag = "hook"
    elif is_rectangle(p):
        tag = "rectangle"
    elif is_fat_hook(p):
        tag = "fat-hook"
    else:
        tag = "general"
    return ShapeClass(tag, frozenset(quals))


def split_rows(p: Partition, index_set: Iterable[int]) -> tuple[Partition, Partition]:
    """Split rows into (selected, complement) by 1-based row indices."""
    idx = set(index_set)
    bad = [i for i in idx if not (1 <= i <= len(p))]
    if bad:
        raise ValueError(f"row indices {sorted(bad)} out of range for {p!r}")
    picked = sorted((p[i - 1] for i in idx), reverse=True)
    rest = sorted((p[i - 1] for i in range(1, len(p) + 1) if i not in idx), reverse=True)
    return Partition(picked), Partition(rest)


# --- skew shapes ---


class _SkewFields(NamedTuple):
    outer: Partition
    inner: Partition


class SkewShape(_SkewFields):
    """A nested pair of partitions outer/inner, inner padded with zeros.

    A tuple record of its two fields, as ``MfVerdict`` is: equality,
    hashing, immutability, copying and pickling come from the tuple, and
    a pickled shape is rebuilt through the checked constructor.
    ``size``, the number of cells, is read from the fields.
    """

    __slots__ = ()

    def __new__(cls, outer, inner=()):
        outer = outer if isinstance(outer, Partition) else Partition(outer)
        inner = inner if isinstance(inner, Partition) else Partition(inner)
        if not outer.contains(inner):
            raise ValueError(
                f"inner {format_partition(inner)!r} not contained in outer {format_partition(outer)!r}"
            )
        return tuple.__new__(cls, (outer, inner))

    @property
    def size(self) -> int:
        return self.outer.n - self.inner.n

    def row_spans(self) -> list[tuple[int, int]]:
        """Per row: half-open column span (start, end) of the cells."""
        return list(zip(chain(self.inner, repeat(0)), self.outer))

    def __str__(self) -> str:
        return format_skew(self)

    def __repr__(self) -> str:
        return f"SkewShape({tuple(self.outer)!r}, {tuple(self.inner)!r})"


def _unchecked_skew(outer: list[int], inner: list[int]) -> SkewShape:
    """A SkewShape built from its rows without the checks of ``SkewShape``.

    Only for rows that are a skew shape by construction: outer parts
    weakly decreasing and nonnegative, inner parts weakly decreasing,
    nonnegative and at most the outer part of their row.  Each caller
    says why in its docstring.  Input from outside the program (the CLI,
    the parser) always goes through ``SkewShape``.  The zeros of such a
    list are its tail, and are dropped by counting them; a zero outer
    part has a zero inner part beside it, so the rows stay aligned.
    """
    outer, inner = outer[: len(outer) - outer.count(0)], inner[: len(inner) - inner.count(0)]
    return tuple.__new__(SkewShape, (_unchecked(outer), _unchecked(inner)))


class SkewNormalForm(NamedTuple):
    """The basic form and the labels of the edge-connected components,
    top to bottom, read as ``_basic_and_components`` says.  ``label`` is
    the one component's, None for two or more (a partition diagram and
    its rotation are connected), and the empty partition for no cells."""

    basic: SkewShape
    components: tuple[Partition | None, ...]
    label: Partition | None


def _basic_and_components(s: SkewShape) -> tuple[SkewShape, tuple[Partition | None, ...]]:
    """The basic form of s and its components' labels, top to bottom,
    from one walk over the nonempty rows (a, b], bottom up; ``below`` is
    the end of the nonempty row below (0 under the last).

    Basic form.  The empty columns left of a row's start are the gaps
    (below, a] of this row and of every row under it (a gap higher up
    lies right of this row's end), so each row moves left by ``shift``,
    the sum of those gaps so far.  Going up a row, the shift grows by
    a - below when that is positive, which takes the row's new start to
    the new end of the row below; otherwise both ends stay at or right
    of those below.  So starts and ends stay weakly decreasing, the last
    start is 0 and every length b - a > 0 is kept: built unchecked.  A
    shape with no empty row and no gap is its own basic form, returned
    as it is.

    Components.  A row starts one iff a >= below: it then touches the
    row below only at a corner, or an empty row (c, c] with
    a >= c >= below lies between them; otherwise they share a column,
    before and after the shift.  Starts and ends weakly decrease down a
    component: a0, its bottom start, is the least start, and w, its top
    end, the greatest end.  Moved left by a0 it is basic, so a partition
    diagram iff every start is a0, iff its top start is: the label is
    then the ends b - a0.  Else its rotation is one iff that has no inner
    part, iff every end is w, iff its bottom end is: the label is then
    w - a, read bottom up.  Else it is None.  As a < b, both labels are
    weakly decreasing and positive: built unchecked.
    """
    groups: list[list[tuple[int, int]]] = []
    shift = below = 0
    for a, b in reversed(s.row_spans()):
        if a < b:
            if a >= below:
                shift += a - below
                groups.append([])
            groups[-1].append((a - shift, b - shift))
            below = b
    groups.reverse()
    labels = tuple(
        _unchecked([b - g[0][0] for a, b in reversed(g)]) if g[-1][0] == g[0][0]
        else _unchecked([g[-1][1] - a for a, b in g]) if g[0][1] == g[-1][1] else None
        for g in groups
    )
    rows = [row for g in groups for row in reversed(g)]
    if not shift and len(rows) == len(s.outer):
        return s, labels
    return _unchecked_skew([b for a, b in rows], [a for a, b in rows]), labels


def rotate_skew(s: SkewShape) -> SkewShape:
    """Rotate the diagram by 180 degrees inside its bounding box.

    Row r of the rotation is row ell + 1 - r of s, with span (a, b]
    turned into (w - b, w - a], w being the first outer part.  Read
    bottom up, the starts a and the ends b of s weakly increase, so the
    new ones weakly decrease, and 0 <= w - b <= w - a: built unchecked.
    An empty row of full width at the top of s, the only way to reach
    w - a = 0, becomes a zero row at the bottom and is dropped.
    """
    if s.size == 0:
        return _unchecked_skew([], [])
    w = s.outer[0]
    spans = s.row_spans()[::-1]
    return _unchecked_skew([w - a for a, b in spans], [w - b for a, b in spans])


def conjugate_skew(s: SkewShape) -> SkewShape:
    """Transpose the diagram: outer and inner conjugated.

    Cell (i, j) lies in a diagram iff (j, i) lies in its conjugate, so
    inner inside outer gives inner' inside outer', and every cell of s'
    is the transpose of one of s.  Both are partitions from
    ``conjugate``, so no row part is zero: built unchecked.  The rows of
    s' are the columns of s and its columns the rows, so a shape with no
    empty row and no empty column, a basic one, stays basic.
    """
    return tuple.__new__(SkewShape, (conjugate(s.outer), conjugate(s.inner)))


def skew_normalize(s: SkewShape) -> SkewNormalForm:
    """The one normal form of a skew shape; every caller reads it here.

    One walk over the rows gives the basic form (a basic shape is its
    own, the same object) and the components' labels, both built from
    row spans without the checks of ``SkewShape`` and ``Partition``, as
    ``_basic_and_components`` argues row by row.  No rotation is built.
    """
    basic, labels = _basic_and_components(s)
    return SkewNormalForm(basic, labels, labels[0] if len(labels) == 1 else None if labels else EMPTY)


def is_proper_skew(s: SkewShape) -> bool:
    """True iff neither the basic shape nor its rotation is a partition diagram."""
    return skew_normalize(s).label is None


def enumerate_basic_skew_shapes(size: int) -> list[SkewShape]:
    """All basic skew shapes with the given number of cells, in
    descending order of (b_1, a_1, b_2, a_2, ...).

    Rows are column spans (a_i, b_i], top to bottom.  Write r_i = b_i - a_i
    for the row lengths and d_i = a_i - a_{i+1} for the offsets.  The
    shape is basic iff no row is empty, r_i >= 1, so the lengths are a
    composition of size; the last start is 0, so a_i is the sum of the
    offsets below row i; and no column is empty, a_i <= b_{i+1}, that is
    d_i <= r_{i+1}.  It is a skew shape iff the starts weakly decrease,
    d_i >= 0, and so do the ends, d_i >= r_{i+1} - r_i.  So each
    composition and each choice of d_i in [max(0, r_{i+1} - r_i), r_{i+1}]
    gives one basic shape, every one once, and its rows satisfy what
    ``_unchecked_skew`` asks: built unchecked.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size == 0:
        return [SkewShape(EMPTY, EMPTY)]
    spans = []
    for cuts in product((False, True), repeat=size - 1):
        bounds = (0, *compress(range(1, size), cuts), size)
        lengths = [y - x for x, y in zip(bounds, bounds[1:])]
        ranges = [range(max(0, r2 - r1), r2 + 1) for r1, r2 in zip(lengths, lengths[1:])]
        for offsets in product(*ranges):
            starts = list(accumulate(reversed(offsets), initial=0))[::-1]
            spans.append([(a + r, a) for a, r in zip(starts, lengths)])
    spans.sort(reverse=True)
    return [_unchecked_skew([b for b, a in rows], [a for b, a in rows]) for rows in spans]


# --- text grammar ---

# ASCII digits: \d would also match the digits of other scripts
_TERM_RE = re.compile(r"([0-9]+)(?:\^([0-9]+))?")

MAX_PARSED_SIZE = 10**6


def parse_integer(text: str) -> int:
    """ASCII digits with an optional "-", else ValueError: an integer from
    outside the program.  int() alone also reads other scripts' digits,
    "_" separators, a "+" and surrounding spaces."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_partition(text: str) -> Partition:
    """Parse the ``a`` / ``a^b`` comma grammar, e.g. ``5,4,2^3,1``.

    Whitespace may surround a term but not split one: ``" 4 , 1 "`` is
    (4, 1), and ``"1 0"`` or ``"3 ^2"`` is a bad term, not (10) or (3, 3).
    The size, the sum of a * b over the terms, is checked before any term
    is expanded: more than ``MAX_PARSED_SIZE`` (10^6) cells is a
    ``ValueError``.  Expanding ``a^b`` builds a list of length b, and
    conjugating, the first step on most operands, one as long as the
    first part, so a few characters could otherwise ask for more memory
    than the machine has.  No engine computes anywhere near the bound.
    """
    if not text.strip():
        return EMPTY
    terms: list[tuple[int, int]] = []
    for term in map(str.strip, text.split(",")):
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise ValueError(f"bad partition term {term!r}")
        a = int(m.group(1))
        b = int(m.group(2)) if m.group(2) else 1
        if a <= 0 or b <= 0:
            raise ValueError(f"bad partition term {term!r}")
        terms.append((a, b))
    size = sum(a * b for a, b in terms)
    if size > MAX_PARSED_SIZE:
        raise ValueError(f"{text!r}: size {size} exceeds the bound of {MAX_PARSED_SIZE} cells")
    try:
        return Partition(chain.from_iterable(repeat(a, b) for a, b in terms))
    except ValueError as exc:
        raise ValueError(f"{text!r}: {exc}") from None


def format_partition(p: Partition) -> str:
    """Render with exponents for runs of length three or more."""
    out = []
    for part, run in groupby(p):
        m = len(list(run))
        out.append(f"{part}^{m}" if m >= 3 else ",".join([str(part)] * m))
    return ",".join(out)


def parse_skew(text: str) -> SkewShape:
    """Parse ``outer/inner`` in the partition grammar, e.g. ``4,3,1/2,1``."""
    if text.count("/") > 1:
        raise ValueError(f"bad skew shape {text!r}")
    outer_text, _, inner_text = text.partition("/")
    return SkewShape(parse_partition(outer_text), parse_partition(inner_text))


def format_skew(s: SkewShape) -> str:
    return f"{format_partition(s.outer)}/{format_partition(s.inner)}"


def csv_field(label: str) -> str:
    """A label as one CSV field, quoted iff it holds a comma: what
    ``csv.writer`` writes for digits, commas and carets in a row of two
    or more fields."""
    return f'"{label}"' if "," in label else label


def iter_subpartitions(p: Partition, size: int) -> Iterator[Partition]:
    """Partitions of the given size contained rowwise in p, in descending lex order.

    No recursion.  The first partition fills the rows greedily: each row
    is as long as its bound in p, the row above and the cells left
    allow.  Each next one lowers by one the last part that can still be
    completed, and refills the rows below it greedily.

    Soundness.  Under a cap c, rows i, i+1, ... hold at most their room,
    the sum of min(c, p_j) over j >= i.  A greedy fill reaches it unless
    the cells run out first: a row it leaves shorter than the row above
    meets its bound, and no bound below is larger.  So a greedy
    completion exists iff any completion does, and it is the lex-largest
    one.  The successor keeps the longest prefix it can, then the
    largest smaller part that still has a completion.  Lowering a part
    shrinks the room below it and grows what is left to place, so the
    first value that fails ends that row, and the scan moves up a row.
    """
    suffix = list(accumulate(reversed(p), initial=0))[::-1]

    def room(i: int, cap: int) -> int:
        # p is weakly decreasing: rows i..k-1 reach the cap, rows k.. their bound
        k = bisect_right(p, -cap, i, key=operator.neg)
        return cap * (k - i) + suffix[k]

    if not 0 <= size <= room(0, size):
        return
    parts: list[int] = []
    cap = left = size
    while True:
        while left:
            cap = min(p[len(parts)], cap, left)
            parts.append(cap)
            left -= cap
        yield _unchecked(parts)
        left = 1
        for i in reversed(range(len(parts))):
            cap = parts[i] - 1
            if room(i + 1, cap) >= left:
                parts[i:] = [cap]
                break
            left += parts[i]
        else:
            return
