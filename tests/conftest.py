"""Shared brute-force oracles, deliberately independent of the package.

Every oracle here recomputes its answer from first principles (naive
enumeration, the Frobenius coefficient formula, permutation censuses)
so the production code paths have something honest to be checked
against.  One fixture, ``cold_memos``, starts a test from empty memos,
``seeded_skew_shapes`` draws skew shapes from a seed, and
``skew_components`` splits a skew shape into its components.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kronmf  # noqa: E402
from kronmf.partitions import Partition, SkewShape  # noqa: E402


@pytest.fixture
def cold_memos():
    """Empty every memo of the package; return them by ``module.name``.

    A memo is any module-level function with a ``cache_clear``, found in
    every ``kronmf`` module and keyed where it is defined, so a memo
    imported into another module is listed once and none is left out
    of a hand-kept list.
    """
    memos = {}
    for info in pkgutil.iter_modules(kronmf.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"kronmf.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = obj
    for memo in memos.values():
        memo.cache_clear()
    return memos


def brute_lr_tally(shape: SkewShape, prune: bool = False) -> dict[Partition, int]:
    """Tally LR tableau contents by filtering all semistandard fillings.

    Fills cells in plain reading order (the package fills in reverse
    reading order) with values up to the cell count, using only the
    semistandard constraints, then checks the lattice condition on the
    reverse reading word of each complete filling from scratch.

    With ``prune`` set, candidate rows are additionally cut at row
    boundaries by the classical rowwise reformulation of the lattice
    condition (occurrences of v in the first i rows never exceed
    occurrences of v-1 in the first i-1 rows); the final from-scratch
    check still decides acceptance.
    """
    spans = shape.row_spans()
    cells = [(i, j) for i, (a, b) in enumerate(spans, 1) for j in range(a + 1, b + 1)]
    size = len(cells)
    if size == 0:
        return {Partition(()): 1}
    grid: dict[tuple[int, int], int] = {}
    tally: dict[Partition, int] = {}

    def lattice_ok() -> bool:
        seen = [0] * (size + 2)
        for i, (a, b) in enumerate(spans, 1):
            for j in range(b, a, -1):
                v = grid[(i, j)]
                if v > 1 and seen[v - 1] <= seen[v]:
                    return False
                seen[v] += 1
        return True

    def row_prefix_ok(row: int) -> bool:
        upto_prev = [0] * (size + 2)
        for (i, j), v in grid.items():
            if i < row:
                upto_prev[v] += 1
        upto_here = list(upto_prev)
        for (i, j), v in grid.items():
            if i == row:
                upto_here[v] += 1
        return all(upto_here[v] <= upto_prev[v - 1] for v in range(2, size + 1))

    def fill(k: int) -> None:
        if k == size:
            if lattice_ok():
                counts = [0] * (size + 1)
                for v in grid.values():
                    counts[v] += 1
                content = tuple(c for c in counts if c)
                if all(content[i] >= content[i + 1] for i in range(len(content) - 1)):
                    p = Partition(content)
                    tally[p] = tally.get(p, 0) + 1
            return
        i, j = cells[k]
        lo = 1
        if (i, j - 1) in grid:
            lo = max(lo, grid[(i, j - 1)])
        if (i - 1, j) in grid:
            lo = max(lo, grid[(i - 1, j)] + 1)
        row_ends = j == spans[i - 1][1]
        for v in range(lo, size + 1):
            grid[(i, j)] = v
            if not (prune and row_ends and not row_prefix_ok(i)):
                fill(k + 1)
        grid.pop((i, j), None)

    fill(0)
    return tally


_syt_memo: dict[tuple, int] = {}


def brute_syt_count(p: Partition) -> int:
    """Standard tableaux by recursive corner removal."""
    if p.n == 0:
        return 1
    key = tuple(p)
    cached = _syt_memo.get(key)
    if cached is not None:
        return cached
    total = 0
    for i, part in enumerate(p):
        below = p[i + 1] if i + 1 < len(p) else 0
        if part > below:
            total += brute_syt_count(Partition(p[:i] + (part - 1,) + p[i + 1:]))
    _syt_memo[key] = total
    return total


def seeded_skew_shapes(seed: int, count: int, box: int = 8, cells: int = 10) -> list[SkewShape]:
    """``count`` skew shapes from ``random.Random(seed)``, each outer inside
    a box x box square and at most ``cells`` cells, checked constructors only.

    The inner partition starts as the outer one and gives up one random
    corner at a time, so most shapes keep empty rows and empty columns.
    """
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        outer = sorted((rng.randint(0, box) for _ in range(box)), reverse=True)
        inner = list(outer)
        for _ in range(rng.randint(0, min(cells, sum(outer)))):
            corners = [i for i, part in enumerate(inner) if part and (i + 1 == box or inner[i + 1] < part)]
            inner[rng.choice(corners)] -= 1
        shapes.append(SkewShape(outer, inner))
    return shapes


def skew_components(shape: SkewShape) -> list[SkewShape]:
    """The edge-connected components of a skew shape, top to bottom, by
    flood fills of its cells over shared edges, each moved left until its
    leftmost cell sits in the first column; checked constructors only.

    A row's cells are contiguous, so each row lies in one component, and
    the component holding the least remaining cell is the highest left.
    """
    cells = {(i, j) for i, (a, b) in enumerate(shape.row_spans()) for j in range(a, b)}
    comps = []
    while cells:
        todo = [min(cells)]
        comp = set()
        while todo:
            i, j = todo.pop()
            if (i, j) in cells:
                cells.discard((i, j))
                comp.add((i, j))
                todo += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
        shift = min(j for i, j in comp)
        spans: dict[int, list[int]] = {}
        for i, j in sorted(comp):
            spans.setdefault(i, []).append(j - shift)
        comps.append(SkewShape([max(js) + 1 for js in spans.values()], [min(js) for js in spans.values()]))
    return comps


_skew_syt_memo: dict[tuple, int] = {}


def brute_skew_syt(outer: Partition, inner: Partition) -> int:
    """Standard fillings of a skew shape, by removing the largest entry.

    Independent completeness check for expansions: the dimension of a
    skew character equals the weighted sum of its constituents'
    dimensions.
    """
    size = outer.n - inner.n
    if size == 0:
        return 1
    key = (tuple(outer), tuple(inner))
    cached = _skew_syt_memo.get(key)
    if cached is not None:
        return cached
    total = 0
    for i, part in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if part > below and part > (inner[i] if i < len(inner) else 0):
            total += brute_skew_syt(
                Partition(outer[:i] + (part - 1,) + outer[i + 1:]), inner
            )
    _skew_syt_memo[key] = total
    return total


def frobenius_char(lam: Partition, rho: Partition) -> int:
    """Character value from the alternant coefficient formula.

    chi_lam(rho) is the coefficient of x^(lam + delta) in
    a_delta(x) * prod_j p_{rho_j}(x) over ell(lam) variables.
    """
    m = max(len(lam), 1)
    power_sum: dict[tuple[int, ...], int] = {(0,) * m: 1}
    for part in rho:
        nxt: dict[tuple[int, ...], int] = {}
        for expo, coeff in power_sum.items():
            for i in range(m):
                e = list(expo)
                e[i] += part
                key = tuple(e)
                nxt[key] = nxt.get(key, 0) + coeff
        power_sum = nxt
    delta = tuple(range(m - 1, -1, -1))
    target = tuple((lam[i] if i < len(lam) else 0) + delta[i] for i in range(m))
    total = 0
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        expo = tuple(target[i] - delta[perm[i]] for i in range(m))
        if all(e >= 0 for e in expo):
            total += sign * power_sum.get(expo, 0)
    return total


def cycle_type_of(perm: tuple[int, ...]) -> Partition:
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))
