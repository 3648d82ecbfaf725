"""Exhaustive desk-scale verification sweeps.

Each sweep compares a classification predicate against direct
computation (or one engine against the other) over the complete space
at one degree.  A sweep yields one row per check: None for a pass, or
the mismatch tuple, whose labels are rendered only then.  Checks settled
by an argument rather than computed come as one int row, their count.
One loop, ``_report``, counts the checks and sorts the mismatches, so
every mode returns a deterministic report the same way.  The sweeps
keep no clock; the CLI times a whole run.

The sweeps read the pair, triple and skew-times-irreducible predicates
through their private sides (``classification._pair_side``,
``_triple_side``, ``_skew_side``): one side per lambda, per (lambda, mu)
or per shape, asked about every operand of its row.  Each public
predicate is exactly its degree or size check and its side, so the
sweeps check what ``classify`` answers, and read the facts about a
row's fixed operands once per row.  The skew sweep normalises each
shape once and hands the form to ``is_mf_skew``'s form check
(``littlewood_richardson._mf_skew_form``), the properness test and the
side, with the shape's character.  It makes one LR expansion per orbit
{s, s°, s', (s')°} under rotation and transposition, and reads the
other members' characters from it (``_skew_characters``).

Under the oracle the triple and skew sweeps expand no product: a
character is its list of values on the classes (a table row, or one sum
of rows per distinct skew character), and one packed sum,
``characters.mf_row``, tells for every irreducible alpha at once whether
chi . chi^alpha is multiplicity-free.  The triple sweep reads one row
per pair lambda >= mu, from mu on, and the skew sweep one row per
distinct skew character.  A product of two proper skew characters is
not linear in an irreducible, so it stays pointwise and
``characters.is_mf_class_function`` decides it from two class sums.
The pair and engine sweeps, and every sweep under Dvir, compute full
products.  Both read one walk, ``_products``, which takes a
row's products from one lazy generator, ``kron_row``: under the oracle
it forms lambda's class-weighted packed columns once, and decodes each
[lambda].[mu] of the row with one exact division of the packed sum by
n! (``characters.kron_row_oracle``).  Every sweep runs in one process
and streams: the pair sweep takes each product from the optional cache,
or computes it once and writes it there, and keeps none past its row,
with a cache or without one.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby, starmap
from operator import add, itemgetter, mul

from .cache import ProductCache
from .characters import character_table, is_mf_class_function, mf_row
from .classification import _pair_side, _skew_side, _triple_side
from .expansion import CharacterExpansion
from .kronecker import _resolve_engine, kron_product, kron_row, multiply_expansions
from .littlewood_richardson import _mf_skew_form, skew_expand
from .partitions import (
    Partition,
    SkewShape,
    conjugate,
    conjugate_skew,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    rotate_skew,
    skew_normalize,
)

DEFAULT_CEILINGS = {"pairs": 9, "triples": 7, "skew": 7, "engines": 10}


class VerificationReport:
    """The outcome of one sweep; ``mismatches`` is a new list unless given."""

    __slots__ = ("degree", "mode", "engine", "pairs_checked", "mismatches")

    def __init__(
        self,
        degree: int,
        mode: str,
        engine: str,
        pairs_checked: int,
        mismatches: list[tuple[str, str, str, str]] | None = None,
    ) -> None:
        self.degree, self.mode, self.engine, self.pairs_checked = degree, mode, engine, pairs_checked
        self.mismatches = [] if mismatches is None else mismatches

    def __eq__(self, other) -> bool:
        return type(other) is VerificationReport and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_text(self) -> str:
        lines = [
            f"verify mode={self.mode} n={self.degree} engine={self.engine}",
            f"pairs_checked={self.pairs_checked}",
        ]
        for item in self.mismatches:
            lines.append(
                f"mismatch: {item[0]} | {item[1]} predicted={item[2]} computed={item[3]}"
            )
        lines.append(f"mismatches={len(self.mismatches)}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "mode": self.mode,
                "n": self.degree,
                "engine": self.engine,
                "pairs_checked": self.pairs_checked,
                "mismatches": [list(m) for m in self.mismatches],
            },
            separators=(",", ":"),
        )


def _report(n: int, mode: str, engine: str, rows) -> VerificationReport:
    """Count the checks and keep the mismatches, sorted.

    A row is one check, None for a pass or the mismatch tuple, or else
    an int: that many passing checks settled without a row each.
    """
    checked, counted, mismatches = 0, 0, []
    for checked, row in enumerate(rows, start=1):
        if row is not None:
            if type(row) is int:
                counted += row - 1
            else:
                mismatches.append(row)
    return VerificationReport(n, mode, engine, checked + counted, sorted(mismatches))


def _check(predicted, computed: bool, left, *right) -> tuple[str, str, str, str] | None:
    """None if the predicate agrees with the computation, else the mismatch.

    Labels are rendered only for a mismatch; several right-hand labels
    (a triple's second and third operands) are joined by " | ".
    """
    predicted = bool(predicted)
    if predicted == computed:
        return None
    verdicts = ("mf" if predicted else "not-mf", "mf" if computed else "not-mf")
    return (str(left), " | ".join(map(str, right))) + verdicts


def _products(n: int, engine: str, cache: ProductCache | None = None):
    """(lam, mu, [lam].[mu]) for each pair lam >= mu of degree n, lambda-major:
    from the cache, or else from ``kron_row`` and then put there.  ``kron_row``
    is handed only a row's misses, so a row the cache holds in full builds nothing."""
    # resolved once: "auto" reads the table ceiling from the environment
    engine = _resolve_engine(engine, n)
    parts = enumerate_partitions(n)
    try:
        for i, lam in enumerate(parts):
            row = parts[i:]
            known = [None] * len(row) if cache is None else [cache.get(n, lam, mu) for mu in row]
            computed = kron_row(lam, (mu for mu, terms in zip(row, known) if terms is None), engine)
            for mu, terms in zip(row, known):
                if terms is None:
                    product = next(computed)
                    if cache is not None:
                        cache.put(n, lam, mu, product)
                else:
                    product = CharacterExpansion(n, terms, _trusted=True)
                yield lam, mu, product
    finally:
        # also on an interrupted sweep, which keeps every record it put
        if cache is not None:
            cache.flush()


def verify_pairs(n: int, engine: str = "auto", cache: ProductCache | None = None) -> VerificationReport:
    """Pair classification: is_mf_pair iff the computed product has max mult 1.

    The predicate is read through one ``_pair_side`` per lam, which the
    products come grouped by."""

    def rows():
        for lam, row in groupby(_products(n, engine, cache), key=itemgetter(0)):
            side = _pair_side(lam, n)
            for _, mu, chi in row:
                yield _check(side(mu), chi.max_multiplicity() == 1, lam, mu)

    return _report(n, "pairs", engine, rows())


def _character_ring(n: int, engine: str):
    """How a sweep at degree n holds characters, multiplies them and tests
    a product: (lift, times, mf, row).

    ``row(chi, start)`` yields, for the irreducibles alpha of degree n
    from row index ``start`` on, whether chi . chi^alpha is
    multiplicity-free.  Under the oracle a character is its list of
    values on the classes: ``lift`` sums table rows once per character,
    a product is pointwise, ``mf`` is ``is_mf_class_function``'s two class
    sums, and a row is one packed sum, ``characters.mf_row``, so no
    product is expanded.  Under Dvir a character stays a
    ``CharacterExpansion``, products go through ``multiply_expansions``,
    which never touches a table, and a row tests each product in turn,
    only as far as it is read.
    """
    engine = _resolve_engine(engine, n)
    if engine != "oracle":
        irr = [CharacterExpansion.irreducible(p) for p in enumerate_partitions(n)]
        times = partial(multiply_expansions, engine=engine)
        mf = CharacterExpansion.is_multiplicity_free

        def row(chi: CharacterExpansion, start: int = 0):
            return (mf(times(chi, a)) for a in irr[start:])

        return lambda chi: chi, times, mf, row
    table = character_table(n)

    def lift(chi: CharacterExpansion) -> list[int]:
        values = [0] * len(table.cols)
        for p, m in chi.items():
            values = list(map(add, values, map(m.__mul__, table.row(p))))
        return values

    return (
        lift,
        lambda a, b: list(map(mul, a, b)),
        partial(is_mf_class_function, n),
        lambda values, start=0: mf_row(n, values)[start:],
    )


def _triple_rows(n: int, engine: str):
    parts = enumerate_partitions(n)
    lift, times, _, row = _character_ring(n, engine)
    irr = [lift(CharacterExpansion.irreducible(p)) for p in parts]
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts[i:], start=i):
            # one row per (lam, mu), read from mu on, and one predicate side
            side = _triple_side(lam, mu, n)
            for nu, computed in zip(parts[j:], row(times(irr[i], irr[j]), j)):
                yield _check(side(nu), computed, lam, mu, nu)


def verify_triples(n: int, engine: str = "auto") -> VerificationReport:
    """Triple products: predicate vs computed multiplicity, all triples."""
    return _report(n, "triples", engine, _triple_rows(n, engine))


def _skew_characters(n: int):
    """(s, [s]) for each basic shape s of size n, in enumeration order,
    with one LR expansion per orbit {s, s°, s', (s')°}.

    A shape that is not held is the first of its orbit met: it is
    expanded, and its mates are held until the walk reaches them, s° =
    ``rotate_skew(s)`` with the same expansion, s' = ``conjugate_skew(s)``
    and (s')° with one copy whose labels are conjugated.  Sound: the
    Jacobi-Trudi matrix of s° is that of s reflected in its
    anti-diagonal, so [s°] = [s]; transposing applies omega, so
    [s'] = sgn . [s], every label conjugated (Macdonald, I.5).  Rotation
    and transposition keep the size and map a shape with no empty row
    or column to another, so every mate is a basic shape of size n that
    the enumeration reaches later, and the held mates are exactly those
    not yet visited.
    """
    flip = {p: conjugate(p) for p in enumerate_partitions(n)}
    pending: dict[SkewShape, CharacterExpansion] = {}
    for s in enumerate_basic_skew_shapes(n):
        chi = pending.pop(s, None)
        if chi is None:
            chi = skew_expand(s)
            # a partition of n conjugated is one: a trusted copy
            twisted = CharacterExpansion(n, {flip[p]: m for p, m in chi.items()}, _trusted=True)
            t = conjugate_skew(s)
            mates = {rotate_skew(s): chi, t: twisted, rotate_skew(t): twisted}
            mates.pop(s, None)
            pending.update(mates)
        yield s, chi


def _skew_rows(n: int, engine: str):
    alphas = enumerate_partitions(n)
    lift, times, mf, row = _character_ring(n, engine)
    # each distinct character's lifted form, its row and its first proper
    # shape, or None, from the first shape that has it; setdefault hashes
    # a shape's character, which builds the expansion's frozenset, once
    rows: dict[CharacterExpansion, list] = {}
    n_proper = 0
    for s, chi in _skew_characters(n):
        form = skew_normalize(s)
        yield _check(_mf_skew_form(form), chi.is_multiplicity_free(), s, "-")
        entry = rows.setdefault(chi, [])
        if not entry:
            lifted = lift(chi)
            entry += lifted, list(row(lifted)), None
        if form.label is None:
            n_proper += 1
            if entry[2] is None:
                entry[2] = s
        side = _skew_side(form, n, chi)
        for alpha, computed in zip(alphas, entry[1]):
            yield _check(side(alpha), computed, s, alpha)

    # a product of two proper characters is not linear in an irreducible,
    # so no row answers it
    proper = [(chi, entry) for chi, entry in rows.items() if entry[2] is not None and chi.is_multiplicity_free()]
    proper.sort(key=lambda item: sorted(item[0].terms().items(), reverse=True))
    mf_proper = [(s, lifted) for _, (lifted, _, s) in proper]
    for i, (s, x) in enumerate(mf_proper):
        for t, y in mf_proper[i:]:
            yield _check(False, mf(times(x, y)), s, t)
    # the other pairs repeat a computed pair's characters or have a non-mf
    # factor, settled by the repeated-constituent argument; one count row
    # keeps the tally over the full space
    k = len(mf_proper)
    yield n_proper * (n_proper + 1) // 2 - k * (k + 1) // 2


def verify_skew(n: int, engine: str = "auto") -> VerificationReport:
    """Skew sweeps: the basic-shape predicate, skew-times-irreducible,
    and no-mf-product-of-two-proper-skews, all at one degree.

    Each basic shape s of size n is one check of ``is_mf_skew`` and p(n)
    checks of ``is_mf_skew_times_irr``.  Each unordered pair of proper
    shapes is one check that the product is not multiplicity-free, so
    ``pairs_checked`` is B (1 + p(n)) + P (P + 1) / 2 for B basic and P
    proper shapes.  Each character is expanded once per orbit of basic
    shapes under rotation and transposition, and read by the orbit's
    other members as it is or with its labels conjugated, as
    ``_skew_characters`` argues; every check is still made on every
    shape.  A shape's p(n) products with an irreducible are read
    from one row per distinct skew character.  Only pairs of
    multiplicity-free proper characters are computed, once per distinct
    pair of characters: a factor with a
    repeated constituent sigma contributes 2([sigma].[t]) != 0 to the
    product, so those pairs can never be multiplicity-free.  The pairs
    not computed come as one count row, which ``_report`` adds without a
    loop.
    """
    return _report(n, "skew", engine, _skew_rows(n, engine))


def _engine_row(lam: Partition, mu: Partition, right: CharacterExpansion) -> tuple[str, str, str, str] | None:
    """None if Dvir agrees with the oracle's product ``right`` = [lam].[mu],
    else the labels that differ, joined by ";", which no label contains."""
    left = kron_product(lam, mu, "dvir")
    if left == right:
        return None
    # subtraction drops the equal labels, and support() sorts the rest
    labels = ";".join(map(str, (left - right).support()))
    return (str(lam), str(mu), "dvir!=oracle", labels)


def verify_engines(n: int) -> VerificationReport:
    """Dvir recursion against the character-table oracle, all pairs."""
    return _report(n, "engines", "dvir-vs-oracle", starmap(_engine_row, _products(n, "oracle")))


VERIFY_MODES = {
    "pairs": verify_pairs,
    "triples": verify_triples,
    "skew": verify_skew,
    "engines": verify_engines,
}
