"""Structural Kronecker engine: Dvir recursion and semigroup bounds.

The recursion computes g(lam, mu, nu) from Littlewood-Richardson data:
the width of any constituent is bounded by |lam ^ mu| (rowwise
intersection), coefficients at maximal width come from a product of two
skew characters of smaller degree, and lower widths follow from the
band sums with corrections over the horizontal-strip set Y(nu).  All
corrections have a strictly larger first part, so one width sweep, by
decreasing width, settles every coefficient: a whole product and a
single coefficient both come from it.  A correction is read from the
swept coefficients by key, one lookup per member of Y(nu), and no member
is built (see ``_correction``); ``y_set`` is the definition it follows.

The bands' products of smaller-degree irreducibles go through this same
sweep (recursion on strictly smaller degree), never the character
table, so the oracle stays an independent cross-check.

One memo holds the recursion: ``_dvir_product``, one labelled product
per pair asked.  Every sub-product a band reads goes through it,
and a band sums its weights per canonical (sigma, tau) before
multiplying, so each distinct sub-product is read once per band and
built once per process.  A band is read by one sweep only, and a pair
and its conjugate pair share one product entry, so neither bands nor
sweeps are kept: a memo on either would hold memory and never be hit.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct
from typing import Iterable, Iterator, NamedTuple

from .characters import MAX_TABLE_DEGREE, kron_oracle, kron_product_oracle, kron_row_oracle, table_ceiling
from .expansion import CharacterExpansion, bilinear
from .littlewood_richardson import _lr_counts, skew_expand
from .partitions import (
    EMPTY,
    Partition,
    SkewShape,
    _face,
    _unchecked,
    add_node,
    addable_nodes,
    canonical_pair,
    conjugate,
    intersect,
    iter_subpartitions,
    partition_sum,
    remove_node,
    removable_nodes,
    split_rows,
)

ENGINES = ("auto", "oracle", "dvir")


class DvirInvariantError(RuntimeError):
    """A negative intermediate in the recursion: always an implementation bug."""


def _resolve_engine(engine: str, n: int) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine != "auto":
        return engine
    # the oracle only where its table can be built: within the ceiling and
    # within the 64-bit values the table holds
    return "oracle" if n <= min(table_ceiling(), MAX_TABLE_DEGREE) else "dvir"


def max_width(lam: Partition, mu: Partition) -> int:
    """Largest first part among constituents of [lam].[mu]: |lam ^ mu|."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {mu.n}")
    return intersect(lam, mu).n


def y_set(nu: Partition) -> tuple[Partition, ...]:
    """Partitions obtained from nu-hat by adding a horizontal strip of nu_1,
    in descending lex order.

    Interleaving characterisation: eta_i >= nu_{i+1} >= eta_{i+1} for
    all i >= 1, with |eta| = |nu|.  Every member is weakly decreasing by
    the interleaving, and every part but the last is at least nu_ell > 0.
    The last range starts at nu_{ell+1} = 0, so a member ends in at most
    one zero: it is stripped and the member built unchecked.
    The head needs no test: each tail part is at most nu_i, so the head
    n - sum(tail) is at least nu_1 >= nu_2.
    """
    n = nu.n
    ell = len(nu)
    members = []
    ranges = [range(nu.row(i + 1), nu.row(i) + 1) for i in range(2, ell + 1)]
    for tail in iproduct(*ranges):
        parts = (n - sum(tail),) + tail
        members.append(_unchecked(parts if parts[-1] else parts[:-1]))
    members.sort(reverse=True)
    return tuple(members)


def _band(lam: Partition, mu: Partition, k: int) -> dict[Partition, int]:
    """Expansion of sum over alpha |- k inside lam^mu of [lam/a].[mu/a].

    Dvir's band identity: for nu with nu_1 = k <= w = |lam ^ mu|,

        band_k[nu-hat] = sum of g(lam, mu, eta) over eta in Y(nu), eta_1 <= w.

    Every term is a nonnegative Kronecker coefficient and nu is in Y(nu),
    so g(lam, mu, nu) <= band_k[nu-hat]: a coefficient is nonzero only
    if nu-hat is in the band's support.  The returned dict holds exactly
    that support (every stored value is positive).

    The band is the sum of c1.c2.[sigma].[tau] over the LR terms, and
    [sigma].[tau] = [tau].[sigma], so the weights c1.c2 are summed per
    canonical (sigma, tau) first and each distinct product is read once.
    """
    # Multiplies the cached LR tallies directly: alpha lies inside
    # lam ^ mu, so both skew shapes are valid and no expansion is built.
    weights: dict[tuple[Partition, Partition], int] = {}
    for alpha in iter_subpartitions(intersect(lam, mu), k):
        right = _lr_counts(mu, alpha).items()
        for sig, c1 in _lr_counts(lam, alpha).items():
            for tau, c2 in right:
                key = (sig, tau) if sig >= tau else (tau, sig)
                weights[key] = weights.get(key, 0) + c1 * c2
    acc: dict[Partition, int] = {}
    for (sig, tau), weight in weights.items():
        for nu_hat, g in _dvir_product(sig, tau).items():
            acc[nu_hat] = acc.get(nu_hat, 0) + weight * g
    return acc


def _orient(lam: Partition, mu: Partition) -> tuple[Partition, Partition, bool]:
    """The pair the sweep runs on, and whether its labels are conjugated.

    Of (lam, mu), (lam', mu'), (lam, mu') and (lam', mu), the first with
    the largest lam_1 + mu_1; lam'_1 is len(lam), and only a chosen
    operand is conjugated.  chi^{lam'} = sgn.chi^lam, so [lam'].[mu'] =
    [lam].[mu] and [lam].[mu'] = ([lam].[mu])': the products agree, up to
    conjugating every label when exactly one operand is conjugated.  The
    widest pair has the smallest tails lam-bar and mu-bar, and the sweep's
    cost follows them.  Operands are taken and returned in canonical
    order, so swapped operands share one sweep.
    """
    lam, mu = canonical_pair(lam, mu)
    lam_1, mu_1 = lam.row(1), mu.row(1)
    widths = (lam_1 + mu_1, len(lam) + len(mu), lam_1 + len(mu), len(lam) + mu_1)
    best = widths.index(max(widths))
    if best == 0:
        return lam, mu, False
    if best == 1:
        return (*canonical_pair(conjugate(lam), conjugate(mu)), False)
    if best == 2:
        return (*canonical_pair(lam, conjugate(mu)), True)
    return (*canonical_pair(conjugate(lam), mu), True)


@cache
def _dvir_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Full Kronecker product map at this degree, by the recursion alone.

    It sweeps the pair ``_orient`` picks, down to width max(1, lam_1 +
    mu_1 - n), because every constituent of [lam].[mu] has nu_1 >=
    lam_1 + mu_1 - n: by Young's rule [lam] is a constituent of
    Ind(1 x [lam-bar]) from S_{lam_1} x S_{n-lam_1}, and by Mackey
    (push-pull) Ind(1 x [lam-bar]).[mu] = Ind((1 x [lam-bar]).Res[mu]).
    Res[mu] is a sum of [a] x [mu/a] with a |- lam_1 inside mu, so
    a_1 >= lam_1 - (n - mu_1), and inducing [a] x (anything) gives only
    constituents containing a.  ``g_dvir`` returns 0 below the same
    bound without sweeping.

    The only memo of the recursion, keyed on the pair as asked.  A pair
    that ``_orient`` moves (swapped operands, or a conjugated
    orientation) is answered from the entry of its oriented pair: that
    dict itself when no label is conjugated, else its relabelled copy,
    built once and kept under the asked pair.  Only an oriented pair
    sweeps, so (lam, mu), (mu, lam) and (lam', mu') share one sweep.
    This cannot loop: ``_orient`` is idempotent on its own output.  The
    chosen pair is (lam, mu) with either, both or neither operand
    conjugated, so its four candidates are those of (lam, mu), as a set.
    It is its own candidate 0, which already has the largest width, and
    a tie keeps index 0, so orienting it again returns it with flip
    False.  Callers only read the result.
    """
    olam, omu, flip = _orient(lam, mu)
    if (olam, omu) != (lam, mu):
        out = _dvir_product(olam, omu)
        return {conjugate(nu): g for nu, g in out.items()} if flip else out
    return _sweep(lam, mu, max(1, lam.row(1) + mu.row(1) - lam.n))


def _sweep(lam: Partition, mu: Partition, low: int) -> dict[Partition, int]:
    """Every nonzero g(lam, mu, nu) with nu_1 >= low, by decreasing width.

    At width k the candidates nu = (k, nu-hat) come from the support of
    the band (see ``_band``), and g(lam, mu, nu) is band_k[nu-hat] minus
    g(lam, mu, eta) over the other eta in Y(nu), which ``_correction``
    reads from ``out`` by key.  That sum is sound:

    - Y(nu) is the box of tails eta-hat with nu_{i+1} <= eta_i <= nu_i
      for 2 <= i <= ell (nu_{ell+1} = 0, and the interleaving at i = ell
      leaves eta no part past ell), each with head eta_1 = n - |eta-hat|.
      The box bounds are the interleaving conditions of ``y_set`` for
      i >= 2, and the one left, eta_1 >= nu_2, always holds: every tail
      part is at most nu_i, so eta_1 >= n - |nu-hat| = nu_1 >= nu_2,
      with equality in the first step iff eta-hat = nu-hat.
    - So every other member is wider than nu, and the widths already
      swept hold each nonzero g(lam, mu, eta) in ``out``; nu itself is
      not there yet, so summing the whole box subtracts nothing extra.
    - eta wider than |lam ^ mu| have g = 0 and are never keys of
      ``out``, so their lookups read 0.

    nu-hat is a partition no wider than k, so nu = (k, nu-hat) is one;
    it is built, unchecked, only for a nonzero coefficient.
    """
    if lam.n == 0:
        return {EMPTY: 1}
    n = lam.n
    out: dict[Partition, int] = {}
    for k in range(intersect(lam, mu).n, low - 1, -1):
        for nu_hat, total in _band(lam, mu, k).items():
            if nu_hat.width <= k:
                g = total - _correction(out, n, nu_hat)
                if g:
                    nu = _unchecked((k,) + nu_hat)
                    if g < 0:
                        raise DvirInvariantError(f"negative coefficient {g} at g({lam}, {mu}, {nu})")
                    out[nu] = g
    return out


def _correction(out: dict[Partition, int], n: int, nu_hat: Partition) -> int:
    """Sum of out[eta] over eta in Y(nu), nu = (n - |nu-hat|, nu-hat), by key.

    Walks the box of tails of ``_sweep``'s docstring and looks up each
    plain tuple (n - |tail|, *tail): a Partition hashes and compares as
    its tuple, so no member is built, validated or sorted.  Only the
    last range starts at 0, so it is split off: its 0 drops the last
    part, as ``y_set`` strips it.  For nu = (n), Y(nu) = {nu}, and the
    sweep has not stored nu yet: the sum is 0.
    """
    if not nu_hat:
        return 0
    get = out.get
    last = nu_hat[-1]
    total = 0
    for prefix in iproduct(*[range(lo, hi + 1) for hi, lo in zip(nu_hat, nu_hat[1:])]):
        head = n - sum(prefix)
        total += get((head,) + prefix, 0)
        for part in range(1, last + 1):
            total += get((head - part,) + prefix + (part,), 0)
    return total


def g_dvir(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient by the width recursion (no character tables).

    It runs the width sweep of the pair ``_orient`` picks, stopped at
    width nu_1, with nu conjugated when the labels are: g(lam, mu', nu)
    = g(lam, mu, nu').  Below the Mackey bound nu_1 >= lam_1 + mu_1 - n
    (see ``_dvir_product``) the coefficient is 0 and nothing is swept.

    Nothing is kept between calls (its sub-products are, through
    ``_dvir_product``): at n = 12 one full sweep costs about 100 times a
    top-width coefficient, so a single coefficient does not sweep the
    whole product.  Asking every nu of one pair this way sweeps the
    bands again per call; a caller that needs every coefficient of a
    pair uses ``kron_product``, which sweeps once.
    """
    if not (lam.n == mu.n == nu.n):
        raise ValueError(f"degree mismatch: {lam.n}, {mu.n}, {nu.n}")
    lam, mu, flip = _orient(lam, mu)
    if flip:
        nu = conjugate(nu)
    if nu.row(1) < lam.row(1) + mu.row(1) - lam.n:
        return 0
    return _sweep(lam, mu, nu.row(1)).get(nu, 0)


def g_at_max_width(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Coefficient when nu_1 equals |lam ^ mu| (the closed top of the sweep)."""
    w = max_width(lam, mu)
    if nu.n != lam.n:
        raise ValueError(f"degree mismatch: {nu.n} vs {lam.n}")
    if nu.row(1) != w:
        raise ValueError(f"nu_1 = {nu.row(1)} != |lam ^ mu| = {w}")
    return _band(*canonical_pair(lam, mu), w).get(Partition(nu[1:]), 0)


def kron_coefficient(lam: Partition, mu: Partition, nu: Partition, engine: str = "auto") -> int:
    """Single coefficient through the requested engine."""
    eng = _resolve_engine(engine, lam.n)
    if eng == "oracle":
        return kron_oracle(lam, mu, nu)
    return g_dvir(lam, mu, nu)


def kron_product(lam: Partition, mu: Partition, engine: str = "auto") -> CharacterExpansion:
    """Full product expansion through the requested engine; Dvir's memo
    entry is handed over uncopied, as ``skew_expand`` hands over its tally."""
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {mu.n}")
    eng = _resolve_engine(engine, lam.n)
    if eng == "oracle":
        return kron_product_oracle(lam, mu)
    return CharacterExpansion(lam.n, _dvir_product(lam, mu), _trusted=True)


def kron_row(
    lam: Partition, mus: Iterable[Partition], engine: str = "auto"
) -> Iterator[CharacterExpansion]:
    """[lam].[mu] for each mu of mus in turn, through the requested
    engine, lazily: nothing is computed before the first product is asked
    for.  The oracle forms lam's weighted columns once per row
    (``kron_row_oracle``); Dvir computes each product on its own."""
    eng = _resolve_engine(engine, lam.n)
    if eng == "oracle":
        return kron_row_oracle(lam, mus)
    return (kron_product(lam, mu, eng) for mu in mus)


def g_max(lam: Partition, mu: Partition, engine: str = "auto") -> int:
    """Largest multiplicity in [lam].[mu]; 1 iff the product is mf."""
    return kron_product(lam, mu, engine).max_multiplicity()


def multiply_expansions(
    a: CharacterExpansion, b: CharacterExpansion, engine: str = "auto"
) -> CharacterExpansion:
    """Pointwise (Kronecker) product of two expansions of equal degree."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    engine = _resolve_engine(engine, a.degree)
    return bilinear(a, b, lambda sig, tau: kron_product(sig, tau, engine), a.degree)


# --- semigroup lower bounds ---


class _Witness(NamedTuple):
    kind: str
    left_parts: tuple[Partition, Partition]
    right_parts: tuple[Partition, Partition]


class SemigroupWitness(_Witness):
    """A decomposition certifying a lower bound for g(lam, mu).

    sum-split: lam = left[0] + left[1], mu = right[0] + right[1]
    (componentwise partition addition).
    row-split: lam is the disjoint row union of left, mu of right,
    with |left[0]| = |right[0]|.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.kind not in ("sum-split", "row-split"):
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if self.left_parts[0].n != self.right_parts[0].n or self.left_parts[1].n != self.right_parts[1].n:
            raise ValueError("witness parts must pair up by degree")

    def target(self) -> tuple[Partition, Partition]:
        if self.kind == "sum-split":
            return (
                partition_sum(self.left_parts[0], self.left_parts[1]),
                partition_sum(self.right_parts[0], self.right_parts[1]),
            )
        lam = Partition(sorted(self.left_parts[0] + self.left_parts[1], reverse=True))
        mu = Partition(sorted(self.right_parts[0] + self.right_parts[1], reverse=True))
        return lam, mu

    @classmethod
    def row_split(cls, lam: Partition, mu: Partition, rows_i, rows_j) -> "SemigroupWitness":
        lam_i, lam_rest = split_rows(lam, rows_i)
        mu_j, mu_rest = split_rows(mu, rows_j)
        if lam_i.n != mu_j.n:
            raise ValueError(f"|lam_I| = {lam_i.n} != |mu_J| = {mu_j.n}")
        return cls("row-split", (lam_i, lam_rest), (mu_j, mu_rest))


class SemigroupBound(NamedTuple):
    bound: int
    parts: tuple[tuple[Partition, Partition], ...]
    target: tuple[Partition, Partition]


def semigroup_bound(witness: SemigroupWitness, engine: str = "auto") -> SemigroupBound:
    """Lower bound for g at the witness target, from g on the parts."""
    pairs = [
        (witness.left_parts[0], witness.right_parts[0]),
        (witness.left_parts[1], witness.right_parts[1]),
    ]
    bound = 1
    for a, b in pairs:
        if a.n > 0:
            bound = max(bound, g_max(a, b, engine))
    return SemigroupBound(bound=bound, parts=tuple(pairs), target=witness.target())


# --- the virtual character of the width-extension lemma ---


def virtual_extension_chi(lam: Partition, mu: Partition, engine: str = "auto") -> CharacterExpansion:
    """Virtual character whose positive part pins coefficients at width m-1.

    Requires beta = lam ^ mu with lam/beta a single row and [mu/beta]
    irreducible, say [alpha]; neither lam nor mu may be (n) or (n-1,1)
    up to conjugation.  For every kappa with a positive multiplicity in
    the result, g(lam, mu, (m-1, kappa)) equals that multiplicity, where
    m = |beta|.
    """
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {mu.n}")
    n = lam.n
    banned = {(n, 0, 0), (n - 1, 1, 0)}
    for p in (lam, mu):
        if _face(p, False) in banned or _face(p, True) in banned:
            raise ValueError(f"operand {p!r} is (n) or (n-1,1) up to conjugation")
    beta = intersect(lam, mu)
    cells_rows = {i for i in range(1, len(lam) + 1) if lam[i - 1] > beta.row(i)}
    if len(cells_rows) != 1:
        raise ValueError(f"lam/beta is not a single row for {lam!r}, {mu!r}")
    mu_skew = skew_expand(SkewShape(mu, beta))
    if len(mu_skew) != 1 or mu_skew.max_multiplicity() != 1:
        raise ValueError(f"[mu/beta] is not irreducible for {lam!r}, {mu!r}")
    alpha = mu_skew.support()[0]

    deg = n - beta.n + 1
    chi = CharacterExpansion.zero(deg)
    for node in removable_nodes(beta):
        beta_a = remove_node(beta, node)
        left = skew_expand(SkewShape(lam, beta_a))
        right = skew_expand(SkewShape(mu, beta_a))
        chi = chi + multiply_expansions(left, right, engine)
    return chi - CharacterExpansion(deg, {add_node(alpha, node): 1 for node in addable_nodes(alpha)})
