"""The multiplicity-free classification and its closed-form products.

Predicates for pairs, triples and skew-times-irreducible products, and
the explicit expansions for every family on the classification list:
products with the natural character, staircase and two-row squares,
two-row times hook (four indicators for double hooks, a proved hook
rule for hooks), and the small-depth rectangle and [n-3,3].[k,k]
products.  No closed form calls an engine: the module rests only on
partitions, Littlewood-Richardson expansions and ``CharacterExpansion``,
so both engines can be checked against it.  Clause matching always
normalizes by conjugation and reports the first clause that fires, in
classification order, so verdict provenance is reproducible.  The pair
predicate builds no conjugate: it reads each operand's face
(``partitions._face``), the operand or its conjugate padded to three rows.

Each predicate states every clause once and derives each fact about an
operand once per operand, not once per check.  Behind each public
predicate sits one private side function, ``_pair_side(lam, n)``,
``_triple_side(lam, mu, n)`` or ``_skew_side(form, n)``: it reads the
fixed operands once and returns the verdict function of the last one.
The public predicate is exactly its degree or size check followed by
its side applied to the last operand.  So a sweep that builds one side
per row and asks it about every operand of the row checks the very
predicate that ``classify`` answers, with the same verdicts, clause
tags and normalizations.  The pair and skew predicates build their
clause constants once per degree.  The pair side reads lam's two faces
and its anchor test once.  The triple side tests lam and mu for
linearity once, and reads the two-nonlinear pair verdict at the first
linear nu.  The skew side takes the shape's normal form, which the
sweep reads once per shape and hands on, and defers to the label's pair
side when there is a label; otherwise it expands the shape at the first
alpha a clause reads, and compares that one expansion with the closed
forms and their sign twists once.  Neither a side nor a form is
memoised: each lives as long as its caller keeps it, one row.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple

from .expansion import CharacterExpansion
from .littlewood_richardson import skew_expand
from .partitions import (
    Partition,
    SkewNormalForm,
    SkewShape,
    _face,
    add_node,
    addable_nodes,
    conjugate,
    durfee_length,
    enumerate_partitions,
    hook_counts,
    is_fat_hook,
    is_hook,
    is_linear,
    is_rectangle,
    remove_node,
    removable_nodes,
    same_degree,
    skew_normalize,
)
from .verdict import MF_NO, MfVerdict

_CONJ_COMBOS = (
    ((False, False), ()),
    ((True, False), ("conjugate-left",)),
    ((False, True), ("conjugate-right",)),
    ((True, True), ("conjugate-left", "conjugate-right")),
)

_EXCEPTIONAL_PAIRS = (
    ((3, 3, 3), (6, 3, 0)),
    ((3, 3, 3), (5, 4, 0)),
    ((4, 4, 4), (6, 6, 0)),
)


@cache
def _pair_clauses(n: int) -> tuple[frozenset[tuple[int, ...]], tuple]:
    """The anchors and the six clause tests of ``is_mf_pair`` at degree n.

    Each test reads the operands p and q and their faces x and y under
    one conjugation choice.  It needs one argument's face to equal its
    anchor, a partition of n: (n), (n-1,1), the two-row (ceil(n/2),
    floor(n/2)) that (k,k) is for even n (kk is None for odd n), (n-2,2)
    or (n-2,1,1) (the rectangle clause's partner), or the first operand
    of an exceptional pair.  Labels are faces, left unchecked: a face is
    a partition of n, padded, so it equals no label that is not one.
    """
    k, r = divmod(n, 2)
    row, natural, two_row = (n, 0, 0), (n - 1, 1, 0), (k + r, k, 0)
    kk = None if r else two_row
    kk_partners = {(k + 1, k - 1, 0), (n - 3, 3, 0)}
    rect_partners = {(n - 2, 2, 0), (n - 2, 1, 1)}
    anchors = {row, natural, two_row, *rect_partners, *(x for x, _ in _EXCEPTIONAL_PAIRS)}
    return frozenset(anchors), (
        lambda x, y, p, q: x == row,
        lambda x, y, p, q: x == natural and is_fat_hook(q),
        lambda x, y, p, q: x == two_row and y == two_row,
        lambda x, y, p, q: x == kk and (is_hook(q) or y in kk_partners),
        lambda x, y, p, q: is_rectangle(p) and y in rect_partners,
        lambda x, y, p, q: (x, y) in _EXCEPTIONAL_PAIRS,
    )


def _pair_side(lam: Partition, n: int):
    """``is_mf_pair(lam, .)`` on partitions of n, lam's facts read once.

    Returns the verdict function of the second operand.  lam's two
    faces, and whether either is an anchor, are read here, once per
    lam; each call reads mu's faces and runs the clauses of
    ``is_mf_pair`` on them unchanged.  The pair sweep builds one side
    per lam and asks it about every mu of the row.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    anchors, clauses = _pair_clauses(n)
    lam_faces = _face(lam, False), _face(lam, True)
    lam_anchored = not anchors.isdisjoint(lam_faces)

    def side(mu: Partition) -> MfVerdict:
        mu_faces = _face(mu, False), _face(mu, True)
        if not lam_anchored and anchors.isdisjoint(mu_faces):
            return MF_NO
        for clause, holds in enumerate(clauses, start=1):
            for (cl, cr), norm in _CONJ_COMBOS:
                x, y = lam_faces[cl], mu_faces[cr]
                if holds(x, y, lam, mu) or holds(y, x, mu, lam):
                    return MfVerdict(True, f"pair-case-{clause}", norm)
        return MF_NO

    return side


def is_mf_pair(lam: Partition, mu: Partition) -> MfVerdict:
    """Is [lam].[mu] multiplicity-free?  The complete classification.

    Exactly the degree check and then ``_pair_side(lam, n)(mu)``.

    Clause i holds when its test holds for (x, y) or (y, x), where x
    and y are the operands after one of the four conjugation choices.
    Clauses are tried in order, each under the conjugation choices in
    ``_CONJ_COMBOS`` order, and the first match is reported.

    Soundness of reading faces: no conjugate is built.  A clause
    compares an argument, plain or conjugated, with partitions of at
    most three rows, which it equals iff its face equals theirs padded
    (a longer argument has face ()).  Otherwise it asks whether an
    operand is a fat hook, a hook or a rectangle.  p' has the corners of
    p transposed, so as many distinct parts, and (l, 1^(p_1 - 1)) is a
    hook iff (p_1, 1^(l - 1)) is: the operand itself is asked.  So each
    clause fires where it fires on the conjugates, with the same tags.
    If none of the four faces is an anchor, no clause fires.
    """
    return _pair_side(lam, same_degree(lam.n, mu.n))(mu)


_TRIPLE_ALL_LINEAR = MfVerdict(True, "triple-all-linear")
_TRIPLE_IRREDUCIBLE = MfVerdict(True, "triple-reduced-irreducible", ("linear-reduction",))
_TRIPLE_REDUCTION = "triple-reduced", ("linear-reduction",)


def _triple_side(lam: Partition, mu: Partition, n: int):
    """``is_mf_triple(lam, mu, .)`` on partitions of n, lam and mu read once.

    Returns the verdict function of the third operand.  The linearity
    of lam and mu is tested here, once per (lam, mu).  With both
    non-linear, a non-linear nu gives three non-linear operands, and a
    linear nu the pair verdict of (lam, mu), computed at the first
    linear nu and handed back for every later one.  With one of them, p,
    non-linear, nu is read by p's pair side, p first as in the operand
    order.  The triple sweep builds one side per (lam, mu).
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    nonlinear = [p for p in (lam, mu) if not is_linear(p)]
    if len(nonlinear) == 2:
        reduced = None

        def side(nu: Partition) -> MfVerdict:
            nonlocal reduced
            if not is_linear(nu):
                return MF_NO
            if reduced is None:
                reduced = _pair_side(lam, n)(mu).reduced(*_TRIPLE_REDUCTION)
            return reduced

        return side
    if nonlinear:
        pair = _pair_side(nonlinear[0], n)
        return lambda nu: _TRIPLE_IRREDUCIBLE if is_linear(nu) else pair(nu).reduced(*_TRIPLE_REDUCTION)
    return lambda nu: _TRIPLE_ALL_LINEAR if is_linear(nu) else _TRIPLE_IRREDUCIBLE


def is_mf_triple(lam: Partition, mu: Partition, nu: Partition) -> MfVerdict:
    """Is the triple product multiplicity-free?

    Exactly the degree check and then ``_triple_side(lam, mu, n)(nu)``.
    Linear operands are peeled off (trivial and sign characters only
    permute or twist constituents); three non-linear operands never give
    a multiplicity-free product.
    """
    return _triple_side(lam, mu, same_degree(lam.n, mu.n, nu.n))(nu)


def _twist_tag(
    chi: CharacterExpansion, target: tuple[CharacterExpansion, CharacterExpansion] | None
) -> tuple[str, ...] | None:
    """() if chi is the closed form, ("twist-skew",) if it is its sign
    twist, else None, also when the case has no target at this degree."""
    if target is None:
        return None
    form, twisted = target
    if chi == form:
        return ()
    if chi == twisted:
        return ("twist-skew",)
    return None


@cache
def _skew_clauses(n: int) -> tuple:
    """The clause constants of ``is_mf_skew_times_irr`` at degree n.

    (case-3 alphas, (k,k), case-2 target, case-3 target), each target a
    closed form with its sign twist.  Case 2 needs a non-linear
    rectangle, so n >= 4; case 3 needs n = 2k even and n >= 4.  Where a
    case cannot fire its constants are empty or None.
    """

    def target(*labels: tuple[int, ...]) -> tuple[CharacterExpansion, CharacterExpansion]:
        form = CharacterExpansion(n, {Partition(p): 1 for p in labels})
        return form, form.conjugate()

    if n < 4:
        return (), None, None, None
    k, r = divmod(n, 2)
    case_2 = target((n,), (n - 1, 1))
    if r:
        return (), None, case_2, None
    kk = Partition((k, k))
    return (kk, Partition((2,) * k)), kk, case_2, target((k + 1, k - 1), (k, k))


_SKEW_EMPTY = MfVerdict(True, "skew-irr-empty")


def _skew_side(norm: SkewNormalForm, n: int, chi: CharacterExpansion | None = None):
    """``is_mf_skew_times_irr(s, .)`` on partitions of n = |s|, norm = s's form.

    Returns the verdict function of alpha.  An empty shape answers every
    alpha, and a shape with a partition label hands alpha to the label's
    pair side.  A proper shape reads chi = [norm.basic] at the first
    alpha that a clause reads, chi as handed in or else expanded then,
    and asks once whether it is multiplicity-free and once, by
    ``_twist_tag``, whether it is the case-2 or the case-3 closed form
    up to a sign twist; every later alpha reads those three facts.  The
    skew sweep builds one side per basic shape s, which is its own
    ``norm.basic``, and hands in the [s] it already holds.
    """
    if norm.basic.size == 0:
        return lambda alpha: _SKEW_EMPTY
    if norm.label is not None:
        pair = _pair_side(norm.label, n)
        return lambda alpha: pair(alpha).reduced("skew-irr-reduced")

    case_3_alphas, kk, case_2, case_3 = _skew_clauses(n)
    facts = None  # (multiplicity-free, case-2 twist, case-3 twist)

    def side(alpha: Partition) -> MfVerdict:
        nonlocal facts, chi
        is_case_3 = alpha in case_3_alphas
        # every clause below needs alpha linear, a rectangle or case-3 shaped
        # (a linear alpha is a rectangle); expand the skew shape only then
        if not (is_rectangle(alpha) or is_case_3):
            return MF_NO
        if facts is None:
            if chi is None:
                chi = skew_expand(norm.basic)
            facts = chi.is_multiplicity_free(), _twist_tag(chi, case_2), _twist_tag(chi, case_3)
        mf, twist_2, twist_3 = facts
        if mf and is_linear(alpha):
            return MfVerdict(True, "skew-irr-case-1")
        if is_rectangle(alpha) and not is_linear(alpha) and twist_2 is not None:
            return MfVerdict(True, "skew-irr-case-2", twist_2)
        if is_case_3 and twist_3 is not None:
            conj = () if alpha == kk else ("conjugate-irr",)
            return MfVerdict(True, "skew-irr-case-3", twist_3 + conj)
        return MF_NO

    return side


def is_mf_skew_times_irr(s: SkewShape, alpha: Partition) -> MfVerdict:
    """Is [s].[alpha] multiplicity-free?  Clause tests compare expansions.

    Exactly the size check and then ``_skew_side(skew_normalize(s), n)(alpha)``.
    Case 2 asks alpha to be a non-linear rectangle, which its conjugate
    is too, so only the skew side carries a tag there.  Case 3 asks
    alpha to be (k,k), tagged "conjugate-irr" when its conjugate (2^k)
    is.
    """
    n = alpha.n
    if s.size != n:
        raise ValueError(f"size mismatch: |s| = {s.size} vs |alpha| = {n}")
    return _skew_side(skew_normalize(s), n)(alpha)


def product_with_natural(mu: Partition) -> CharacterExpansion:
    """[mu].[n-1,1] from removable/addable node bookkeeping."""
    n = mu.n
    if n < 3:
        raise ValueError("defined for n >= 3")
    counts = Counter()
    for a_node in removable_nodes(mu):
        mu_a = remove_node(mu, a_node)
        for b_node in addable_nodes(mu_a):
            counts[add_node(mu_a, b_node)] += 1
    counts[mu] -= 1  # [mu] arose once per corner, by putting that corner back
    return CharacterExpansion(n, counts)


def staircase_square(k: int) -> CharacterExpansion:
    """Square of the staircase [k+1,k]: everything of length at most 4."""
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * k + 1
    return CharacterExpansion(n, {p: 1 for p in enumerate_partitions(n, max_length=4)})


def kk_square(k: int) -> CharacterExpansion:
    """Square of [k,k]: even-part labels up to length 4, odd at length 4."""
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * k
    terms = {}
    for p in enumerate_partitions(n, max_length=4):
        parities = {part % 2 for part in p}
        if parities == {0} or (parities == {1} and len(p) == 4):
            terms[p] = 1
    return CharacterExpansion(n, terms)


def kk_times_near(k: int) -> CharacterExpansion:
    """[k,k].[k+1,k-1]: the complement of the square inside length <= 4."""
    square = kk_square(k)
    return CharacterExpansion(2 * k, {p: 1 for p in enumerate_partitions(2 * k, max_length=4) if not square[p]})


def kk_times_hook_mult(k: int, b: int, nu: Partition) -> int:
    """Multiplicity of [nu] in [k,k].[n-b,1^b], n = 2k.

    Durfee length three or more never contributes, and double hooks go
    through the four-indicator formula, whose result is checked to be 0
    or 1.  A hook nu = (n-c,1^c) follows the hook rule: for k >= 2 the
    multiplicity is 1 iff b and c both lie in {k-1, k}, else 0; for
    k = 1, [1,1] is the sign character and it is 1 iff b + c = 1.

    Proof of the hook rule for k >= 2.  Let H_b = [n-b,1^b], H_{-1} = 0.
    The exterior power L^b(C^n) = Ind_{S_b x S_{n-b}}(sgn x 1) has
    character E_b = H_b + H_{b-1}, L^b of the standard module being
    irreducible (Fulton and Harris, Representation Theory, Prop. 3.12).
    [k,k].E_b = Ind(Res [k,k] . (sgn x 1)) has Frobenius image
    sum c^{(k,k)}_{alpha,beta} s_{alpha'} s_beta over alpha |- b,
    beta |- n-b.  A hook constituent needs alpha' and beta to be hooks;
    inside (k,k) they have at most two rows, so alpha is (b) or (b-1,1)
    and beta is (n-b) or (n-b-1,1).  (k,k)/alpha turned by 180 degrees
    is the diagram of (k-alpha_2, k-alpha_1), so c^{(k,k)}_{alpha,beta}
    = 1 iff beta is that partition.  This leaves ((k),(k)) and
    ((k-1,1),(k-1,1)) at b = k, ((k-1),(k,1)) at b = k-1 and
    ((k,1),(k-1)) at b = k+1, and by Pieri each s_{alpha'} s_beta has
    hook part H_{k-1} + H_k.  So [k,k].E_b has hook part m_b (H_{k-1} +
    H_k), m_b = 1, 2, 1 at b = k-1, k, k+1 and 0 elsewhere.  Peeling
    E_b = H_b + H_{b-1} off from b = 0 up, [k,k].H_b has hook part
    H_{k-1} + H_k at b = k-1 and b = k (2 - 1), and 0 elsewhere.
    """
    n = 2 * k
    if k < 1 or not (0 <= b <= n - 1):
        raise ValueError(f"bad hook parameters k={k}, b={b}")
    same_degree(nu.n, n)
    if durfee_length(nu) >= 3:
        return 0
    if is_hook(nu):
        c = len(nu) - 1
        return int(b + c == 1) if k == 1 else int({b, c} <= {k - 1, k})

    # a double hook: read it, or its conjugate against the conjugate hook
    for nu, b in ((nu, b), (conjugate(nu), n - 1 - b)):
        a1, a2, *rest = nu
        b2, b1 = rest.count(2), rest.count(1)
        if a1 - a2 <= b1:
            break
    assert a1 - a2 <= b1

    x1 = int(a2 <= k - b2 - 1 <= a1 and b1 + 2 * b2 < b < b1 + 2 * b2 + 3)
    x2 = int(a2 <= k - b2 <= a1 and b1 + 2 * b2 <= b <= b1 + 2 * b2 + 3)
    x3 = int(a2 <= k - b2 + 1 <= a1 and b1 + 2 * b2 < b < b1 + 2 * b2 + 3)
    x4 = int(a2 + b2 + b1 == k and b1 + 2 * b2 + 1 <= b <= b1 + 2 * b2 + 2)
    g = x1 + x2 + x3 - x4
    if g not in (0, 1):
        raise RuntimeError(f"indicator formula produced {g} at k={k}, b={b}, nu={nu}")
    return g


KK_N33_SMALL_EXCEPTIONS = (
    Partition((4, 2)),
    Partition((4, 1, 1)),
    Partition((4, 3)),
    Partition((3, 3, 3)),
)


def _rect_n22_terms(a: int, b: int) -> list[tuple[int, ...]]:
    terms = [(a,) * b]
    if a > 2:
        terms.append((a,) * (b - 1) + (a - 1, 1))
    terms.append((a,) * (b - 2) + (a - 1, a - 1, 1, 1))
    if b > 3:
        terms.append((a + 1, a + 1) + (a,) * (b - 4) + (a - 1, a - 1))
    if b > 2:
        terms.append((a + 1,) + (a,) * (b - 2) + (a - 1,))
        terms.append((a + 1,) + (a,) * (b - 3) + (a - 1, a - 1, 1))
    terms.append((a + 2,) + (a,) * (b - 2) + (a - 2,))
    if a > 2:
        terms.append((a + 1,) + (a,) * (b - 2) + (a - 2, 1))
    if a > 3:
        terms.append((a,) * (b - 1) + (a - 2, 2))
    return terms


def _rect_n212_terms(a: int, b: int) -> list[tuple[int, ...]]:
    terms = []
    if b > 2:
        terms.append((a + 2,) + (a,) * (b - 3) + (a - 1, a - 1))
    terms.append((a + 1,) + (a,) * (b - 2) + (a - 1,))
    terms.append((a + 1,) + (a,) * (b - 2) + (a - 2, 1))
    terms.append((a,) * (b - 2) + (a - 1, a - 1, 2))
    if b > 2:
        terms.append((a + 1,) + (a,) * (b - 3) + (a - 1, a - 1, 1))
        terms.append((a + 1, a + 1) + (a,) * (b - 3) + (a - 2,))
    terms.append((a,) * (b - 1) + (a - 2, 1, 1))
    terms.append((a,) * (b - 1) + (a - 1, 1))
    return terms


def _kk_n33_terms(k: int) -> list[tuple[int, ...]]:
    return [
        (k + 1, k - 1),
        (k + 1, k - 2, 1),
        (k, k - 1, 1),
        (k, k - 2, 1, 1),
        (k, k - 2, 2),
        (k, k - 3, 3),
        (k - 1, k - 1, 2),
        (k - 1, k - 2, 2, 1),
        (k + 3, k - 3),
        (k + 2, k - 3, 1),
        (k + 1, k - 3, 2),
    ]


def small_depth_products(
    kind: str,
    a: int | None = None,
    b: int | None = None,
    k: int | None = None,
) -> CharacterExpansion:
    """Closed-form products of a rectangle or [k,k] with a depth-2/3 label.

    kinds: ``rect-times-n22`` ([n-2,2].[a^b], a,b>1, ab>=6),
    ``rect-times-n212`` ([n-2,1^2].[a^b], a>=b>1), and
    ``kk-times-n33`` ([n-3,3].[k,k], k>=3).  At k = 3 that product is
    ``kk_square(3)``, as (3,3) = (k,k), and at k = 4 it is
    ``kk_times_near(4)``, as (5,3) = (k+1,k-1); from k = 5 it has the
    eleven terms of ``_kk_n33_terms`` (checked against the oracle up to
    k = 7 and against Dvir up to k = 15).
    """
    if kind == "rect-times-n22":
        if a is None or b is None or a <= 1 or b <= 1 or a * b < 6:
            raise ValueError("requires a, b > 1 and ab >= 6")
        raw = _rect_n22_terms(a, b)
        degree = a * b
    elif kind == "rect-times-n212":
        if a is None or b is None or not (a >= b > 1):
            raise ValueError("requires a >= b > 1")
        raw = _rect_n212_terms(a, b)
        degree = a * b
    elif kind == "kk-times-n33":
        if k is None or k < 3:
            raise ValueError("requires k >= 3")
        if k == 3:
            return kk_square(3)
        if k == 4:
            return kk_times_near(4)
        raw = _kk_n33_terms(k)
        degree = 2 * k
    else:
        raise ValueError(f"unknown kind {kind!r}")

    counts = Counter()
    for parts in raw:
        try:
            counts[Partition(parts)] += 1
        except ValueError:  # the indicator convention: a non-partition label contributes nothing
            pass
    return CharacterExpansion(degree, counts)


class SquareLowDepth(NamedTuple):
    """Multiplicities of the depth <= 3 constituents in [lam]^2.

    Out-of-range coefficients are None (absent), never zero.
    """

    a1: int
    a2: int | None
    b2: int
    a3: int | None
    b3: int | None
    c3: int | None


def square_low_depth(lam: Partition) -> SquareLowDepth:
    """Low-depth square coefficients from the small-hook counts."""
    if is_linear(lam):
        raise ValueError(f"{lam!r} is linear")
    n = lam.n
    h = hook_counts(lam)
    h1, h2, h3, h21 = h["h1"], h["h2"], h["h3"], h["h21"]
    return SquareLowDepth(
        a1=h1 - 1,
        a2=h2 + h1 * (h1 - 2) if n >= 4 else None,
        b2=(h1 - 1) ** 2,
        a3=h1 * (h1 - 1) * (h1 - 3) + h2 * (2 * h1 - 3) + h3 if n >= 6 else None,
        b3=h1 * (h1 - 1) * (h1 - 3) + (h1 - 1) * (h2 + 1) + h21 if n >= 4 else None,
        c3=2 * h1 * (h1 - 1) * (h1 - 3) + h2 * (3 * h1 - 4) + h1 + h21 if n >= 5 else None,
    )
