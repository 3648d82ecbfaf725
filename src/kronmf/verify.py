"""Exhaustive desk-scale verification sweeps.

Each sweep compares a classification predicate against direct
computation (or one engine against the other) over the complete space
at one degree and returns a deterministic report.  Pair sweeps can run
on a process pool; the pair space is partitioned by hash of the
canonical key and results are sorted after aggregation, so reports are
identical under any schedule.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .cache import ProductCache
from .classification import is_mf_pair, is_mf_skew_times_irr, is_mf_triple
from .expansion import CharacterExpansion
from .kronecker import kron_product, multiply_expansions
from .littlewood_richardson import is_mf_skew, skew_expand
from .partitions import (
    Partition,
    enumerate_basic_skew_shapes,
    enumerate_partitions,
    format_partition,
    format_skew,
    is_proper_skew,
    parse_partition,
)

DEFAULT_CEILINGS = {"pairs": 9, "triples": 7, "skew": 7, "engines": 7}


@dataclass
class VerificationReport:
    degree: int
    mode: str
    engine: str
    pairs_checked: int
    mismatches: list[tuple[str, str, str, str]] = field(default_factory=list)
    wall_time: float = 0.0

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


def _unordered_pairs(parts: list[Partition]) -> list[tuple[Partition, Partition]]:
    return [(parts[i], parts[j]) for i in range(len(parts)) for j in range(i, len(parts))]


def _pair_products_chunk(args) -> list[tuple[str, str, list[tuple[tuple[int, ...], int]]]]:
    n, engine, chunk = args
    out = []
    for lam_s, mu_s in chunk:
        lam, mu = parse_partition(lam_s), parse_partition(mu_s)
        terms = kron_product(lam, mu, engine)
        out.append((lam_s, mu_s, [(tuple(p), m) for p, m in terms.items()]))
    return out


def _pair_product_maps(
    n: int,
    pairs: list[tuple[Partition, Partition]],
    engine: str,
    jobs: int,
    cache: ProductCache | None,
) -> dict[tuple[Partition, Partition], dict[Partition, int]]:
    results: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
    missing = []
    for lam, mu in pairs:
        hit = cache.get(n, lam, mu) if cache is not None else None
        if hit is not None:
            results[(lam, mu)] = hit
        else:
            missing.append((lam, mu))
    # a pool starts all its workers at once; more than the cores buys nothing
    jobs = min(jobs, os.cpu_count() or 1)
    if missing and jobs > 1:
        # imported here: it costs every CLI start about 20 ms, and only
        # --jobs uses it
        from concurrent.futures import ProcessPoolExecutor

        chunks: list[list[tuple[str, str]]] = [[] for _ in range(jobs)]
        for lam, mu in missing:
            chunks[hash((tuple(lam), tuple(mu))) % jobs].append(
                (format_partition(lam), format_partition(mu))
            )
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(
                _pair_products_chunk, [(n, engine, c) for c in chunks if c]
            ):
                for lam_s, mu_s, terms in part:
                    lam, mu = parse_partition(lam_s), parse_partition(mu_s)
                    results[(lam, mu)] = {Partition(p): m for p, m in terms}
    else:
        for lam, mu in missing:
            results[(lam, mu)] = kron_product(lam, mu, engine).terms()
    if cache is not None:
        for (lam, mu), terms in results.items():
            cache.put(n, lam, mu, terms)
        cache.flush()
    return results


def verify_pairs(
    n: int, engine: str = "auto", jobs: int = 1, cache: ProductCache | None = None
) -> VerificationReport:
    """Pair classification: is_mf_pair iff the computed product has max mult 1."""
    start = time.monotonic()
    pairs = _unordered_pairs(enumerate_partitions(n))
    products = _pair_product_maps(n, pairs, engine, jobs, cache)
    report = VerificationReport(n, "pairs", engine, pairs_checked=len(pairs))
    for lam, mu in pairs:
        predicted = bool(is_mf_pair(lam, mu))
        computed = max(products[(lam, mu)].values()) == 1
        if predicted != computed:
            report.mismatches.append(
                (
                    format_partition(lam),
                    format_partition(mu),
                    "mf" if predicted else "not-mf",
                    "mf" if computed else "not-mf",
                )
            )
    report.mismatches.sort()
    report.wall_time = time.monotonic() - start
    return report


def verify_triples(n: int, engine: str = "auto") -> VerificationReport:
    """Triple products: predicate vs computed multiplicity, all triples."""
    start = time.monotonic()
    parts = enumerate_partitions(n)
    report = VerificationReport(n, "triples", engine, pairs_checked=0)
    for i in range(len(parts)):
        for j in range(i, len(parts)):
            left = kron_product(parts[i], parts[j], engine)
            for k in range(j, len(parts)):
                report.pairs_checked += 1
                triple = multiply_expansions(
                    left, CharacterExpansion.irreducible(parts[k]), engine
                )
                computed = triple.is_multiplicity_free()
                predicted = bool(is_mf_triple(parts[i], parts[j], parts[k]))
                if predicted != computed:
                    report.mismatches.append(
                        (
                            format_partition(parts[i]),
                            f"{format_partition(parts[j])} | {format_partition(parts[k])}",
                            "mf" if predicted else "not-mf",
                            "mf" if computed else "not-mf",
                        )
                    )
    report.mismatches.sort()
    report.wall_time = time.monotonic() - start
    return report


def verify_skew(n: int, engine: str = "auto") -> VerificationReport:
    """Skew sweeps: the basic-shape predicate, skew-times-irreducible,
    and no-mf-product-of-two-proper-skews, all at one degree.

    For the proper-times-proper part, only pairs of multiplicity-free
    proper characters need computing: a factor with a repeated
    constituent sigma contributes 2([sigma].[t]) != 0 to the product, so
    those pairs can never be multiplicity-free.  They are still counted.
    """
    start = time.monotonic()
    shapes = enumerate_basic_skew_shapes(n)
    alphas = enumerate_partitions(n)
    report = VerificationReport(n, "skew", engine, pairs_checked=0)

    proper_expansions: dict[CharacterExpansion, str] = {}
    n_proper = 0
    for s in shapes:
        chi = skew_expand(s)
        report.pairs_checked += 1
        predicted = bool(is_mf_skew(s))
        computed = chi.is_multiplicity_free()
        if predicted != computed:
            report.mismatches.append(
                (format_skew(s), "-", "mf" if predicted else "not-mf", "mf" if computed else "not-mf")
            )
        if is_proper_skew(s):
            n_proper += 1
            proper_expansions.setdefault(chi, format_skew(s))
        for alpha in alphas:
            report.pairs_checked += 1
            predicted = bool(is_mf_skew_times_irr(s, alpha))
            product = multiply_expansions(
                chi, CharacterExpansion.irreducible(alpha), engine
            )
            computed = product.is_multiplicity_free()
            if predicted != computed:
                report.mismatches.append(
                    (
                        format_skew(s),
                        format_partition(alpha),
                        "mf" if predicted else "not-mf",
                        "mf" if computed else "not-mf",
                    )
                )

    mf_proper = sorted(
        (chi for chi in proper_expansions if chi.is_multiplicity_free()),
        key=lambda c: sorted(c.terms().items(), reverse=True),
    )
    for i in range(len(mf_proper)):
        for j in range(i, len(mf_proper)):
            report.pairs_checked += 1
            product = multiply_expansions(mf_proper[i], mf_proper[j], engine)
            if product.is_multiplicity_free():
                report.mismatches.append(
                    (
                        proper_expansions[mf_proper[i]],
                        proper_expansions[mf_proper[j]],
                        "not-mf",
                        "mf",
                    )
                )
    # pairs with a non-mf factor are settled by the repeated-constituent
    # argument above; count them so the sweep tally covers the full space
    report.pairs_checked += (n_proper * (n_proper + 1)) // 2 - (
        len(mf_proper) * (len(mf_proper) + 1)
    ) // 2
    report.mismatches.sort()
    report.wall_time = time.monotonic() - start
    return report


def verify_engines(n: int) -> VerificationReport:
    """Dvir recursion against the character-table oracle, all pairs."""
    start = time.monotonic()
    pairs = _unordered_pairs(enumerate_partitions(n))
    report = VerificationReport(n, "engines", "dvir-vs-oracle", pairs_checked=len(pairs))
    for lam, mu in pairs:
        left = kron_product(lam, mu, "dvir")
        right = kron_product(lam, mu, "oracle")
        if left != right:
            diff = {
                p
                for p in set(left.support()) | set(right.support())
                if left[p] != right[p]
            }
            report.mismatches.append(
                (
                    format_partition(lam),
                    format_partition(mu),
                    "dvir!=oracle",
                    ",".join(format_partition(p) for p in sorted(diff, reverse=True)),
                )
            )
    report.mismatches.sort()
    report.wall_time = time.monotonic() - start
    return report


VERIFY_MODES = {
    "pairs": verify_pairs,
    "triples": verify_triples,
    "skew": verify_skew,
    "engines": verify_engines,
}
