"""Line-delimited JSON cache for Kronecker product expansions.

One record per unordered pair, keyed with the lex-larger operand first.
The file starts with a version header and is append-only; duplicate
keys resolve last-write-wins, and a final record torn by an interrupted
run is skipped on load, which makes interrupted runs harmless.

A record is malformed, and loading raises ValueError naming its line,
unless it could be a true product [lambda].[mu] of degree n: lambda,
mu and every label are partitions of n, each label appears once, each
multiplicity is a positive int (not a float, bool or string), and
sum(m * dim nu) equals dim lambda * dim mu.

A file of N records holds only p(n) distinct partition strings per
degree, so ``_load`` parses each distinct string once per call and
``flush`` renders each distinct partition once per call, through a
memo local to that call.  This is sound because ``parse_partition`` is
a pure function of its text and a ``Partition`` is an immutable tuple:
sharing one object between records changes no value, hash or equality.
A string that fails to parse raises each time it is met, since the memo
only ever holds successful results.
"""

from __future__ import annotations

import json
import os
from functools import cache

from .partitions import Partition, canonical_pair, dimension, format_partition, parse_partition

HEADER = {"format": "kronmf-cache", "version": 1}


def _key(n: int, lam: Partition, mu: Partition) -> tuple[int, Partition, Partition]:
    return (n, *canonical_pair(lam, mu))


class ProductCache:
    def __init__(self, path: str):
        self.path = path
        self._records: dict[tuple[int, Partition, Partition], dict[Partition, int]] = {}
        self._dirty: list[tuple[int, Partition, Partition]] = []
        self._torn_at: int | None = None
        # an unwritable path fails here, before a sweep computes anything
        # that flush could not write; it leaves an empty file, an empty cache
        with open(path, "a", encoding="utf-8"):
            pass
        self._load()

    def _load(self) -> None:
        """Read every record.  A final line without its newline is a torn
        record: it is skipped, and the next flush cuts it off.  Any other
        malformed line raises ValueError."""
        @cache
        def label(text: str) -> tuple[Partition, int, int]:
            """(partition, degree, dimension) of one partition string."""
            p = parse_partition(text)
            return p, p.n, dimension(p)

        with open(self.path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                return
            try:
                head = json.loads(first)
            except ValueError:
                head = None
            if not isinstance(head, dict) or head.get("format") != HEADER["format"]:
                raise ValueError(f"{self.path}: not a kronmf cache file")
            if head.get("version") != HEADER["version"]:
                raise ValueError(f"{self.path}: unsupported cache version {head.get('version')}")
            for lineno, line in enumerate(fh, 2):
                if not line.endswith("\n"):
                    # only the last line can lack its newline: an interrupted append
                    self._torn_at = os.path.getsize(self.path) - len(line.encode("utf-8"))
                    break
                try:
                    rec = json.loads(line)
                    n = rec["n"]
                    lam, lam_n, lam_dim = label(rec["lambda"])
                    mu, mu_n, mu_dim = label(rec["mu"])
                    terms = {}
                    total = 0
                    for text, m in rec["terms"]:
                        p, p_n, p_dim = label(text)
                        if p_n != n or type(m) is not int or m <= 0:
                            raise ValueError
                        terms[p] = m
                        total += m * p_dim
                    if (
                        lam_n != n
                        or mu_n != n
                        or len(terms) != len(rec["terms"])
                        or total != lam_dim * mu_dim
                    ):
                        raise ValueError
                    self._records[_key(n, lam, mu)] = terms
                except (ValueError, KeyError, TypeError):
                    if line.strip():
                        raise ValueError(f"{self.path}: line {lineno} is not a cache record") from None

    def get(self, n: int, lam: Partition, mu: Partition) -> dict[Partition, int] | None:
        return self._records.get(_key(n, lam, mu))

    def put(self, n: int, lam: Partition, mu: Partition, terms: dict[Partition, int]) -> None:
        key = _key(n, lam, mu)
        if key not in self._records:
            self._records[key] = dict(terms)
            self._dirty.append(key)

    def flush(self) -> None:
        if not self._dirty:
            return
        fmt = cache(format_partition)
        is_new = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._torn_at is not None:
                fh.truncate(self._torn_at)
                self._torn_at = None
            if is_new:
                fh.write(json.dumps(HEADER, separators=(",", ":")) + "\n")
            for key in self._dirty:
                n, lam, mu = key
                terms = self._records[key]
                rec = {
                    "n": n,
                    "lambda": fmt(lam),
                    "mu": fmt(mu),
                    "terms": [
                        [fmt(p), m]
                        for p, m in sorted(terms.items(), reverse=True)
                    ],
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        self._dirty.clear()

    def __len__(self) -> int:
        return len(self._records)
