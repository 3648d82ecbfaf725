"""Line-delimited JSON cache for Kronecker product expansions.

One record per unordered pair, keyed with the lex-larger operand first.
The file starts with a version header and is append-only; duplicate
keys resolve last-write-wins, and a final record torn by an interrupted
run is skipped on load, which makes interrupted runs harmless.  A
header torn before its newline loads as an empty cache.

A record is malformed, and loading raises ValueError naming its line,
unless it could be a true product [lambda].[mu] of degree n: lambda,
mu and every label are partitions of n, each label appears once, each
multiplicity is a positive int (not a float, bool or string), and
sum(m * dim nu) equals dim lambda * dim mu.

Records stream: ``put`` writes each new record to an append handle at
once, and ``flush`` closes the handle, so a sweep that stops early keeps
every record it finished.  One key store, ``_records``, maps each key
loaded at open to its terms and each key put since to None.  So ``get``
answers from the records loaded at open, never from ones put since (None
is a miss), and ``put`` writes each key once; the pair sweep puts a key
only after ``get`` missed it.

A file of N records holds only p(n) distinct partition strings per
degree, so ``_load`` parses each distinct string once per call, through
a memo local to that call, and a cache renders each distinct partition
once.  Its one term memo, a ``functools.cache`` over (partition,
multiplicity), holds at most p(n) * max g texts for a degree whose
largest coefficient is max g.  This is sound because ``parse_partition``
and ``format_partition`` are pure functions and a ``Partition`` is an
immutable tuple: sharing one object between records changes no value,
hash or equality.  A string that fails to parse raises each time it is
met, since the memo only ever holds successful results.
"""

from __future__ import annotations

import json
import os
from functools import cache
from itertools import starmap

from .partitions import Partition, canonical_pair, dimension, format_partition, parse_partition

HEADER = {"format": "kronmf-cache", "version": 1}
HEADER_LINE = json.dumps(HEADER, separators=(",", ":")) + "\n"


def _key(n: int, lam: Partition, mu: Partition) -> tuple[int, Partition, Partition]:
    return (n, *canonical_pair(lam, mu))


class ProductCache:
    def __init__(self, path: str):
        self.path = path
        self._records: dict[tuple[int, Partition, Partition], dict[Partition, int] | None] = {}
        self._out = None
        self._torn_at: int | None = None
        label = self._label = cache(format_partition)
        # (partition, multiplicity) -> the text ["<label>",m] of one term.  A
        # label holds only digits, commas and carets, so the text is exactly
        # json.dumps([label, m], separators=(",", ":"))
        self._term = cache(lambda p, m: f'["{label(p)}",{m}]')
        # an unwritable path fails here, before a sweep computes anything
        # that put could not write; it leaves an empty file, an empty cache
        with open(path, "a", encoding="utf-8"):
            pass
        self._load()

    def _load(self) -> None:
        """Read every record.  A final line without its newline is a torn
        record, or a torn header if it begins the header line: it is
        skipped, and the first put cuts it off.  Any other malformed line
        raises ValueError."""
        @cache
        def label(text: str) -> tuple[Partition, int, int]:
            """(partition, degree, dimension) of one partition string."""
            p = parse_partition(text)
            return p, p.n, dimension(p)

        with open(self.path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                return
            if not first.endswith("\n") and HEADER_LINE.startswith(first):
                self._torn_at = 0
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

    def put(self, n: int, lam: Partition, mu: Partition, terms) -> None:
        """Append the record of a key not loaded or put before; terms (a dict or an expansion) sorted descending."""
        key = _key(n, lam, mu)
        if key in self._records:
            return
        self._records[key] = None
        out = self._out or self._open()
        _, a, b = key
        body = ",".join(starmap(self._term, sorted(terms.items(), reverse=True)))
        out.write('{"n":%d,"lambda":"%s","mu":"%s","terms":[%s]}\n' % (n, self._label(a), self._label(b), body))

    def _open(self):
        """The append handle, after cutting off a torn tail and writing the
        header into an empty file."""
        out = self._out = open(self.path, "a", encoding="utf-8")
        if self._torn_at is not None:
            out.truncate(self._torn_at)
            self._torn_at = None
        if os.fstat(out.fileno()).st_size == 0:
            out.write(HEADER_LINE)
        return out

    def flush(self) -> None:
        """Close the append handle, writing out what it buffers."""
        if self._out is not None:
            self._out.close()
            self._out = None

    def __len__(self) -> int:
        return len(self._records)
