"""Line-delimited JSON cache for Kronecker product expansions.

One record per unordered pair, keyed with the lex-larger operand first.
The file starts with a version header and is append-only; duplicate
keys resolve last-write-wins, and a final record torn by an interrupted
run is skipped on load, which makes interrupted runs harmless.
"""

from __future__ import annotations

import json
import os

from .partitions import Partition, canonical_pair, format_partition, parse_partition

HEADER = {"format": "kronmf-cache", "version": 1}


def _key(n: int, lam: Partition, mu: Partition) -> tuple[int, Partition, Partition]:
    return (n, *canonical_pair(lam, mu))


class ProductCache:
    def __init__(self, path: str):
        self.path = path
        self._records: dict[tuple[int, Partition, Partition], dict[Partition, int]] = {}
        self._dirty: list[tuple[int, Partition, Partition]] = []
        self._torn_at: int | None = None
        if os.path.exists(path):
            self._load()

    def _load(self) -> None:
        """Read every record.  A final line without its newline is a torn
        record: it is skipped, and the next flush cuts it off.  Any other
        malformed line raises ValueError."""
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
                    key = _key(rec["n"], parse_partition(rec["lambda"]), parse_partition(rec["mu"]))
                    self._records[key] = {
                        parse_partition(p): int(m) for p, m in rec["terms"]
                    }
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
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "terms": [
                        [format_partition(p), m]
                        for p, m in sorted(terms.items(), reverse=True)
                    ],
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        self._dirty.clear()

    def __len__(self) -> int:
        return len(self._records)
