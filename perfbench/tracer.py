"""Span tracer for the kronmf layers, installed from outside the package.

Each entry of ``SPANS`` wraps one public function or method of a kronmf
module.  A wrapped call records a span (name, start, end, parent span);
spans are kept in flat arrays in memory and written out with
:meth:`Tracer.dump` when the traced command ends.  ``summarize`` turns a
dump into additive totals (calls and self time per span name, plus the
counters the hooks keep), and ``layer_metrics`` derives the per-layer
metrics the benchmark reports.

``from .x import f`` binds ``f`` in every importing module, and
``verify.VERIFY_MODES`` holds the sweep functions in a dict, so a
wrapper replaces the original in every kronmf module namespace and in
every dict held there.  Methods are replaced on their class, which all
importers share.

Self time is a span's duration minus the time covered by its child
spans.  Code that is not wrapped (private helpers) counts toward the
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from array import array
from collections import Counter

# (span name, kronmf module, attribute); a dotted attribute is a method.
SPANS = (
    ("cli.main", "cli", "main"),
    ("verify.pairs", "verify", "verify_pairs"),
    ("verify.triples", "verify", "verify_triples"),
    ("verify.skew", "verify", "verify_skew"),
    ("verify.engines", "verify", "verify_engines"),
    ("cache.load", "cache", "ProductCache._load"),
    ("cache.get", "cache", "ProductCache.get"),
    ("cache.flush", "cache", "ProductCache.flush"),
    ("characters.table", "characters", "character_table"),
    ("characters.oracle_product", "characters", "kron_product_oracle"),
    ("kronecker.kron_product", "kronecker", "kron_product"),
    ("kronecker.multiply", "kronecker", "multiply_expansions"),
    ("kronecker.g_dvir", "kronecker", "g_dvir"),
    ("littlewood_richardson.skew_expand", "littlewood_richardson", "skew_expand"),
    ("littlewood_richardson.is_mf_skew", "littlewood_richardson", "is_mf_skew"),
    ("classification.is_mf_pair", "classification", "is_mf_pair"),
    ("classification.is_mf_skew_times_irr", "classification", "is_mf_skew_times_irr"),
    ("partitions.parse", "partitions", "parse_partition"),
    ("partitions.enumerate", "partitions", "enumerate_partitions"),
    ("partitions.skew_normalize", "partitions", "skew_normalize"),
)

# (counter name, kronmf module, constructor): counted, no span.
CONSTRUCTORS = (
    ("partitions.partition_constructed", "partitions", "Partition"),
    ("expansion.constructed", "expansion", "CharacterExpansion"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._tables: set[int] = set()
        self._oracle_pairs: set = set()
        self._constructed: dict[str, list[int]] = {}

    # --- hooks: (before(args) -> state, after(args, result, seconds, state)) ---

    def _hooks(self):
        counts = self.counts

        def loaded(args, result, seconds, state):
            cache = args[0]
            counts["cache.load_s"] += seconds
            counts["cache.records_loaded"] += len(cache)
            counts["cache.file_bytes"] += os.path.getsize(cache.path)

        def got(args, result, seconds, state):
            counts["cache.hits"] += result is not None

        def size_of(args):
            path = args[0].path
            return os.path.getsize(path) if os.path.exists(path) else 0

        def flushed(args, result, seconds, before):
            counts["cache.flush_s"] += seconds
            counts["cache.bytes_written"] += size_of(args) - before

        def table(args, result, seconds, state):
            # the memo hands back the same object; a new one was built
            if id(result) not in self._tables:
                self._tables.add(id(result))
                counts["characters.table_builds"] += 1
                counts["characters.table_build_s"] += seconds

        def oracle(args, result, seconds, state):
            self._oracle_pairs.add(frozenset(args[:2]))

        def dvir(args, result, seconds, state):
            counts["kronecker.g_dvir_nonzero"] += result > 0

        return {
            "cache.load": (None, loaded),
            "cache.get": (None, got),
            "cache.flush": (size_of, flushed),
            "characters.table": (None, table),
            "characters.oracle_product": (None, oracle),
            "kronecker.g_dvir": (None, dvir),
        }

    def _wrap(self, span: str, fn, before, after):
        nid = len(self.names)
        self.names.append(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                ends[idx] = t
                stack.pop()
            if after is not None:
                after(args, result, t - starts[idx], state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every entry of SPANS and CONSTRUCTORS in the loaded kronmf."""
        import importlib

        modules = [m for k, m in list(sys.modules.items()) if k == "kronmf" or k.startswith("kronmf.")]
        hooks = self._hooks()
        for span, module, attr in SPANS:
            owner = importlib.import_module("kronmf." + module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(span, orig, *hooks.get(span, (None, None)))
            if path:
                setattr(owner, leaf, wrapper)
            else:
                _replace_everywhere(modules, orig, wrapper)
        for counter, module, cls_name in CONSTRUCTORS:
            cls = getattr(importlib.import_module("kronmf." + module), cls_name, None)
            if cls is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            self._count_constructions(counter, cls)

    def _count_constructions(self, counter: str, cls) -> None:
        cell = self._constructed.setdefault(counter, [0])
        if "__new__" in vars(cls):
            new = vars(cls)["__new__"].__func__

            def counted_new(klass, *args, **kwargs):
                cell[0] += 1
                return new(klass, *args, **kwargs)

            cls.__new__ = staticmethod(counted_new)
        else:
            init = cls.__init__

            def counted_init(obj, *args, **kwargs):
                cell[0] += 1
                return init(obj, *args, **kwargs)

            cls.__init__ = counted_init

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["characters.oracle_distinct_pairs"] = len(self._oracle_pairs)
        for counter, cell in self._constructed.items():
            counts[counter] = cell[0]
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "counts": counts,
                    "missing": self.missing,
                },
                fh,
            )


def _replace_everywhere(modules, orig, wrapper) -> None:
    for mod in modules:
        space = vars(mod)
        for key, value in list(space.items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper


def load(path: str) -> dict:
    """Read a dump written by Tracer.dump (written by this benchmark only)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def summarize(trace: dict) -> Counter:
    """Additive totals of one dump: ``<span>.calls``, ``<span>.self_s`` and the hook counters."""
    names, name, parent, start, end = (trace[k] for k in ("names", "name", "parent", "start", "end"))
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    out = Counter(trace["counts"])
    for i, nid in enumerate(name):
        span = names[nid]
        out[span + ".calls"] += 1
        out[span + ".self_s"] += dur[i] - covered[i]
    return out


def merge(totals) -> Counter:
    out: Counter = Counter()
    for t in totals:
        out.update(t)
    return out


def layer_metrics(raw) -> dict[str, float]:
    """Per-layer metrics from summarized (and possibly merged) totals."""

    def get(key):
        return raw.get(key, 0)

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    def layer_self(prefix):
        return sum(v for k, v in raw.items() if k.startswith(prefix + ".") and k.endswith(".self_s"))

    metrics = {
        "cli.self_s": layer_self("cli"),
        "verify.self_s": layer_self("verify"),
        "cache.load_s": get("cache.load_s"),
        "cache.records_loaded": get("cache.records_loaded"),
        "cache.file_bytes": get("cache.file_bytes"),
        "cache.get_calls": get("cache.get.calls"),
        "cache.hit_ratio": ratio("cache.hits", "cache.get.calls"),
        "cache.flush_s": get("cache.flush_s"),
        "cache.bytes_written": get("cache.bytes_written"),
        "characters.table_builds": get("characters.table_builds"),
        "characters.table_build_s": get("characters.table_build_s"),
        "characters.oracle_product_reuse": ratio(
            "characters.oracle_distinct_pairs", "characters.oracle_product.calls"
        ),
        "kronecker.g_dvir_nonzero_ratio": ratio("kronecker.g_dvir_nonzero", "kronecker.g_dvir.calls"),
        "partitions.partition_constructed": get("partitions.partition_constructed"),
        "expansion.constructed": get("expansion.constructed"),
    }
    for span in (
        "characters.oracle_product",
        "kronecker.g_dvir",
        "kronecker.kron_product",
        "kronecker.multiply",
        "littlewood_richardson.skew_expand",
        "classification.is_mf_pair",
        "classification.is_mf_skew_times_irr",
        "partitions.parse",
        "partitions.enumerate",
    ):
        metrics[span + "_calls"] = get(span + ".calls")
        metrics[span + "_self_s"] = get(span + ".self_s")
    metrics["littlewood_richardson.is_mf_skew_self_s"] = get("littlewood_richardson.is_mf_skew.self_s")
    return metrics


def self_time_shares(raw) -> list[tuple[str, float]]:
    """Spans by share of the summed self time, largest first."""
    selfs = {k[: -len(".self_s")]: v for k, v in raw.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    return sorted(((k, v / total) for k, v in selfs.items()), key=lambda kv: -kv[1])
