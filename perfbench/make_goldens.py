"""Regenerate ``goldens.json``, the expected outputs the benchmark checks against.

    python3 perfbench/make_goldens.py

Sweep goldens are the stdout of each sweep command.  The ``cold-kron``
golden holds the first GOLDEN_BLOCKS blocks of queries for the default
seed, with the stdout of ``kron --engine oracle``; each expansion is
cross-checked against the Dvir engine, which shares no code with the
character-table oracle, and against the dimension identity.  Goldens
record what the code under test printed when they were made, so only
regenerate them from a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    DEFAULT_SEED,
    GOLDENS,
    SRC,
    WORKLOADS,
    ColdKron,
    cold_kron_queries,
    kron_argv,
    kron_ok,
    spawn,
    sweep_key,
)

GOLDEN_BLOCKS = 20


def main() -> int:
    sys.path.insert(0, str(SRC))
    from kronmf import kron_product, parse_partition

    sweeps: dict[str, str] = {}
    cold: dict = {}
    for name, spec in WORKLOADS.items():
        if isinstance(spec, ColdKron):
            env = {"KRONMF_TABLE_CEILING": str(spec.ceiling)}
            stream = cold_kron_queries(DEFAULT_SEED, spec.ns)
            queries = []
            for _ in range(GOLDEN_BLOCKS * len(spec.ns)):
                lam, mu = next(stream)
                child = spawn({"argv": kron_argv(lam, mu)}, env)
                dvir = str(kron_product(parse_partition(lam), parse_partition(mu), "dvir"))
                if child.stdout != dvir + "\n" or not kron_ok(child.rc, child.stdout, lam, mu, None):
                    raise SystemExit(f"engines disagree on kron {lam} {mu}")
                queries.append({"lam": lam, "mu": mu, "stdout": child.stdout})
            cold = {"seed": DEFAULT_SEED, "ns": list(spec.ns), "queries": queries}
            continue
        key = sweep_key(spec.argv)
        if key not in sweeps:
            child = spawn({"argv": list(spec.argv)})
            if child.rc != 0 or "mismatches=0" not in (child.stdout or ""):
                raise SystemExit(f"sweep failed: {key}")
            sweeps[key] = child.stdout
        print(f"{name}: ok", file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"sweeps": sweeps, "cold-kron": cold}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
