"""Workloads of the kronmf benchmark: inputs, fresh-interpreter children, checks.

Every repetition runs in a fresh interpreter (``child.py``) that imports
kronmf from the checkout's ``src/`` and drives ``kronmf.cli.main``, so
every memo starts cold, as it does for a user's command.  Children run
one at a time and the sweeps pass ``--jobs 1``, so all load comes from
one process.

Correctness is checked by the harness alone: sweep stdout against a
committed golden, and every ``kron`` expansion against the dimension
identity sum(m * dim nu) = dim lam * dim mu, with the dimensions computed
here by the hook-length formula.  For the default seed, each ``kron``
stdout must also equal its committed golden.  A failed check counts
toward ``failed`` and the run goes on.

Timings are calibrated.  On a shared two-vCPU VM, the host slows each
vCPU by 10-100 %, independently, for stretches from a fraction of a
second to minutes; raw medians of 20 s runs spread by 13-40 %, about as
much as a real regression.  So ``run.py`` pins itself and its children
to one CPU, and the parent times a fixed pure-Python loop
(``calibrate``) before and after every timed child on that CPU.  The
child's times are scaled by the loop's reference time over the mean of
the two loop times, so each reads as it would at the reference
machine's speed.  Repetitions are kept to about a second so that the
two loops bracket each one closely; this is why the sweeps run at
n = 11, 8 and 6 rather than at 13, 10 and 7, where one repetition takes
3-7 s.  The loop belongs to the benchmark, not to kronmf, so a change
to kronmf cannot move it.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 0
SETUP_PROBES = 5  # set-up-only children per run, after one discarded warm-up
MIN_REPS = 3  # timed repetitions per untraced run, whatever --seconds says
HARD_LIMIT_S = 150.0  # no new repetition starts after this much time in one run
CHILD_TIMEOUT_S = 170.0
# The calibration loop: CAL_STORES dict stores with tuple keys and int
# arithmetic.  CAL_REFERENCE_S is its time on the machine the benchmark
# was sized on (2-vCPU Xeon VM at 2.0 GHz, CPython 3.11.7, quiet host).
CAL_STORES = 200_000
CAL_REFERENCE_S = 0.0385


@dataclass(frozen=True)
class Sweep:
    """One ``verify`` command, repeated; ``cache`` is None, "fresh" or "prebuilt"."""

    argv: tuple[str, ...]
    cache: str | None = None


@dataclass(frozen=True)
class ColdKron:
    """Seeded ``kron lam mu --engine oracle`` queries, one fresh interpreter each.

    Queries come in blocks holding one query per degree in ``ns``, in a
    seeded order, so every block does the same mix of table builds.
    """

    ns: tuple[int, ...]
    ceiling: int


PAIRS_11 = ("verify", "11", "--mode", "pairs", "--engine", "oracle", "--force", "--jobs", "1")

WORKLOADS = {
    "pairs-oracle": Sweep(PAIRS_11, cache="fresh"),
    "pairs-cached": Sweep(PAIRS_11, cache="prebuilt"),
    "engines-dvir": Sweep(("verify", "8", "--mode", "engines", "--force", "--jobs", "1")),
    "skew-sweep": Sweep(("verify", "6", "--mode", "skew", "--jobs", "1")),
    "cold-kron": ColdKron(ns=(14, 15, 16), ceiling=16),
}


# --- inputs, computed without kronmf so they cannot drift with the code ---


def partitions_of(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with parts at most cap, in descending lex order."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(min(n, cap), 0, -1) for rest in partitions_of(n - a, a)]


def hook_dimension(p: tuple[int, ...]) -> int:
    """Degree of the irreducible character [p], by the hook-length formula."""
    conj = [sum(1 for r in p if r > j) for j in range(p[0])] if p else []
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(p)) // hooks


def cold_kron_queries(seed: int, ns: tuple[int, ...]):
    """Endless seeded stream of (lam, mu) operand strings, block by block."""
    rng = random.Random(seed)
    parts = {n: partitions_of(n) for n in ns}
    while True:
        order = list(ns)
        rng.shuffle(order)
        for n in order:
            lam, mu = rng.choice(parts[n]), rng.choice(parts[n])
            yield ",".join(map(str, lam)), ",".join(map(str, mu))


def kron_argv(lam: str, mu: str) -> list[str]:
    return ["kron", lam, mu, "--engine", "oracle"]


def calibrate() -> float:
    """Seconds for one pass of the calibration loop."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(CAL_STORES):
        table[(i % 977, i % 13)] = i
        acc += i * i % 7
    return time.perf_counter() - start


# --- checks ---


_TERM_RE = re.compile(r"^(\d*)\[([0-9,^]*)\]$")


def parse_part(text: str) -> tuple[int, ...]:
    parts: list[int] = []
    for term in text.split(","):
        a, _, b = term.partition("^")
        parts.extend([int(a)] * (int(b) if b else 1))
    return tuple(parts)


def parse_expansion(text: str) -> dict[tuple[int, ...], int]:
    """Parse the CLI's text rendering, e.g. ``[4] + 2[3,1] + [1^4]``."""
    terms: dict[tuple[int, ...], int] = {}
    for piece in text.strip().split(" + "):
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"bad term {piece!r}")
        terms[parse_part(m.group(2))] = int(m.group(1) or 1)
    return terms


def kron_ok(rc, stdout: str, lam: str, mu: str, golden: str | None) -> bool:
    """A ``kron`` query is right if it exits 0 and satisfies the dimension identity."""
    if rc != 0 or (golden is not None and stdout != golden):
        return False
    lam_p, mu_p = parse_part(lam), parse_part(mu)
    try:
        terms = parse_expansion(stdout)
    except ValueError:
        return False
    n = sum(lam_p)
    if any(sum(p) != n or m <= 0 for p, m in terms.items()):
        return False
    return sum(m * hook_dimension(p) for p, m in terms.items()) == hook_dimension(lam_p) * hook_dimension(mu_p)


def sweep_checks(golden: str) -> int:
    return int(re.search(r"^pairs_checked=(\d+)$", golden, re.M).group(1))


def sweep_failures(rc, stdout: str | None, golden: str) -> int:
    """Failed checks of one sweep: its reported mismatches, or all of them if the run failed."""
    if rc == 0 and stdout == golden:
        return 0
    total = sweep_checks(golden)
    if rc != 1 or stdout is None:
        return total
    kept = [line for line in stdout.splitlines() if not line.startswith("mismatch: ")]
    found = re.fullmatch(r"mismatches=(\d+)", kept[-1]) if kept else None
    if found is None or int(found.group(1)) == 0:
        return total
    kept[-1] = "mismatches=0"
    return int(found.group(1)) if "\n".join(kept) == golden.rstrip("\n") else total


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_key(argv) -> str:
    return " ".join(argv)


# --- children ---


@dataclass
class Child:
    wall_s: float  # spawn to exit, seen by the parent
    setup_s: float | None = None  # spawn to kronmf imported and inputs made
    run_s: float | None = None
    rc: int | None = None
    stdout: str | None = None
    maxrss_mb: float | None = None
    mn_backend: str | None = None


def spawn(request: dict, env_extra: dict | None = None) -> Child:
    """Run one child to completion and parse its result line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KRONMF_")}
    env.update(env_extra or {})
    payload = json.dumps(dict(request, src=str(SRC)))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), payload],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out: {request.get('argv')}", file=sys.stderr)
        return Child(wall_s=time.monotonic() - start)
    wall = time.monotonic() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"child failed (exit {proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return Child(wall_s=wall)
    return Child(
        wall_s=wall,
        setup_s=result["t_ready"] - start,
        run_s=result.get("run_s"),
        rc=result.get("rc"),
        stdout=result.get("stdout"),
        maxrss_mb=result["maxrss_kb"] / 1024.0,
        mn_backend=result.get("mn_backend"),
    )


# --- runs ---


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    # times below are calibrated (see the module docstring)
    setup: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)  # one per repetition
    wall: list[float] = field(default_factory=list)  # one per command
    traced_run: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)  # the calibration factors
    rss: list[float] = field(default_factory=list)
    trace_totals: object = None
    mn_backend: str | None = None

    def note(self, child: Child, factor: float) -> None:
        self.speed.append(factor)
        if child.setup_s is not None:
            self.setup.append(child.setup_s * factor)
            self.mn_backend = child.mn_backend
        if child.maxrss_mb is not None and child.run_s is not None:
            self.rss.append(child.maxrss_mb)


def _keep_going(reps: int, durations: list[float], start: float, deadline: float, min_reps: int) -> bool:
    now = time.monotonic()
    if now - start > HARD_LIMIT_S:
        return False
    if reps < min_reps:
        return True
    return now + statistics.median(durations) <= deadline


class Run:
    """One benchmark run of one workload: set-up probes, then timed repetitions.

    Untraced, repetitions go on until ``seconds`` would be exceeded (at
    least MIN_REPS).  Traced, untraced and traced repetitions of the same
    input alternate (at least one each): per-layer numbers come from the
    first traced repetition, so its counts repeat exactly, and the
    overhead ratio compares the medians of the two kinds.
    """

    def __init__(self, spec, seed: int, seconds: float, trace: bool, tmp: Path, goldens: dict | None = None):
        self.spec, self.seed = spec, seed
        self.seconds, self.trace, self.tmp = seconds, trace, tmp
        self.goldens = load_goldens() if goldens is None else goldens
        self.tally = Tally()
        self._n = 0
        self._cal: float | None = None

    def _path(self, stem: str) -> str:
        self._n += 1
        return str(self.tmp / f"{stem}-{self._n}")

    def execute(self) -> Tally:
        if isinstance(self.spec, Sweep):
            self._sweep()
        else:
            self._cold_kron()
        return self.tally

    def _timed(self, request: dict, env_extra: dict | None = None) -> tuple[Child, float]:
        """Spawn a timed child between two calibrations; (child, calibration factor)."""
        before = self._cal if self._cal is not None else calibrate()
        child = spawn(request, env_extra)
        self._cal = calibrate()
        factor = CAL_REFERENCE_S / ((before + self._cal) / 2)
        self.tally.note(child, factor)
        return child, factor

    def _setup_probes(self, request: dict, env_extra: dict | None) -> None:
        spawn(request, env_extra)  # not counted: it also fills the bytecode caches
        for _ in range(SETUP_PROBES):
            self._timed(request, env_extra)

    def _loop(self, one_rep) -> None:
        start = time.monotonic()
        deadline = start + self.seconds
        durations: list[float] = []
        reps = 0
        while _keep_going(reps, durations, start, deadline, 2 if self.trace else MIN_REPS):
            t0 = time.monotonic()
            one_rep(traced=self.trace and reps % 2 == 1)
            durations.append(time.monotonic() - t0)
            reps += 1

    def _trace_request(self, request: dict, traced: bool) -> tuple[dict, str | None]:
        if not traced:
            return request, None
        out = self._path("spans")
        return dict(request, trace_out=out), out

    def _collect_trace(self, paths: list[str]) -> None:
        import tracer

        totals = []
        for path in paths:
            if os.path.exists(path):
                dump = tracer.load(path)
                if dump["missing"]:
                    print(f"not traced (absent): {', '.join(dump['missing'])}", file=sys.stderr)
                totals.append(tracer.summarize(dump))
                os.remove(path)
        if self.tally.trace_totals is None and totals:
            self.tally.trace_totals = tracer.merge(totals)

    # --- sweeps ---

    def _sweep(self) -> None:
        spec, tally = self.spec, self.tally
        golden = self.goldens["sweeps"][sweep_key(spec.argv)]
        argv = list(spec.argv)
        probe: dict = {}
        if spec.cache == "prebuilt":
            prebuilt = str(self.tmp / "prebuilt-cache.jsonl")
            prebuild = spawn({"argv": argv + ["--cache", prebuilt], "fresh_cache": prebuilt})
            tally.attempted += sweep_checks(golden)
            tally.failed += sweep_failures(prebuild.rc, prebuild.stdout, golden)
            argv += ["--cache", prebuilt]
        elif spec.cache == "fresh":
            probe = {"fresh_cache": self._path("probe-cache")}
        self._setup_probes(probe, None)

        def one_rep(traced: bool) -> None:
            request = {"argv": argv}
            fresh = None
            if spec.cache == "fresh":
                fresh = self._path("cache")
                request = {"argv": argv + ["--cache", fresh], "fresh_cache": fresh}
            request, trace_out = self._trace_request(request, traced)
            child, factor = self._timed(request)
            if fresh and os.path.exists(fresh):
                os.remove(fresh)
            tally.attempted += sweep_checks(golden)
            tally.failed += sweep_failures(child.rc, child.stdout, golden)
            if child.run_s is not None:
                (tally.traced_run if traced else tally.run).append(child.run_s * factor)
                if not traced:
                    tally.wall.append(child.wall_s * factor)
            if trace_out:
                self._collect_trace([trace_out])

        self._loop(one_rep)

    # --- cold kron ---

    def _cold_kron(self) -> None:
        spec, tally = self.spec, self.tally
        env = {"KRONMF_TABLE_CEILING": str(spec.ceiling)}
        golden = self.goldens["cold-kron"]
        known = golden["queries"] if self.seed == golden["seed"] and tuple(golden["ns"]) == spec.ns else []
        stream = cold_kron_queries(self.seed, spec.ns)
        first_block = [next(stream) for _ in spec.ns]
        self._setup_probes({}, env)
        sent = 0

        def one_rep(traced: bool) -> None:
            nonlocal sent
            if self.trace:
                block, offset = first_block, 0
            else:
                block = first_block if sent == 0 else [next(stream) for _ in spec.ns]
                offset = sent
                sent += len(block)
            total = 0.0
            trace_outs = []
            for i, (lam, mu) in enumerate(block):
                request, trace_out = self._trace_request({"argv": kron_argv(lam, mu)}, traced)
                child, factor = self._timed(request, env)
                index = offset + i
                expected = None
                if index < len(known) and known[index]["lam"] == lam and known[index]["mu"] == mu:
                    expected = known[index]["stdout"]
                tally.attempted += 1
                tally.failed += not kron_ok(child.rc, child.stdout or "", lam, mu, expected)
                total += child.wall_s * factor
                if not traced:
                    tally.wall.append(child.wall_s * factor)
                if trace_out:
                    trace_outs.append(trace_out)
            (tally.traced_run if traced else tally.run).append(total)
            if trace_outs:
                self._collect_trace(trace_outs)

        self._loop(one_rep)
