"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They run small versions of each workload kind (a few seconds in all),
so they check the harness, not kronmf's speed.
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import ColdKron, Run, Sweep  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "pairs-cached": Sweep(("verify", "6", "--mode", "pairs", "--engine", "oracle", "--jobs", "1"), cache="prebuilt"),
    "pairs-oracle": Sweep(("verify", "6", "--mode", "pairs", "--engine", "oracle", "--jobs", "1"), cache="fresh"),
    "engines-dvir": Sweep(("verify", "6", "--mode", "engines", "--jobs", "1")),
    "skew-sweep": Sweep(("verify", "5", "--mode", "skew", "--jobs", "1")),
    "cold-kron": ColdKron(ns=(6, 7, 8), ceiling=14),
}


@pytest.fixture(scope="module")
def small_goldens():
    sweeps = {}
    for spec in SMALL.values():
        if isinstance(spec, Sweep):
            child = workloads.spawn({"argv": list(spec.argv)})
            assert child.rc == 0
            sweeps[workloads.sweep_key(spec.argv)] = child.stdout
    return {"sweeps": sweeps, "cold-kron": {"seed": 0, "ns": [6, 7, 8], "queries": []}}


def _run(name, goldens, tmp, trace=False, seed=1):
    tmp.mkdir(exist_ok=True)
    return Run(SMALL[name], seed, 0.1, trace, tmp, goldens).execute()


def test_metric_names_are_well_formed():
    end_units, layer_units = run.metric_units()
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    names = list(end_units) + list(layer_units) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    computed = set(tracer.layer_metrics({})) | {"trace.overhead_ratio"}
    assert computed == set(layer_units)


def test_end_to_end_names_match(small_goldens, tmp_path):
    tally = _run("skew-sweep", small_goldens, tmp_path)
    end_units, _ = run.metric_units()
    metrics = run.end_to_end(tally)
    assert set(metrics) == set(end_units)
    assert all(v > 0 for v in metrics.values())
    assert tally.failed == 0 and tally.attempted > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name, small_goldens, tmp_path):
    first = run.per_layer(_run(name, small_goldens, tmp_path / "a", trace=True))
    second = run.per_layer(_run(name, small_goldens, tmp_path / "b", trace=True))
    counts = [k for k in first if not k.endswith("_s") and k != "trace.overhead_ratio"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_traced_layers_see_their_workload(small_goldens, tmp_path):
    cached = run.per_layer(_run("pairs-cached", small_goldens, tmp_path, trace=True))
    assert cached["cache.hit_ratio"] == 1.0 and cached["cache.records_loaded"] > 0
    fresh = run.per_layer(_run("pairs-oracle", small_goldens, tmp_path, trace=True))
    assert fresh["cache.hit_ratio"] == 0.0 and fresh["cache.bytes_written"] > 0
    cold = run.per_layer(_run("cold-kron", small_goldens, tmp_path, trace=True))
    assert cold["characters.table_builds"] == 3


def test_wrong_sweep_golden_counts_as_failure(small_goldens, tmp_path):
    key = workloads.sweep_key(SMALL["skew-sweep"].argv)
    wrong = json.loads(json.dumps(small_goldens))
    wrong["sweeps"][key] = wrong["sweeps"][key].replace("engine=auto", "engine=oracle")
    tally = _run("skew-sweep", wrong, tmp_path)
    assert tally.attempted > 0
    assert tally.failed == tally.attempted
    assert run.end_to_end(tally)["run_s"] > 0


def test_wrong_kron_golden_counts_as_failure(small_goldens, tmp_path):
    spec = SMALL["cold-kron"]
    lam, mu = next(workloads.cold_kron_queries(0, spec.ns))
    wrong = dict(small_goldens)
    wrong["cold-kron"] = {"seed": 0, "ns": list(spec.ns), "queries": [{"lam": lam, "mu": mu, "stdout": "[1]\n"}]}
    tally = _run("cold-kron", wrong, tmp_path, seed=0)
    assert tally.failed == 1
    assert tally.attempted >= 3 * len(spec.ns)


def test_sweep_failures_counts_reported_mismatches():
    golden = "verify mode=pairs n=4 engine=auto\npairs_checked=15\nmismatches=0\n"
    two = "verify mode=pairs n=4 engine=auto\npairs_checked=15\nmismatch: 2,2 | 3,1 predicted=mf computed=not-mf\nmismatch: 4 | 4 predicted=mf computed=not-mf\nmismatches=2\n"
    assert workloads.sweep_failures(0, golden, golden) == 0
    assert workloads.sweep_failures(1, two, golden) == 2
    assert workloads.sweep_failures(0, two, golden) == 15
    assert workloads.sweep_failures(-1, "", golden) == 15
    assert workloads.sweep_failures(None, None, golden) == 15


def test_kron_check_uses_dimensions():
    assert workloads.hook_dimension((2, 2)) == 2
    assert workloads.hook_dimension((3, 2, 1)) == 16
    assert workloads.kron_ok(0, "[4] + [2,2] + [1^4]\n", "2,2", "2,2", None)
    assert not workloads.kron_ok(0, "[4] + [2,2]\n", "2,2", "2,2", None)
    assert not workloads.kron_ok(0, "[4] + 2[2,2]\n", "2,2", "2,2", None)
    assert not workloads.kron_ok(1, "[4] + [2,2] + [1^4]\n", "2,2", "2,2", None)
    assert not workloads.kron_ok(0, "garbage\n", "2,2", "2,2", None)


def test_cold_kron_generator_is_seeded():
    def take(seed):
        stream = workloads.cold_kron_queries(seed, (14, 15, 16))
        return [next(stream) for _ in range(30)]

    assert take(7) == take(7)
    assert take(7) != take(8)
    degrees = [sum(workloads.parse_part(lam)) for lam, _ in take(7)]
    for block in range(0, 30, 3):
        assert sorted(degrees[block:block + 3]) == [14, 15, 16]


def test_children_that_never_report_give_an_incorrect_result(small_goldens, tmp_path, monkeypatch):
    ok_metrics, ok_tally = run.measure(SMALL["skew-sweep"], 1, 0.1, False, tmp_path, small_goldens)
    dying = tmp_path / "dying_child.py"
    dying.write_text("import sys\nsys.exit(3)\n")
    monkeypatch.setattr(workloads, "CHILD", dying)
    for name in ("skew-sweep", "cold-kron"):
        metrics, tally = run.measure(SMALL[name], 1, 0.1, False, tmp_path, small_goldens)
        assert metrics is None
        assert tally.attempted > 0 and tally.failed == tally.attempted
    end_units, _ = run.metric_units()
    line = run.result_line([("cold-kron", None, tally), ("skew-sweep", ok_metrics, ok_tally)], end_units)
    assert line["correct"] is False
    assert line["failed"] == tally.attempted and line["attempted"] == tally.attempted + ok_tally.attempted
    assert set(line["metrics"]) == {f"skew-sweep.{m}" for m in end_units}


def test_scratch_dirs_of_dead_runs_are_removed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    dead = tmp_path / f"{run.TMP_PREFIX}999999999-x"
    live = tmp_path / f"{run.TMP_PREFIX}{run.os.getpid()}-y"
    for d in (dead, live):
        d.mkdir()
        (d / "cache.jsonl").write_text("{}\n")
    new = run.scratch_dir()
    assert not dead.exists() and live.exists() and new.is_dir()
