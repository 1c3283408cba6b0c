"""The benchmark's own tests: oracle, span arithmetic, smoke-size runs.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
import worker
import workloads
from workloads import Slot

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _frac(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_chain_verdicts_hand_cases():
    swap = _frac([[0, 1], [1, 0]])
    assert oracle.chain_verdicts(swap) == {
        "ergodic": True, "mixing": False, "irreducible": True,
        "primitive": False}
    four = _frac([[0, 1, 0, 1], ["1/2", 0, 0, 0], ["1/2", 0, 0, 0],
                  [0, 0, 1, 0]])
    assert oracle.chain_verdicts(four) == oracle.PRIMITIVE
    # two absorbing states and one transient state
    two = _frac([[1, 0, "1/2"], [0, 1, "1/2"], [0, 0, 0]])
    assert oracle.chain_verdicts(two) == dict.fromkeys(oracle.VERDICTS, False)
    # transient state feeding an aperiodic closed class
    leak = _frac([[1, 1], [0, 0]])
    assert oracle.chain_verdicts(leak) == {
        "ergodic": True, "mixing": True, "irreducible": False,
        "primitive": False}


@pytest.mark.parametrize("kind", ["random", "periodic", "transient",
                                  "transient-periodic", "multi"])
def test_chain_kinds_have_their_structure(kind):
    rng = np.random.default_rng(7)
    verdicts = oracle.chain_verdicts(workloads.chain_exact(rng, 6, kind))
    if kind == "periodic":
        assert verdicts["irreducible"] and not verdicts["mixing"]
    elif kind == "transient":
        assert verdicts["mixing"] and not verdicts["irreducible"]
    elif kind == "transient-periodic":
        assert verdicts["ergodic"] and not verdicts["mixing"]
    elif kind == "multi":
        assert not verdicts["ergodic"]


def test_check_flags_a_wrong_verdict():
    op = workloads.make_exact_chain(np.random.default_rng(3),
                                    Slot("periodic", 4))
    out = op.run()
    assert op.check(out) == []
    out["verdicts"][1]["mixing"] = not out["verdicts"][1]["mixing"]
    problems = op.check(out)
    assert len(problems) == 1 and problems[0].startswith("transpose: mixing")


def test_inputs_repeat_for_a_seed():
    wl = workloads.WORKLOADS["exact-chains"]
    a = workloads.chain_exact(np.random.default_rng([5, 0, 3]), 6, "multi")
    b = workloads.chain_exact(np.random.default_rng([5, 0, 3]), 6, "multi")
    assert a == b
    assert wl.op(5, 3).label == wl.op(6, 3).label


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("classify.classify", 0.0, 10.0, -1),
        _span("linalg.multiplicities", 1.0, 4.0, 0),
        _span("linalg.exact_rank", 2.0, 3.0, 1),
        _span("linalg.exact_matmul", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree)
    assert metrics["classify.classify.self_s"] == 3.0
    assert metrics["linalg.exact_rank.self_s"] == 1.0
    assert metrics["linalg.multiplicities.s"] == 3.0
    assert metrics["linalg.multiplicities.report_s"] == 3.0


def test_group_counts_outermost_spans_only():
    tree = [
        _span("cones.TensorCone.contains", 0.0, 2.0, -1),
        _span("cones.Polyhedral.contains", 0.5, 1.5, 0),
        _span("cones.Orthant.contains", 3.0, 4.0, -1),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["cones.query.calls"] == 2
    assert metrics["cones.query.s"] == 3.0


def test_tail_and_slots():
    assert run.tail([1.0] * 5) == (1.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    records = [{"slot": 0, "s": 1.0}, {"slot": 0, "s": 3.0},
               {"slot": 1, "s": 2.0}, {"slot": 0, "s": 9.0}]
    assert run.by_slot(records) == [[1.0, 3.0, 9.0], [2.0]]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        spans.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


# ---------------------------------------------------------------------------
# smoke-size runs
# ---------------------------------------------------------------------------

SMOKE = {
    "exact-chains": (("random", 4), ("periodic", 4), ("transient", 4),
                     ("transient-periodic", 4), ("multi", 4)),
    "float-spectra": (("random", 15), ("periodic", 15), ("kraus", 3)),
    "polyhedral-cones": (("dense", 4), ("sparse", 4), ("rotation", 3),
                         ("rotation-id", 3), ("tensor-dense", 9)),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_in_process(name):
    wl = dataclasses.replace(
        workloads.WORKLOADS[name],
        cycle=tuple(Slot(k, s) for k, s in SMOKE[name]))
    result = worker.measure(wl, seed=1, seconds=0.0, env=None)
    assert len(result["records"]) == len(wl.cycle)
    assert [r["failures"] for r in result["records"]] == [[]] * len(wl.cycle)


def test_smoke_cli(tmp_path):
    wl = workloads.get("cli-fixtures", ROOT, tmp_path, 1, 60.0)
    small = dataclasses.replace(wl, cycle=(
        Slot("classify:four_state_chain", 0), Slot("classify:kraus3", 0),
        Slot("power:cyclic32", 200), Slot("cesaro:cyclic32", 200),
        Slot("decouple:cyclic32_tensor", 200), Slot("graph:rational6", 0)))
    records = [worker.run_op(small.op(1, i)) for i in range(6)]
    assert [r["failures"] for r in records] == [[]] * 6
    env = run.child_env()
    assert worker.run_op(small.op(1, 0, env))["failures"] == []


def test_smoke_trace_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    wl = dataclasses.replace(
        workloads.WORKLOADS["polyhedral-cones"],
        cycle=(Slot("rotation", 3), Slot("dense", 4)))
    result = worker.trace(wl, 2, tmp_path / "spans.json")
    assert len(json.loads((tmp_path / "spans.json").read_text())) == \
        result["spans"]
    assert set(result["metrics"]) == set(spans.PER_LAYER)
    assert result["metrics"]["cones.Polyhedral.calls"] > 0
    assert all(not r["failures"] for r in result["records"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-chains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
