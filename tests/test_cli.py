import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conemix.cli import load_problem, main, problem_to_dict, report_to_dict
from conemix.classify import classify
from conemix.linalg import FLOAT, FLOAT_MODE, RATIONAL
from helpers import random_dense_stochastic, random_kraus_channel, \
    reference_kron_r2_pair

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_chain4_primitive(capsys):
    code, out, _ = run_cli(capsys, "classify",
                           str(FIXTURES / "four_state_chain.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["primitive"] is True
    assert doc["mode"] == "rational"
    assert isinstance(doc["hypothesis_flags"], list)


def test_classify_shear_not_ergodic(capsys):
    code, out, _ = run_cli(capsys, "classify", str(FIXTURES / "shear_2d.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ergodic"] is False
    assert doc["multiplicity_r"] == {"geometric": 1, "algebraic": 2}
    assert doc["pairing"] == 0.0
    # all four booleans present even when false
    for key in ("ergodic", "mixing", "irreducible", "primitive"):
        assert isinstance(doc[key], bool)


def test_classify_bad_stochastic_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"map": {"type": "stochastic", "data": [[1, 1], [0, 1]]}}))
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert "ColumnSumViolation" in err


def test_classify_negative_entry_exits_2(tmp_path, capsys):
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps(
        {"map": {"type": "stochastic",
                 "data": [["3/2", 0], ["-1/2", 1]]}}))
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert "NegativeEntry" in err


def test_classify_invalid_json_has_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\"map\": [,]}")
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_classify_nonpositive_map_exits_3(tmp_path, capsys):
    doc = {"cone": {"type": "orthant", "dim": 2},
           "map": {"type": "matrix", "data": [[1, -1], [0, 1]]}}
    path = tmp_path / "nonpos.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 3
    report = json.loads(out)  # report still emitted
    assert report["positivity"]["value"] == "no"


def test_classify_forced_float_mode(capsys):
    code, out, _ = run_cli(capsys, "classify",
                           str(FIXTURES / "four_state_chain.json"),
                           "--mode", "float")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "float"
    assert doc["primitive"] is True


def test_classify_json_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "classify",
                           str(FIXTURES / "triangular_mixing.json"),
                           "--json", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["mixing"] is True and doc["irreducible"] is False


def test_simulate_cesaro_shear_diverges(capsys):
    code, out, _ = run_cli(capsys, "simulate", str(FIXTURES / "shear_2d.json"),
                           "--init", "0,1", "--steps", "1000",
                           "--mode", "cesaro")
    assert code == 0
    assert out.splitlines()[-1].startswith("verdict=Diverged")


def test_simulate_power_converges_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    code, out, _ = run_cli(capsys, "simulate",
                           str(FIXTURES / "triangular_mixing.json"),
                           "--init", "1,0", "--steps", "200",
                           "--mode", "power", "--csv", str(csv_path))
    assert code == 0
    verdict_line = out.splitlines()[-1]
    assert verdict_line.startswith("verdict=Converged")
    assert "limit=" in verdict_line
    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().splitlines()
    assert lines[0] == "step,x0,x1"
    # rows hold the normalized power iterates at 17 significant digits
    v = np.array([1.0, 0.0])
    m = np.array([[2.0, 0.0], [1.0, 1.0]]) / 2.0
    for step, line in enumerate(lines[1:6]):
        fields = line.split(",")
        assert fields[0] == str(step)
        assert fields[1:] == [format(x, ".17g") for x in v]
        v = m @ v


def test_simulate_decouple_preset(capsys):
    code, out, _ = run_cli(capsys, "simulate",
                           str(FIXTURES / "shear_kron_pair.json"),
                           "--init", "uniform", "--steps", "50",
                           "--mode", "decouple",
                           "--decouple-tol", "1e-6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,distance"
    assert lines[-1].startswith("verdict=Converged")
    assert float(lines[1].split(",")[1]) < 1e-6


def test_simulate_rejects_outside_init(capsys):
    code, _, err = run_cli(capsys, "simulate", str(FIXTURES / "shear_2d.json"),
                           "--init=-1,0", "--steps", "10",
                           "--mode", "power")
    assert code == 2
    assert "not in the cone" in err


def test_simulate_normalization_vanishes_exit_4(tmp_path, capsys):
    doc = {"cone": {"type": "tensor",
                    "left": {"type": "orthant", "dim": 2},
                    "right": {"type": "orthant", "dim": 2}},
           "map": {"type": "matrix",
                   "data": [[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 0]]}}
    path = tmp_path / "vanish.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "simulate", str(path),
                           "--init", "0,0,0,1", "--steps", "5",
                           "--mode", "decouple")
    assert code == 4
    assert "vanished" in err


def test_graph_chain4(capsys):
    code, out, _ = run_cli(capsys, "graph",
                           str(FIXTURES / "four_state_chain.json"))
    assert code == 0
    assert "// strongly_connected: true" in out
    assert "// period: 1" in out
    for edge in ("0 -> 1;", "0 -> 2;", "1 -> 0;", "2 -> 3;", "3 -> 0;"):
        assert edge in out
    assert out.count("->") == 5


def test_graph_identity_not_connected(tmp_path, capsys):
    doc = {"map": {"type": "stochastic", "data": [[1, 0], [0, 1]]}}
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert "not strongly connected" in out
    assert out.count("->") == 2  # two self-loops


def test_graph_one_loopless_vertex_has_no_period(tmp_path, capsys):
    # one vertex is strongly connected, but without a cycle there is no
    # period
    doc = {"cone": {"type": "orthant", "dim": 1},
           "map": {"type": "matrix", "data": [[0]]}}
    path = tmp_path / "loopless.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert "// strongly_connected: true\n" in out
    assert "// period: undefined" in out
    assert "->" not in out


def test_graph_swap_period_2(capsys):
    code, out, _ = run_cli(capsys, "graph", str(FIXTURES / "swap_chain.json"))
    assert code == 0
    assert "// period: 2" in out


def test_graph_rejects_quantum(capsys):
    code, _, err = run_cli(capsys, "graph",
                           str(FIXTURES / "identity_qubit_channel.json"))
    assert code == 2
    assert "classical" in err


def test_classify_polyhedral_fixture(capsys):
    code, out, _ = run_cli(capsys, "classify",
                           str(FIXTURES / "wedge_squeeze.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["primitive"] is True
    assert doc["mode"] == "rational"


def test_reports_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "classify",
                               str(FIXTURES / "amplitude_damping_half.json"))
        assert code == 0
        doc = json.loads(out)
        doc.pop("timings")
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_problem_roundtrip_on_fixtures(tmp_path):
    for fixture in sorted(FIXTURES.glob("*.json")):
        dyn, mode = load_problem(str(fixture))
        doc = problem_to_dict(dyn, mode)
        path = tmp_path / fixture.name
        path.write_text(json.dumps(doc))
        dyn2, mode2 = load_problem(str(path))
        assert mode2.kind == mode.kind
        np.testing.assert_allclose(dyn2.matrix, dyn.matrix, atol=1e-15)
        assert (dyn2.exact is None) == (dyn.exact is None)
        if dyn.exact is not None:
            assert dyn2.exact == dyn.exact
        assert type(dyn2.cone) is type(dyn.cone)
        doc2 = problem_to_dict(dyn2, mode2)
        assert doc2 == doc


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONEMIX_TOL", "1e-6")
    dyn, mode = load_problem(str(FIXTURES / "shear_2d.json"))
    assert mode.eps_rank == 1e-6
    assert mode.eps_cluster == 1e-6
    assert mode.eps_interior == 1e-6
    monkeypatch.setenv("CONEMIX_TOL", "banana")
    code, _, err = run_cli(capsys, "classify", str(FIXTURES / "shear_2d.json"))
    assert code == 2
    assert "CONEMIX_TOL" in err


def test_file_tolerances_override_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CONEMIX_TOL", "1e-6")
    doc = {"cone": {"type": "orthant", "dim": 2},
           "map": {"type": "matrix", "data": [[1, 0], [0, 1]]},
           "tolerances": {"eps_rank": 1e-4}}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(doc))
    _, mode = load_problem(str(path))
    assert mode.eps_rank == 1e-4
    assert mode.eps_cluster == 1e-6


def test_rational_mode_rejects_float_literal(tmp_path, capsys):
    doc = {"cone": {"type": "orthant", "dim": 2},
           "map": {"type": "matrix", "data": [[0.5, 0.5], [0.5, 0.5]]},
           "mode": "rational"}
    path = tmp_path / "ratfloat.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "rational mode" in err


def test_mode_inference(tmp_path):
    floaty = {"cone": {"type": "orthant", "dim": 2},
              "map": {"type": "matrix", "data": [[0.5, 0.5], [0.5, 0.5]]}}
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps(floaty))
    dyn, mode = load_problem(str(path))
    assert mode.kind == "float"
    assert dyn.exact is None
    dyn, mode = load_problem(str(FIXTURES / "four_state_chain.json"))
    assert mode.kind == "rational"
    assert dyn.exact is not None


def test_report_to_dict_shape():
    dyn, mode = load_problem(str(FIXTURES / "swap_chain.json"))
    doc = report_to_dict(classify(dyn, mode), mode)
    assert set(doc) == {"tool", "mode", "r", "ergodic", "mixing",
                        "irreducible", "primitive", "dup", "positivity",
                        "multiplicity_r", "multiplicity_r2_kron",
                        "stationary", "dual_stationary", "pairing",
                        "gap_ratio", "criteria_fired", "hypothesis_flags",
                        "timings"}
    assert isinstance(doc["hypothesis_flags"], list)


def test_kron_pair_is_null_without_a_verified_radius(capsys):
    # only an exact radius has a pair on the Kronecker square; a float
    # report decides mixing from A's own peripheral spectrum
    code, out, _ = run_cli(capsys, "classify",
                           str(FIXTURES / "depolarizing_qubit.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "float" and doc["multiplicity_r2_kron"] is None
    kept = 0
    for path in sorted(FIXTURES.glob("*.json")):
        dyn, mode = load_problem(str(path))
        if dyn.integer is None or dyn.spectrum.r_exact is None:
            continue
        code, out, _ = run_cli(capsys, "classify", str(path))
        pair = reference_kron_r2_pair(dyn)
        assert json.loads(out)["multiplicity_r2_kron"] == {
            "geometric": pair.geometric, "algebraic": pair.algebraic}, path
        kept += 1
    assert kept == 8


NILPOTENT = {"cone": {"type": "orthant", "dim": 2},
             "map": {"type": "matrix", "data": [[0, 1], [0, 0]]}}
# the 6x6 shift conjugated by integer shears: exactly nilpotent, while
# LAPACK puts its float radius near 4e-3
DENSE_NILPOTENT = {"cone": {"type": "orthant", "dim": 6},
                   "map": {"type": "matrix", "data": [
                       [5, -7, 0, 4, -11, -8], [1, -4, 1, 1, 0, -1],
                       [2, -14, 9, -6, 13, 1], [2, -7, 2, 1, 0, -2],
                       [0, 4, -5, 6, -9, -2], [3, -10, 7, -6, 6, -2]]}}
IDENTITY_CHAIN = {"map": {"type": "stochastic", "data": [[1, 0], [0, 1]]}}
IDENTITY_2 = {"cone": {"type": "orthant", "dim": 2},
              "map": {"type": "matrix", "data": [[1, 0], [0, 1]]}}
# exact, but its float copy overflows
HUGE_DATA = {"cone": {"type": "orthant", "dim": 2},
             "map": {"type": "matrix", "data": [["1e400", 0], [0, 1]]}}
# its 25 product rays in dimension 9 give more (d-1)-subsets than the
# dual-ray enumeration takes
PENTAGON = {"type": "polyhedral", "generators": [
    [2, 2, 0], [2, 0, 2], [2, -2, 1], [2, -2, -1], [2, 0, -2]]}
# decimals a float rounds to infinity or to 0, whose exponent Fraction
# would expand into an integer of ten million digits, in map data,
# generators and unit, in both modes
DECIMAL_CASES = [
    (f"{where}-{value}-{mode}", dict(doc, mode=mode))
    for value in ("1e10000000", "-1e10000000", "1e-10000000")
    for mode in (RATIONAL, FLOAT)
    for where, doc in (
        ("data", dict(IDENTITY_2, map={"type": "matrix",
                                       "data": [[value, 0], [0, 1]]})),
        ("generators", dict(IDENTITY_2, cone={
            "type": "polyhedral", "generators": [[value, 0], [0, 1]]})),
        ("unit", dict(IDENTITY_2, unit=[value, 1])))]


@pytest.mark.parametrize("doc, command", [
    ({"cone": {"type": "orthant", "dim": "x"},
      "map": {"type": "matrix", "data": [[1, 0], [0, 1]]}}, "classify"),
    ({"cone": {"type": "psd", "hdim": 0},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    (dict(IDENTITY_CHAIN, tolerances={"eps_rank": "abc"}), "classify"),
    (dict(IDENTITY_CHAIN, tolerances={"eps_rank": -1}), "classify"),
    (NILPOTENT, "simulate"),
    (DENSE_NILPOTENT, "simulate"),
    ({"cone": {"type": "orthant", "dim": 2.7},
      "map": {"type": "matrix", "data": [[1, 0], [0, 1]]}}, "classify"),
    ({"cone": {"type": "orthant", "dim": True},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    ({"cone": {"type": "psd", "hdim": 1.5},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    ({"cone": {"type": "orthant", "dim": 2}, "mode": "float",
      "map": {"type": "matrix", "data": [[-24, -64], [9, 24]]}}, "simulate"),
    (dict(DENSE_NILPOTENT, mode="float"), "simulate"),
    ({"cone": {"type": "orthant", "dim": 10 ** 12},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    ({"cone": {"type": "psd", "hdim": 10 ** 6},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    ({"cone": {"type": "tensor", "left": PENTAGON, "right": PENTAGON},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    (dict(IDENTITY_2, unit=3), "classify"),
    ({"cone": {"type": "polyhedral", "generators": [1, 2]},
      "map": {"type": "matrix", "data": [[1]]}}, "classify"),
    (HUGE_DATA, "classify"),
    (dict(HUGE_DATA, mode="float"), "classify"),
    ({"cone": {"type": "polyhedral", "generators": [["1e400", 0], [0, 1]]},
      "map": {"type": "matrix", "data": [[1, 0], [0, 1]]}}, "classify"),
    (dict(IDENTITY_2, unit=["1e400", 1]), "classify"),
    ({"map": {"type": "kraus", "ops": [{"re": [[10 ** 400, 0], [0, 1]]}]}},
     "classify"),
    # deep enough to overflow a recursive scan for float literals
    (dict(IDENTITY_2, map={"type": "matrix",
                           "data": json.loads("[" * 600 + "]" * 600)}),
     "classify"),
    # --init components are read like problem-file scalars
    (IDENTITY_CHAIN, "simulate --init 1e400,1"),
    (IDENTITY_CHAIN, "simulate --init 1e10000000,1"),
] + [(doc, "classify") for _, doc in DECIMAL_CASES],
    ids=["orthant-dim-x", "psd-hdim-0", "tolerance-abc", "tolerance-negative",
         "simulate-nilpotent", "simulate-dense-nilpotent", "orthant-dim-2.7",
         "orthant-dim-true", "psd-hdim-1.5", "simulate-nilpotent-float",
         "simulate-dense-nilpotent-float", "orthant-dim-1e12",
         "psd-hdim-1e6", "pentagon(x)pentagon", "unit-3", "generators-flat",
         "data-1e400", "data-1e400-float", "generators-1e400", "unit-1e400",
         "kraus-re-10**400", "data-nested-600", "init-1e400",
         "init-1e10000000"]
    + [name for name, _ in DECIMAL_CASES])
def test_malformed_input_exits_2(tmp_path, capsys, doc, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    command, *options = command.split()
    argv = [command, str(path)] + options
    if command == "simulate":
        argv += ([] if options else ["--init", "uniform"]) + \
            ["--steps", "300"]
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0  # refused up front
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "[" * 5000 + "]" * 5000,
    '{"map": {"type": "matrix", "data": [[' + "1" * 5000 + "]]}}",
], ids=["nested-past-the-stack", "integer-past-the-digit-limit"])
def test_unreadable_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "problem.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "unreadable JSON" in err


def test_oversized_polyhedral_tensor_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "cone": {"type": "tensor",
                 "left": {"type": "polyhedral",
                          "generators": [[1, 0, 0], [1, 1, 0], [1, 0, 1]]},
                 "right": {"type": "orthant", "dim": 1000}},
        "map": {"type": "matrix", "data": [[1]]}}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error: cone: tensor cone of dimension 3000")


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, conemix.cli; "
             "print('scipy.optimize' in sys.modules, "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False []"


def test_one_by_one_negative_map_reports_not_primitive(tmp_path, capsys):
    # its digraph has no cycles, so the period is undefined
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"cone": {"type": "orthant", "dim": 1},
                                "map": {"type": "matrix", "data": [[-1]]}}))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert "Traceback" not in err
    assert json.loads(out)["primitive"] is False


def test_classify_loads_no_scipy(tmp_path):
    # classify of a float chain and of a Kraus channel, run through the
    # CLI entry point, must not pull in scipy (it costs more to import
    # than a whole classify of either)
    rng = np.random.default_rng(75)
    paths = []
    for name, dyn in (("chain", random_dense_stochastic(rng, 6)),
                      ("channel", random_kraus_channel(rng, 2, 3))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem_to_dict(dyn, FLOAT_MODE)))
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import contextlib, io, sys; from conemix.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [main(['classify', p]) for p in {paths!r}]\n"
             "print(codes, sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0] []"


def test_one_by_one_negative_map_flags(tmp_path, capsys):
    # r = 1 is not an eigenvalue of [[-1]], and no power of its pattern
    # [[0]] is positive, so the kron-digraph route agrees with aperiodic
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"cone": {"type": "orthant", "dim": 1},
                                "map": {"type": "matrix", "data": [[-1]]}}))
    for extra in ((), ("--mode", "float")):
        code, out, _ = run_cli(capsys, "classify", str(path), *extra)
        assert code == 3
        flags = json.loads(out)["hypothesis_flags"]
        assert "no-stationary-pair: spectral radius is not an eigenvalue" \
            in flags
        assert not any(f.startswith("route-disagreement:primitive")
                       for f in flags)
