import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from nc2ent.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_state_set(path, states, dim=None):
    doc = {
        "schema": 1,
        "dimension": dim if dim is not None else len(states[0]),
        "states": [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in states],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def gcnot_file(tmp_path, theta=math.pi / 2):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return write_state_set(tmp_path / "states.json", [[c, s], [c, -s]])


# -------------------------------------------------------------------- convert

def test_convert_reports_rank_two_for_computational_input(runner, tmp_path):
    states = gcnot_file(tmp_path)
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["convert", "--states", states, "--epsilon", "1.0",
                                  "--input", "1,0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["classical_rank"] == 2
    assert doc["schmidt_rank"] == 2
    assert doc["entanglement_entropy_ebits"] > 0.1


def test_convert_classical_input_rank_one(runner, tmp_path):
    theta = math.pi / 2
    states = gcnot_file(tmp_path, theta)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    result = runner.invoke(main, ["convert", "--states", states, "--epsilon", "1.0",
                                  "--input", f"{c},{s}"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["classical_rank"] == 1
    assert doc["schmidt_rank"] == 1
    assert doc["entanglement_entropy_ebits"] < 1e-10


def test_convert_rejects_dependent_set(runner, tmp_path):
    states = write_state_set(tmp_path / "dep.json", [[1.0, 0.0], [1.0, 0.0]])
    result = runner.invoke(main, ["convert", "--states", states, "--input", "1,0"])
    assert result.exit_code != 0
    assert "independent" in result.output


def test_convert_rejects_infeasible_epsilon(runner, tmp_path):
    states = gcnot_file(tmp_path, math.pi / 3)  # eps_max = 1
    result = runner.invoke(main, ["convert", "--states", states, "--epsilon", "5.0",
                                  "--input", "1,0"])
    assert result.exit_code != 0
    assert "infeasible" in result.output


def test_convert_rejects_unnormalized_without_flag(runner, tmp_path):
    states = write_state_set(tmp_path / "un.json", [[2.0, 0.0], [0.0, 1.0]])
    result = runner.invoke(main, ["convert", "--states", states, "--input", "1,0"])
    assert result.exit_code != 0
    ok = runner.invoke(main, ["convert", "--states", states, "--normalize", "--input", "1,0"])
    assert ok.exit_code == 0, ok.output


# ---------------------------------------------------------------------- sweep

def test_sweep_writes_csv_with_fixed_header(runner, tmp_path):
    out = tmp_path / "surface.csv"
    result = runner.invoke(main, ["sweep", "--theta-range", "1.6:3.0:8",
                                  "--mu-range", "0.1:1.0:8", "--input", "0",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,mu,epsilon,ebits"
    assert len(lines) > 8
    summary = json.loads(result.output)
    assert summary["rows"] + summary["skipped_infeasible"] == 64


def test_sweep_rejects_empty_range(runner, tmp_path):
    result = runner.invoke(main, ["sweep", "--theta-range", "2.0:1.0:4",
                                  "--out", str(tmp_path / "x.csv")])
    assert result.exit_code != 0


def test_sweep_deterministic_output(runner, tmp_path):
    args = ["sweep", "--theta-range", "1.6:2.8:6", "--mu-range", "0.2:1.0:6",
            "--input", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ modesplit

def test_modesplit_summary_and_traces(runner, tmp_path):
    out = tmp_path / "runs.jsonl"
    result = runner.invoke(main, ["modesplit", "-K", "2", "-N", "2", "--target", "1:1",
                                  "--runs", "200", "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["runs"] == 200
    p = summary["single_round_success_probability"]
    assert abs(p - 0.5) < 1e-12
    sigma = math.sqrt(p * (1 - p) / 200)
    assert abs(summary["success_rate"] - p) < 4 * sigma
    lines = out.read_text().splitlines()
    assert len(lines) == 200
    first = json.loads(lines[0])
    assert set(first) == {"run", "succeeded", "rounds", "outcomes", "probabilities", "fidelity"}


def test_modesplit_zero_runs_empty_summary(runner, tmp_path):
    out = tmp_path / "none.jsonl"
    result = runner.invoke(main, ["modesplit", "--runs", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["successes"] == 0 and summary["success_rate"] is None
    assert out.read_text() == ""


def test_modesplit_superposition_input_fidelity(runner, tmp_path):
    from nc2ent.symmetric import SymmetricState, coherent_state, haar_random_su

    u, v = haar_random_su(2, 1), haar_random_su(2, 2)
    amps = coherent_state(u, 3).amplitudes + coherent_state(v, 3).amplitudes
    psi = SymmetricState.normalized(2, 3, amps)
    doc = {"schema": 1, "K": 2, "N": 3,
           "amplitudes": [[float(z.real), float(z.imag)] for z in psi.amplitudes]}
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps(doc))
    out = tmp_path / "runs.jsonl"
    result = runner.invoke(main, ["modesplit", "-K", "2", "-N", "3", "--target", "2:1",
                                  "--runs", "50", "--max-rounds", "40", "--seed", "9",
                                  "--input-file", str(input_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["successes"] > 0
    assert summary["min_fidelity_on_success"] >= 1.0 - 1e-9


def test_modesplit_accepts_json_config(runner, tmp_path):
    cfg = {"r": 0.6, "t": 0.8, "target": [2, 1], "max_rounds": 30, "seed": 4}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "runs.jsonl"
    result = runner.invoke(main, ["modesplit", "-K", "2", "-N", "3", "--runs", "20",
                                  "--config", str(cfg_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["seed"] == 4
    trace = json.loads(out.read_text().splitlines()[0])
    assert "probabilities" in trace and len(trace["probabilities"]) == trace["rounds"]


def test_modesplit_rejects_degenerate_r(runner, tmp_path):
    result = runner.invoke(main, ["modesplit", "--r", "1.0",
                                  "--out", str(tmp_path / "x.jsonl")])
    assert result.exit_code != 0


def test_modesplit_deterministic_per_seed(runner, tmp_path):
    args = ["modesplit", "-K", "2", "-N", "2", "--target", "1:1", "--runs", "50",
            "--seed", "11"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ra = runner.invoke(main, args + ["--out", str(a)])
    rb = runner.invoke(main, args + ["--out", str(b)])
    assert ra.exit_code == 0 and rb.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert ra.output == rb.output


# -------------------------------------------------------------------- witness

def test_witness_pipeline(runner, tmp_path):
    states = gcnot_file(tmp_path)
    result = runner.invoke(main, ["witness", "--states", states, "--epsilon", "99",
                                  "--target-state", "1,0", "--test-state", "1,0"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["detected_nonclassical"] is True
    assert doc["test_value"] < -0.01
    assert doc["min_classical_value"] >= -1e-10


# ------------------------------------------------------------- input errors

def _witness_epsilon_beyond_range(tmp_path):
    states = gcnot_file(tmp_path, math.acos(0.28))  # eps_max = 1/0.28 - 1
    return ["witness", "--states", states, "--epsilon", "50",
            "--target-state", "1,0", "--test-state", "1,0"]


def _convert_input_dimension_mismatch(tmp_path):
    states = gcnot_file(tmp_path)
    three_dim = write_state_set(tmp_path / "input.json", [[1.0, 0.0, 0.0]])
    return ["convert", "--states", states, "--input-file", three_dim]


@pytest.mark.parametrize("make_args", [
    _witness_epsilon_beyond_range,
    _convert_input_dimension_mismatch,
])
def test_bad_input_gives_one_line_error(runner, tmp_path, make_args):
    result = runner.invoke(main, make_args(tmp_path))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "Traceback" not in result.output


# --------------------------------------------------------------------- verify

def test_verify_suite_passes(runner):
    result = runner.invoke(main, ["verify", "--suite", "discrete", "--seed", "3",
                                  "--trials", "5"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)  # PASS/FAIL status lines go to stderr
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_unknown_suite_rejected(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code != 0


def test_verify_env_seed(runner, monkeypatch):
    monkeypatch.setenv("NC2ENT_SEED", "17")
    result = runner.invoke(main, ["verify", "--suite", "discrete", "--trials", "3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["seed"] == 17
