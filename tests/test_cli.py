import json
import math
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from nc2ent import cli, conversion, modesplit
from nc2ent.cli import load_state_set, main
from nc2ent.conversion import default_epsilon
from nc2ent.gcnot import sweep_surface
from nc2ent.linalg import basis_state
from nc2ent.symmetric import SymmetricState, coherent_state, haar_random_su
from nc2ent.verify import run_suites


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


def qr_orthonormal_file(tmp_path, dim=3, seed=5):
    """An orthonormal set from a QR factorisation: its Gram is I to roundoff."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return write_state_set(tmp_path / "qr.json", list(q.T))


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


def test_convert_tiny_input_gives_the_same_report(runner, tmp_path):
    states = gcnot_file(tmp_path)
    reports = [runner.invoke(main, ["convert", "--states", states, "--input", text])
               for text in ("1,1", "1e-200,1e-200")]
    assert [r.exit_code for r in reports] == [0, 0], reports[1].output
    assert reports[1].output == reports[0].output


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


@pytest.mark.parametrize("epsilon", ["1e5", "1e6"])
def test_large_epsilon_on_an_orthonormal_set_is_accepted(runner, tmp_path, epsilon):
    states = qr_orthonormal_file(tmp_path)
    for args in (["convert", "--input", "1,1,1"],
                 ["witness", "--target-state", "1,1,1", "--test-state", "1,0,0"]):
        result = runner.invoke(main, args + ["--states", states, "--epsilon", epsilon])
        assert result.exit_code == 0, result.output


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


def test_sweep_in_degrees(runner, tmp_path):
    out = tmp_path / "deg.csv"
    result = runner.invoke(main, ["sweep", "--theta-range", "95:175:5", "--degrees", "--mu-range", "0.1:1:7",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows, _ = sweep_surface(np.deg2rad(np.linspace(95.0, 175.0, 5)), np.linspace(0.1, 1.0, 7), basis_state(2, 0))
    assert out.read_text().splitlines()[1:] == [f"{r.theta!r},{r.mu!r},{r.epsilon!r},{r.ebits!r}" for r in rows]


def test_sweep_deterministic_output(runner, tmp_path):
    args = ["sweep", "--theta-range", "1.6:2.8:6", "--mu-range", "0.2:1.0:6",
            "--input", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("block_cells", [1, 5, 13, 64, 2**15])
@pytest.mark.parametrize("mu_count", [1, 9, 40])
def test_sweep_in_blocks_writes_the_whole_grid_csv(runner, tmp_path, monkeypatch, block_cells, mu_count):
    # blocks of whole mu rows, or of slices of one row when a row exceeds the block
    thetas, mus = np.linspace(1.0, 2.0, 11), np.linspace(0.02, 1.0, mu_count)
    rows, skipped = sweep_surface(thetas, mus, basis_state(2, 0))
    monkeypatch.setattr(cli, "SWEEP_BLOCK_CELLS", block_cells)
    out = tmp_path / "blocks.csv"
    result = runner.invoke(main, ["sweep", "--theta-range", "1:2:11", "--mu-range", f"0.02:1:{mu_count}",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    expected = "".join(f"{r.theta!r},{r.mu!r},{r.epsilon!r},{r.ebits!r}\n" for r in rows)
    assert out.read_text() == "theta,mu,epsilon,ebits\n" + expected
    assert json.loads(result.output) == {"schema": 1, "command": "sweep", "rows": len(rows),
                                         "skipped_infeasible": len(skipped)}


@pytest.mark.parametrize("exists", [False, True])
def test_sweep_refused_in_a_late_block_writes_no_file(runner, tmp_path, monkeypatch, exists):
    # theta = 3.2 > pi, in the last block, is feasible at mu = 1
    monkeypatch.setattr(cli, "SWEEP_BLOCK_CELLS", 8)
    out = tmp_path / "refused.csv"
    if exists:
        out.write_text("earlier\n")
    result = runner.invoke(main, ["sweep", "--theta-range", "1:3.2:12", "--mu-range", "0.5:1:8",
                                  "--out", str(out)])
    assert result.exit_code != 0
    assert "theta must lie in (0, pi)" in result.output
    assert out.read_text() == "earlier\n" if exists else not out.exists()


THETA_LOWS = st.sampled_from([-1.0, 0.0, 1e-9, 1e-5, 1.0, 3.0, 3.14159, math.pi, 3.2])
MU_LOWS = st.sampled_from([-1.0, 0.0, 1e-9, 0.01, 0.5, 0.99, 1.0, 1.5])


@settings(max_examples=60, deadline=None)
@given(theta_lo=THETA_LOWS, theta_width=st.floats(0.0, 4.0), theta_count=st.integers(1, 9),
       mu_lo=MU_LOWS, mu_width=st.floats(0.0, 1.5), mu_count=st.integers(1, 9), block_cells=st.integers(1, 20))
def test_sweep_refuses_exactly_as_the_whole_grid_sweep_surface(theta_lo, theta_width, theta_count, mu_lo,
                                                                 mu_width, mu_count, block_cells):
    # one column at the largest mu decides; a refused grid writes no file
    theta_range = f"{theta_lo!r}:{theta_lo + theta_width!r}:{theta_count}"
    mu_range = f"{mu_lo!r}:{mu_lo + mu_width!r}:{mu_count}"
    thetas, mus = (np.linspace(*cli._parse_range(r)) for r in (theta_range, mu_range))
    try:
        rows, _ = sweep_surface(thetas, mus, basis_state(2, 0))
        refusal = None
    except ValueError as exc:
        refusal = str(exc)
    runner = CliRunner()
    with runner.isolated_filesystem(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "SWEEP_BLOCK_CELLS", block_cells)
        result = runner.invoke(main, ["sweep", "--theta-range", theta_range, "--mu-range", mu_range,
                                      "--out", "grid.csv"])
        if refusal is None:
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["rows"] == len(rows)
        else:
            assert result.exit_code != 0 and result.output == f"Error: {refusal}\n"
            assert not os.path.exists("grid.csv")


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


@pytest.mark.parametrize("flags, config, expected_t", [
    (["--t", "-0.8"], None, -0.8),
    (["--t", "0.8", "--phase", "0.5"], None, 0.8 * complex(math.cos(0.5), math.sin(0.5))),
    ([], {"r": 0.6, "t": -0.8, "phase": 0.5}, -0.8 * complex(math.cos(0.5), math.sin(0.5))),
    ([], None, 0.8),
])
def test_modesplit_serves_the_given_t(runner, tmp_path, monkeypatch, flags, config, expected_t):
    served = []
    run_protocol = modesplit.run_protocol

    def recording(state, cfg):
        served.append(cfg.t)
        return run_protocol(state, cfg)

    monkeypatch.setattr(modesplit, "run_protocol", recording)
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        flags = flags + ["--config", str(cfg_file)]
    result = runner.invoke(main, ["modesplit", "--r", "0.6", "--runs", "3",
                                  "--out", str(tmp_path / "x.jsonl")] + flags)
    assert result.exit_code == 0, result.output
    assert served == [expected_t] * 3


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


def test_modesplit_outcomes_by_round(runner, tmp_path):
    args = ["modesplit", "-K", "2", "-N", "3", "--target", "2:1", "--runs", "40",
            "--max-rounds", "6", "--seed", "3"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ra = runner.invoke(main, args + ["--out", str(a)])
    rb = runner.invoke(main, args + ["--out", str(b)])
    assert ra.exit_code == 0, ra.output
    assert ra.output == rb.output
    by_round = json.loads(ra.output)["outcomes_by_round"]
    assert sum(by_round[0].values()) == 40
    for counts in by_round:
        assert list(counts) == sorted(counts)
        assert all(key in ("3:0", "2:1", "1:2", "0:3") for key in counts)
    # a run reaches round i + 1 only if it missed the target in round i
    for before, after in zip(by_round, by_round[1:]):
        assert sum(after.values()) == sum(before.values()) - before.get("2:1", 0)
    traces = [json.loads(line) for line in a.read_text().splitlines()]
    assert sum(sum(c.values()) for c in by_round) == sum(t["rounds"] for t in traces)


def test_modesplit_explains_its_result(runner, tmp_path):
    # the exact success probability of every round reported, from the sector
    # chain, and the entropy of S psi at the target cut: 0 for a coherent input
    args = ["modesplit", "-K", "2", "-N", "3", "--target", "2:1", "--runs", "400", "--max-rounds", "5",
            "--seed", "3", "--out", str(tmp_path / "a.jsonl")]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    exact = summary["success_probability_by_round"]
    assert len(exact) == len(summary["outcomes_by_round"]) == 5
    assert abs(exact[0] - summary["single_round_success_probability"]) < 1e-15
    for counts, p in zip(summary["outcomes_by_round"], exact):
        assert abs(counts.get("2:1", 0) / 400 - p) < 4 * math.sqrt(p * (1 - p) / 400)
    assert summary["split_entropy"] == 0.0

    u, v = haar_random_su(2, 1), haar_random_su(2, 2)
    psi = SymmetricState.normalized(2, 3, coherent_state(u, 3).amplitudes + coherent_state(v, 3).amplitudes)
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps({"schema": 1, "K": 2, "N": 3,
                                      "amplitudes": [[z.real, z.imag] for z in psi.amplitudes.tolist()]}))
    superposed = runner.invoke(main, args + ["--input-file", str(input_file)])
    assert superposed.exit_code == 0, superposed.output
    doc = json.loads(superposed.output)
    assert doc["success_probability_by_round"] == exact  # the counting statistics ignore the input
    assert doc["split_entropy"] > 0.1


def test_modesplit_zero_runs_still_checks_the_target(runner, tmp_path):
    out = tmp_path / "none.jsonl"
    result = runner.invoke(main, ["modesplit", "-N", "2", "--target", "2:1", "--runs", "0", "--out", str(out)])
    assert result.exit_code != 0
    assert "target (2, 1) does not partition N=2" in result.output
    assert not out.exists()


def test_modesplit_runs_at_the_documented_cap(runner, tmp_path):
    # K=6, N=12: 1352078 two-mode amplitudes
    result = runner.invoke(main, ["modesplit", "-K", "6", "-N", "12", "--target", "6:6",
                                  "--runs", "1", "--max-rounds", "1",
                                  "--out", str(tmp_path / "x.jsonl")])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["runs"] == 1 and summary["successes"] in (0, 1)
    assert sum(summary["outcomes_by_round"][0].values()) == 1
    assert abs(summary["single_round_success_probability"] - math.comb(12, 6) / 2**12) < 1e-12


def test_modesplit_above_the_old_dimension_cap(runner, tmp_path):
    # K=6, N=8: 75582 two-mode amplitudes
    result = runner.invoke(main, ["modesplit", "-K", "6", "-N", "8", "--target", "4:4",
                                  "--runs", "5", "--max-rounds", "64",
                                  "--out", str(tmp_path / "x.jsonl")])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["successes"] > 0
    assert summary["min_fidelity_on_success"] >= 1.0 - 1e-9


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


def test_witness_defaults_to_half_the_feasible_range(runner, tmp_path):
    states = gcnot_file(tmp_path, math.acos(0.28))
    result = runner.invoke(main, ["witness", "--states", states, "--target-state", "1,0", "--test-state", "1,0"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["epsilon"] == default_epsilon(load_state_set(states))


# ------------------------------------------------------------- input errors

def _witness_epsilon_beyond_range(tmp_path):
    states = gcnot_file(tmp_path, math.acos(0.28))  # eps_max = 1/0.28 - 1
    return ["witness", "--states", states, "--epsilon", "50",
            "--target-state", "1,0", "--test-state", "1,0"]


def _witness_epsilon_past_the_psd_floor(tmp_path):
    # the pair's bound is 2.571428571428571; this eps gives lambda_min(G_e) = -5e-11
    states = write_state_set(tmp_path / "pair.json", [[0.8, 0.6], [0.8, -0.6]])
    return ["witness", "--states", states, "--epsilon", "2.5714285716071426",
            "--target-state", "1,0", "--test-state", "1,0"]


def _convert_input_dimension_mismatch(tmp_path):
    states = gcnot_file(tmp_path)
    three_dim = write_state_set(tmp_path / "input.json", [[1.0, 0.0, 0.0]])
    return ["convert", "--states", states, "--input-file", three_dim]


def _convert_states_without_states(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"schema": 1, "dimension": 2}))
    return ["convert", "--states", str(path), "--input", "1,0"]


def _convert_states_without_dimension(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"schema": 1, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    return ["convert", "--states", str(path), "--input", "1,0"]


def _convert_truncated_state_set(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"schema": 1, "dimension": 2, "states": [[[1, 0],')
    return ["convert", "--states", str(path), "--input", "1,0"]


def _convert_scalar_rows(tmp_path):
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps({"schema": 1, "dimension": 2, "states": [[1, 0], [0, 1]]}))
    return ["convert", "--states", str(path), "--input", "1,0"]


def _convert_input_file_without_states(tmp_path):
    states = gcnot_file(tmp_path)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"schema": 1, "dimension": 2}))
    return ["convert", "--states", states, "--input-file", str(path)]


def _convert_nan_input(tmp_path):
    return ["convert", "--states", gcnot_file(tmp_path), "--input", "nan,0"]


def _convert_nan_epsilon(tmp_path):
    return ["convert", "--states", gcnot_file(tmp_path), "--epsilon", "nan", "--input", "1,0"]


def _convert_infinite_epsilon_on_orthonormal_set(tmp_path):
    states = write_state_set(tmp_path / "orthonormal.json", [[1.0, 0.0], [0.0, 1.0]])
    return ["convert", "--states", states, "--epsilon", "inf", "--input", "1,0"]


def _convert_epsilon_beyond_an_orthonormal_range(tmp_path):
    states = qr_orthonormal_file(tmp_path)
    return ["convert", "--states", states, "--epsilon", "1e17", "--input", "1,0,0"]


def _convert_dimension_of_wrong_type(tmp_path):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"schema": 1, "dimension": [2],
                                "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    return ["convert", "--states", str(path), "--input", "1,0"]


def _convert_dimension_below_one(tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"schema": 1, "dimension": -1, "states": [[[1, 0]]]}))
    return ["convert", "--states", str(path), "--input", "1"]


def _convert_state_rows_of_objects(tmp_path):
    path = tmp_path / "objects.json"
    path.write_text(json.dumps({"schema": 1, "dimension": 2,
                                "states": [[{"re": 1}, {"re": 0}], [[0, 0], [1, 0]]]}))
    return ["convert", "--states", str(path), "--input", "1,0"]


def _modesplit_config_of_wrong_type(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r": [0.6], "target": [1, 1]}))
    return ["modesplit", "--config", str(path), "--out", str(tmp_path / "x.jsonl")]


def _modesplit_config_target_of_nested_lists(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"target": [1, [1]]}))
    return ["modesplit", "--config", str(path), "--out", str(tmp_path / "x.jsonl")]


def _modesplit_input_file_without_n(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"schema": 1, "K": 2, "amplitudes": [[1, 0], [0, 0], [0, 0]]}))
    return ["modesplit", "--input-file", str(path), "--out", str(tmp_path / "x.jsonl")]


def _modesplit_truncated_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"r": 0.6, "t":')
    return ["modesplit", "--config", str(path), "--out", str(tmp_path / "x.jsonl")]


def _modesplit_levels_beyond_cap(tmp_path):
    return ["modesplit", "-K", "7", "-N", "2", "--out", str(tmp_path / "x.jsonl")]


def _modesplit_target_not_partitioning_n(tmp_path):
    return ["modesplit", "-K", "2", "-N", "3", "--target", "2:2",
            "--out", str(tmp_path / "x.jsonl")]


def _modesplit_negative_runs(tmp_path):
    return ["modesplit", "--runs", "-1", "--out", str(tmp_path / "x.jsonl")]


def _modesplit_nan_r(tmp_path):
    return ["modesplit", "--r", "nan", "--runs", "2", "--out", str(tmp_path / "x.jsonl")]


def _modesplit_nan_phase(tmp_path):
    return ["modesplit", "--phase", "nan", "--runs", "2", "--out", str(tmp_path / "x.jsonl")]


def _modesplit_infinite_phase(tmp_path):
    return ["modesplit", "--phase", "inf", "--runs", "2", "--out", str(tmp_path / "x.jsonl")]


def _modesplit_nan_t(tmp_path):
    return ["modesplit", "--r", "0.6", "--t", "nan", "--runs", "2",
            "--out", str(tmp_path / "x.jsonl")]


def _modesplit_t_off_the_unit_circle(tmp_path):
    return ["modesplit", "--r", "0.6", "--t", "0.8000000001", "--runs", "2",
            "--out", str(tmp_path / "x.jsonl")]


def _modesplit_given_t_with_infinite_phase(tmp_path):
    return ["modesplit", "--r", "0.6", "--t", "0.8", "--phase", "inf", "--runs", "2",
            "--out", str(tmp_path / "x.jsonl")]


def _convert_states_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
    return ["convert", "--states", str(path), "--input", "1,0"]


def _convert_state_row_of_wrong_length(tmp_path):
    states = write_state_set(tmp_path / "long.json", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dim=2)
    return ["convert", "--states", states, "--input", "1,0"]


def _convert_wrong_input_count(tmp_path):
    return ["convert", "--states", gcnot_file(tmp_path), "--input", "1,0,0"]


def _convert_both_inputs(tmp_path):
    states = gcnot_file(tmp_path)
    return ["convert", "--states", states, "--input", "1,0", "--input-file", states]


def _convert_neither_input(tmp_path):
    return ["convert", "--states", gcnot_file(tmp_path)]


def _convert_empty_input_file(tmp_path):
    states = gcnot_file(tmp_path)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema": 1, "dimension": 2, "states": []}))
    return ["convert", "--states", states, "--input-file", str(path)]


def _modesplit_input_file_of_another_sector(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"schema": 1, "K": 2, "N": 3, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    return ["modesplit", "-K", "2", "-N", "2", "--input-file", str(path), "--out", str(tmp_path / "x.jsonl")]


def _sweep_malformed_range(tmp_path):
    return ["sweep", "--theta-range", "1:2", "--out", str(tmp_path / "s.csv")]


def _sweep_theta_axis_beyond_the_cap(tmp_path):
    return ["sweep", "--theta-range", "1:2:10000000000000", "--out", str(tmp_path / "s.csv")]


def _sweep_grid_beyond_the_cap(tmp_path):
    return ["sweep", "--theta-range", "1:2:3000000", "--mu-range", "0.5:1:1000", "--out", str(tmp_path / "s.csv")]


def _sweep_infinite_mu_bound(tmp_path):
    return ["sweep", "--theta-range", "1:2:3", "--mu-range", "0:inf:4", "--out", str(tmp_path / "s.csv")]


def _sweep_nan_theta_bound(tmp_path):
    return ["sweep", "--theta-range", "nan:2:3", "--out", str(tmp_path / "s.csv")]


def _sweep_range_wider_than_a_float(tmp_path):
    return ["sweep", "--mu-range", "-1e308:1e308:4", "--out", str(tmp_path / "s.csv")]


def _sweep_theta_range_through_zero(tmp_path):
    return ["sweep", "--theta-range", "0:3.2:4", "--out", str(tmp_path / "s.csv")]


def _verify_modesplit_zero_trials(tmp_path):
    return ["verify", "--suite", "modesplit", "--trials", "0"]


def _verify_negative_trials(tmp_path):
    return ["verify", "--trials", "-1"]


def _verify_discrete_zero_trials(tmp_path):
    return ["verify", "--suite", "discrete", "--trials", "0"]


def _modesplit_negative_seed(tmp_path):
    return ["modesplit", "--seed", "-1", "--runs", "2", "--out", str(tmp_path / "x.jsonl")]


def _modesplit_config_negative_seed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -1}))
    return ["modesplit", "--config", str(path), "--runs", "2", "--out", str(tmp_path / "x.jsonl")]


def _verify_negative_seed(tmp_path):
    return ["verify", "--suite", "discrete", "--seed", "-1"]


# the reason a row's error must give, where a bare one-line error once hid a wrong one
REASONS = {
    _convert_nan_epsilon: "epsilon must be finite, got nan",
    _convert_infinite_epsilon_on_orthonormal_set: "epsilon must be finite, got inf",
    _modesplit_infinite_phase: "phase of t must be finite, got inf",
    _convert_epsilon_beyond_an_orthonormal_range: "is infeasible",
    _witness_epsilon_past_the_psd_floor: "feasible range is eps <= 2.57142857143",
    _modesplit_t_off_the_unit_circle: "|r|^2 + |t|^2 must be 1",
    _modesplit_given_t_with_infinite_phase: "phase of t must be finite",
    _convert_states_not_an_object: "expected a JSON object",
    _convert_state_row_of_wrong_length: "state 0 has 3 entries, expected 2",
    _convert_dimension_below_one: "dims.json: key 'dimension' must be a positive integer, got -1",
    _convert_wrong_input_count: "expected 2 comma-separated amplitudes, got 3",
    _convert_both_inputs: "provide exactly one of --input or --input-file",
    _convert_neither_input: "provide exactly one of --input or --input-file",
    _convert_empty_input_file: "empty.json: no states",
    _modesplit_input_file_of_another_sector: "input file sector does not match --levels/--particles",
    _sweep_malformed_range: "range must look like A:B:n, got '1:2'",
    _sweep_theta_axis_beyond_the_cap: "grid of 10000000000000 x 64 cells exceeds the cap of 1048576 cells",
    _sweep_grid_beyond_the_cap: "grid of 3000000 x 1000 cells exceeds the cap of 1048576 cells",
    _sweep_infinite_mu_bound: "range '0:inf:4' needs finite bounds",
    _sweep_nan_theta_bound: "range 'nan:2:3' needs finite bounds",
    _sweep_range_wider_than_a_float: "a finite distance apart",
    _modesplit_negative_seed: "'--seed'",
    _modesplit_config_negative_seed: "cfg.json: key 'seed' must be a nonnegative integer, got -1",
    _verify_negative_seed: "'--seed'",
}
# text a row's error must not give: the rejection names the bound it was decided by
WRONG_REASONS = {
    _convert_epsilon_beyond_an_orthonormal_range: "eps < inf",
    _witness_epsilon_past_the_psd_floor: "not normalized",
}


@pytest.mark.parametrize("make_args", [
    _witness_epsilon_beyond_range,
    _witness_epsilon_past_the_psd_floor,
    _convert_input_dimension_mismatch,
    _convert_states_without_states,
    _convert_states_without_dimension,
    _convert_truncated_state_set,
    _convert_scalar_rows,
    _convert_input_file_without_states,
    _convert_nan_input,
    _convert_nan_epsilon,
    _convert_infinite_epsilon_on_orthonormal_set,
    _convert_epsilon_beyond_an_orthonormal_range,
    _convert_dimension_of_wrong_type,
    _convert_dimension_below_one,
    _convert_state_rows_of_objects,
    _modesplit_config_of_wrong_type,
    _modesplit_config_target_of_nested_lists,
    _modesplit_input_file_without_n,
    _modesplit_truncated_config,
    _modesplit_levels_beyond_cap,
    _modesplit_target_not_partitioning_n,
    _modesplit_negative_runs,
    _modesplit_nan_r,
    _modesplit_nan_phase,
    _modesplit_infinite_phase,
    _modesplit_nan_t,
    _modesplit_t_off_the_unit_circle,
    _modesplit_given_t_with_infinite_phase,
    _convert_states_not_an_object,
    _convert_state_row_of_wrong_length,
    _convert_wrong_input_count,
    _convert_both_inputs,
    _convert_neither_input,
    _convert_empty_input_file,
    _modesplit_input_file_of_another_sector,
    _sweep_malformed_range,
    _sweep_theta_axis_beyond_the_cap,
    _sweep_grid_beyond_the_cap,
    _sweep_infinite_mu_bound,
    _sweep_nan_theta_bound,
    _sweep_range_wider_than_a_float,
    _sweep_theta_range_through_zero,
    _verify_modesplit_zero_trials,
    _verify_negative_trials,
    _verify_discrete_zero_trials,
    _modesplit_negative_seed,
    _modesplit_config_negative_seed,
    _verify_negative_seed,
])
def test_bad_input_gives_one_line_error(runner, tmp_path, make_args):
    result = runner.invoke(main, make_args(tmp_path))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "Traceback" not in result.output
    assert REASONS.get(make_args, "") in lines[0]
    assert make_args not in WRONG_REASONS or WRONG_REASONS[make_args] not in lines[0]


def test_nan_input_error_names_the_amplitude(runner, tmp_path):
    result = runner.invoke(main, _convert_nan_input(tmp_path))
    assert result.exit_code != 0
    assert "non-finite amplitude (nan+0j)" in result.output


def test_modesplit_rejected_target_keeps_earlier_trace(runner, tmp_path):
    out = tmp_path / "x.jsonl"
    out.write_text('{"run": 0}\n')
    result = runner.invoke(main, ["modesplit", "-K", "2", "-N", "3", "--target", "2:2",
                                  "--out", str(out)])
    assert result.exit_code != 0
    assert out.read_text() == '{"run": 0}\n'


# --------------------------------------------------------------------- verify

def test_verify_suite_passes(runner):
    result = runner.invoke(main, ["verify", "--suite", "discrete", "--seed", "3",
                                  "--trials", "5"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)  # PASS/FAIL status lines go to stderr
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


VERIFY_CHECKS = {
    "discrete": "rank-equality gram-splitting unitarity mixture-negativity-D2 superposition-entropy-D2 "
                "mixture-negativity-D3 superposition-entropy-D3 mixture-negativity-D5 superposition-entropy-D5",
    "symmetric": "overlap-splitting isometry-coherent-action mixed-faithfulness",
    "modesplit": "sector-probabilities empirical-success-rate postselected-fidelity chain-transitions "
                 "multi-round-success-rate",
    "gcnot": "one-ebit-maxima mirror-symmetry unique-maximal-input cnot-control-two-maxima witness-chain "
             "witness-detects witness-classical-safe beamsplitter-point beamsplitter-identity",
}


def test_verify_all_is_deterministic_and_keeps_its_checks(runner):
    first, second = (runner.invoke(main, ["verify", "--suite", "all", "--seed", "0"]) for _ in range(2))
    assert first.exit_code == 0, first.output
    assert first.stdout == second.stdout
    checks = {(c["suite"], c["name"]) for c in json.loads(first.stdout)["checks"]}
    assert {(suite, name) for suite, names in VERIFY_CHECKS.items() for name in names.split()} <= checks


def test_verify_mixture_checks_name_the_route(monkeypatch):
    def details():
        checks = run_suites(["discrete"], seed=0)["discrete"]
        return [c.detail for c in checks if c.name.startswith("mixture-negativity-D")]

    certified = details()
    assert len(certified) == 3
    assert all(re.fullmatch(r"certificate β/s=\d\.\d\de-\d\d", d) for d in certified), certified
    monkeypatch.setattr(conversion, "_separability_bound", lambda *args: 1.0)  # a bound that never decides
    assert details() == ["cholesky"] * 3


def test_verify_unknown_suite_rejected(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code != 0


@pytest.mark.parametrize("trials", [0, -1])
def test_run_suites_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_suites(["discrete"], trials=trials)


def test_run_suites_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        run_suites(["discrete"], seed=-1)


def test_verify_env_seed(runner, monkeypatch):
    monkeypatch.setenv("NC2ENT_SEED", "17")
    result = runner.invoke(main, ["verify", "--suite", "discrete", "--trials", "3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["seed"] == 17
