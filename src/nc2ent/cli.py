"""Command-line surface: state-set ingestion, conversion runs, entanglement
sweep data, mode-splitting Monte-Carlo, witness pipelines, and the
verification suites.

File formats (all versioned with a "schema": 1 field):
  state set   JSON {"schema": 1, "dimension": D, "states": [[[re, im], ...], ...],
                    "labels": [...]?}
  symmetric   JSON {"schema": 1, "K": k, "N": n, "amplitudes": [[re, im], ...]}
  sweep       CSV with header theta,mu,epsilon,ebits
  run traces  JSON lines, one object per protocol run
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import Counter

import click
import numpy as np

from . import conversion, gcnot, linalg, modesplit, symmetric, witness
from .verify import SUITES, TOLERANCES, run_suites

STATE_NORM_TOL = 1e-9
SWEEP_MAX_CELLS = 2**20  # largest (theta, mu) grid a sweep evaluates
SWEEP_BLOCK_CELLS = 2**15  # cells a sweep evaluates and writes at a time
FIELD_TYPES = {"dimension": int, "K": int, "N": int, "max_rounds": int, "seed": int, "states": list,
               "amplitudes": list, "target": (str, list), "r": (int, float), "phase": (int, float),
               "t": (int, float, type(None))}  # JSON field -> the types json.load may give it


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).reshape(-1)]


def _pairs_to_array(pairs) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or strings and objects in them
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.isfinite(arr).all():
        raise ValueError("amplitudes must be a list of finite [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _read_json(path: str, *keys: str) -> dict:
    """Parse a JSON object from a file, naming the file when the text is not
    JSON, when one of the required keys is missing, or when a known field
    (FIELD_TYPES) has the wrong type."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise click.ClickException(f"{path}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise click.ClickException(f"{path}: missing key {key!r}")
    for key, value in doc.items():
        if key in FIELD_TYPES and (isinstance(value, bool) or not isinstance(value, FIELD_TYPES[key])):
            raise ValueError(f"{path}: key {key!r} has the wrong type ({type(value).__name__})")
    return doc


def load_state_set(path: str, normalize: bool = False) -> conversion.ClassicalSet:
    """Read a classical state set from a JSON state-set file."""
    doc = _read_json(path, "dimension", "states")
    dim = doc["dimension"]
    if dim < 1:
        raise click.ClickException(f"{path}: key 'dimension' must be a positive integer, got {dim}")
    states = []
    for i, row in enumerate(doc["states"]):
        vec = _pairs_to_array(row)
        if vec.size != dim:
            raise click.ClickException(f"state {i} has {vec.size} entries, expected {dim}")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > STATE_NORM_TOL and not normalize:
            raise click.ClickException(
                f"state {i} has norm {norm!r}; pass --normalize to accept unnormalized input"
            )
        states.append(linalg.StateVector.normalized(vec))
    return conversion.ClassicalSet(states=tuple(states))


def _parse_vector(text: str, dim: int) -> linalg.StateVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise click.ClickException(f"expected {dim} comma-separated amplitudes, got {len(parts)}")
    return linalg.StateVector.normalized(np.array([complex(p) for p in parts], dtype=complex))


def _parse_range(text: str) -> tuple[float, float, int]:
    """(A, B, n) of a range A:B:n, for np.linspace."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise click.ClickException(f"range must look like A:B:n, got {text!r}")
    if count < 1 or hi < lo:
        raise click.ClickException(f"empty or inverted range {text!r}")
    if not math.isfinite(hi - lo):  # a NaN or infinite bound, or a width that overflows
        raise click.ClickException(f"range {text!r} needs finite bounds a finite distance apart")
    return lo, hi, count


def _dump_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


class _Main(click.Group):
    """The one error boundary: a bad option value or a ValueError from the
    library ends the command with a one-line error, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.BadParameter as exc:
            exc.ctx = None  # without a context, click prints only the error line
            raise
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Convert single-system non-classicality into bipartite entanglement."""


@main.command("convert")
@click.option("--states", "states_path", required=True, type=click.Path(exists=True),
              help="JSON state-set file with the classical states.")
@click.option("--epsilon", type=float, default=None,
              help="Splitting parameter; defaults to half the feasible range.")
@click.option("--input", "input_text", default=None, help="Input amplitudes, comma separated.")
@click.option("--input-file", type=click.Path(exists=True), default=None,
              help="JSON state-set file whose first state is the input.")
@click.option("--normalize", is_flag=True, help="Accept and normalize unnormalized states.")
@click.option("--out", type=click.Path(), default=None, help="Write the JSON report here.")
def cmd_convert(states_path, epsilon, input_text, input_file, normalize, out):
    """Convert one input state and report its classical rank, Schmidt data,
    and entanglement entropy."""
    cs = load_state_set(states_path, normalize=normalize)
    if (input_text is None) == (input_file is None):
        raise click.ClickException("provide exactly one of --input or --input-file")
    if input_text is not None:
        psi = _parse_vector(input_text, cs.dim)
    else:
        rows = _read_json(input_file, "states")["states"]
        if not rows:
            raise click.ClickException(f"{input_file}: no states")
        psi = linalg.StateVector.normalized(_pairs_to_array(rows[0]))
    if epsilon is None:
        epsilon = conversion.default_epsilon(cs)
    split = conversion.make_split(cs, epsilon)
    output = conversion.build_conversion(cs, split).convert(psi)
    sd = linalg.schmidt_decompose(output, cs.dim, cs.dim)
    _dump_json({
        "schema": 1,
        "command": "convert",
        "dimension": cs.dim,
        "epsilon": epsilon,
        "classical_rank": conversion.classical_rank(psi, cs),
        "schmidt_rank": sd.rank,
        "schmidt_coefficients": [float(c) for c in sd.coefficients],
        "entanglement_entropy_ebits": linalg.entanglement_entropy(sd),
        "output_amplitudes": _complex_pairs(output.amplitudes),
    }, out)


@main.command("sweep")
@click.option("--theta-range", default=f"{math.pi/2}:{math.pi - 0.01}:64", show_default=True,
              help="theta grid as A:B:n.")
@click.option("--mu-range", default="0.02:1.0:64", show_default=True,
              help="mu = 1/(1+eps) grid as A:B:n.")
@click.option("--input", "input_bit", type=click.Choice(["0", "1"]), default="0", show_default=True)
@click.option("--degrees", is_flag=True, help="Interpret the theta range in degrees.")
@click.option("--out", type=click.Path(), required=True, help="CSV output path.")
def cmd_sweep(theta_range, mu_range, input_bit, degrees, out):
    """Emit the output-entanglement surface over a (theta, mu) grid as CSV."""
    theta_spec, mu_spec = _parse_range(theta_range), _parse_range(mu_range)
    if theta_spec[2] * mu_spec[2] > SWEEP_MAX_CELLS:  # decided before any grid is allocated
        raise click.ClickException(f"grid of {theta_spec[2]} x {mu_spec[2]} cells exceeds the cap of "
                                   f"{SWEEP_MAX_CELLS} cells")
    thetas, mus = np.linspace(*theta_spec), np.linspace(*mu_spec)
    if degrees:
        thetas = np.deg2rad(thetas)
    state = linalg.basis_state(2, int(input_bit))
    mu_in_range = mus[(mus > 0.0) & (mus <= 1.0)]
    if mu_in_range.size:  # refused as its column at the largest mu is, before the file is opened
        gcnot.sweep_surface(thetas, [mu_in_range.max()], state)
    written = skipped_cells = 0
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("theta,mu,epsilon,ebits\n")
        for block in _grid_blocks(thetas, mus, SWEEP_BLOCK_CELLS):
            rows, skipped = gcnot.sweep_surface(*block, state)
            fh.writelines(f"{row.theta!r},{row.mu!r},{row.epsilon!r},{row.ebits!r}\n" for row in rows)
            written, skipped_cells = written + len(rows), skipped_cells + len(skipped)
    click.echo(json.dumps({
        "schema": 1,
        "command": "sweep",
        "rows": written,
        "skipped_infeasible": skipped_cells,
    }, sort_keys=True))


def _grid_blocks(thetas: np.ndarray, mus: np.ndarray, cells: int):
    """The theta-major (theta, mu) grid as sub-grids of at most `cells` cells
    (whole mu rows, or slices of one row when a row is longer), in grid order."""
    per_block = max(cells // mus.size, 1)
    mu_slices = [mus[i:i + cells] for i in range(0, mus.size, cells)]
    for start in range(0, thetas.size, per_block):
        for mu_slice in mu_slices:
            yield thetas[start:start + per_block], mu_slice


@main.command("modesplit")
@click.option("--levels", "-K", "k", type=int, default=2, show_default=True,
              help="Internal levels per particle.")
@click.option("--particles", "-N", "n", type=int, default=2, show_default=True,
              help="Total particle number.")
@click.option("--target", default="1:1", show_default=True, help="Target sector NX:NY.")
@click.option("--r", "r_mag", type=float, default=1.0 / math.sqrt(2.0), show_default=True,
              help="Tunneling reflection magnitude (r real by convention).")
@click.option("--t", "t_mag", type=float, default=None,
              help="Transmission amplitude before the phase; |t| = sqrt(1 - r^2) when omitted.")
@click.option("--phase", type=float, default=0.0, show_default=True,
              help="Phase of the transmission amplitude t.")
@click.option("--runs", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--max-rounds", type=int, default=1, show_default=True,
              help="Rounds per run before giving up (1 = single-shot statistics).")
@click.option("--seed", type=click.IntRange(min=0), envvar="NC2ENT_SEED", default=0, show_default=True)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None,
              help="JSON protocol config; its fields override the flags above.")
@click.option("--input-file", type=click.Path(exists=True), default=None,
              help="JSON symmetric-state file; default is the coherent state of the identity.")
@click.option("--out", type=click.Path(), required=True, help="JSONL trace output path.")
def cmd_modesplit(k, n, target, r_mag, t_mag, phase, runs, max_rounds, seed, config_file,
                  input_file, out):
    """Monte-Carlo the tunnel-count-repeat protocol and summarize success
    statistics and post-selected fidelities, next to the exact success
    probability of each round and the entanglement entropy of the split input."""
    if config_file is not None:
        cfg_doc = _read_json(config_file)
        r_mag = float(cfg_doc.get("r", r_mag))
        t_mag = cfg_doc.get("t", t_mag)
        phase = float(cfg_doc.get("phase", phase))
        target = cfg_doc.get("target", target)
        if isinstance(target, list):
            target = ":".join(str(p) for p in target)
        max_rounds = cfg_doc.get("max_rounds", max_rounds)
        seed = cfg_doc.get("seed", seed)
        if seed < 0:
            raise click.ClickException(f"{config_file}: key 'seed' must be a nonnegative integer, got {seed}")
    try:
        n_x, n_y = (int(p) for p in target.split(":"))
    except ValueError:
        raise click.ClickException(f"target must look like NX:NY, got {target!r}")
    if input_file is not None:
        doc = _read_json(input_file, "K", "N", "amplitudes")
        if (doc["K"], doc["N"]) != (k, n):
            raise click.ClickException("input file sector does not match --levels/--particles")
        state = symmetric.SymmetricState.normalized(k, n, _pairs_to_array(doc["amplitudes"]))
    else:
        state = symmetric.coherent_state(symmetric.SuUnitary(np.eye(k)), n)
    cfg_fields = dict(target=(n_x, n_y), max_rounds=max_rounds)  # a given t is served as t e^{i phase}
    base_cfg = (modesplit.ProtocolConfig.from_magnitudes(r_mag, phase, **cfg_fields) if t_mag is None else
                modesplit.ProtocolConfig(r=complex(r_mag), t=t_mag * modesplit._phase_factor(phase), **cfg_fields))

    successes = 0
    total_rounds = 0
    min_fidelity = None
    traces = []  # written only once every run has finished, so a rejected job keeps an old file
    outcomes_by_round: list[Counter] = []
    seq = np.random.SeedSequence(seed)
    for run, child in enumerate(seq.spawn(runs)):
        cfg = dataclasses.replace(base_cfg, seed=int(child.generate_state(1)[0]))
        res = modesplit.run_protocol(state, cfg)
        for round_no, (n_a, n_b) in enumerate(res.outcomes):
            if round_no == len(outcomes_by_round):
                outcomes_by_round.append(Counter())
            outcomes_by_round[round_no][f"{n_a}:{n_b}"] += 1
        if res.succeeded:
            successes += 1
            total_rounds += res.rounds
            if min_fidelity is None or res.fidelity < min_fidelity:
                min_fidelity = res.fidelity
        traces.append(json.dumps({
            "run": run,
            "succeeded": res.succeeded,
            "rounds": res.rounds,
            "outcomes": [list(o) for o in res.outcomes],
            "probabilities": list(res.probabilities),
            "fidelity": res.fidelity,
        }, sort_keys=True) + "\n")
    by_round = modesplit.success_probability_by_round(base_cfg, n, len(outcomes_by_round))
    split = symmetric.apply_splitting(state, n_x, n_y).reshape(symmetric.dicke_dim(k, n_x), -1)
    split_entropy = linalg._ebits(np.linalg.svd(split, compute_uv=False))  # no Schmidt vectors: 12 MiB less at the cap
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(traces)
    expected = abs(modesplit.binomial_sector_amplitude(n, n_x, base_cfg.r, base_cfg.t)) ** 2
    click.echo(json.dumps({
        "schema": 1,
        "command": "modesplit",
        "runs": runs,
        "successes": successes,
        "success_rate": successes / runs if runs else None,
        "single_round_success_probability": expected,
        "mean_rounds_on_success": total_rounds / successes if successes else None,
        "min_fidelity_on_success": min_fidelity,
        "outcomes_by_round": outcomes_by_round,
        "success_probability_by_round": by_round,
        "split_entropy": split_entropy,
        "seed": seed,
    }, sort_keys=True))


@main.command("witness")
@click.option("--states", "states_path", required=True, type=click.Path(exists=True))
@click.option("--epsilon", type=float, default=None)
@click.option("--target-state", required=True,
              help="Input whose converted image defines the witness, comma separated.")
@click.option("--test-state", required=True, help="Input to test, comma separated.")
@click.option("--normalize", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_witness(states_path, epsilon, target_state, test_state, normalize, out):
    """Build a projector witness from a converted target state, compress it
    through the conversion isometry to a non-classicality witness, and
    evaluate it."""
    cs = load_state_set(states_path, normalize=normalize)
    if epsilon is None:
        epsilon = conversion.default_epsilon(cs)
    split = conversion.make_split(cs, epsilon, boundary_ok=True)
    conv = conversion.build_conversion(cs, split)
    phi = conv.convert(_parse_vector(target_state, cs.dim))
    w = witness.swap_style_witness(cs.dim, cs.dim, phi)
    w_tilde = witness.nonclassicality_witness(w, conv)
    psi = _parse_vector(test_state, cs.dim)
    value, detected = witness.detect(w_tilde, psi.projector())
    classical_values = [witness.detect(w_tilde, c.projector())[0] for c in cs.states]
    _dump_json({
        "schema": 1,
        "command": "witness",
        "epsilon": epsilon,
        "test_value": value,
        "detected_nonclassical": detected,
        "classical_values": classical_values,
        "min_classical_value": min(classical_values),
        "witness_dimension": w_tilde.dim,
        "witness_matrix": _complex_pairs(w_tilde.operator),
    }, out)


@main.command("verify")
@click.option("--suite", type=click.Choice(("all",) + SUITES), default="all", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), envvar="NC2ENT_SEED", default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=None,
              help="Override per-suite trial counts.")
@click.option("--out", type=click.Path(), default=None)
def cmd_verify(suite, seed, trials, out):
    """Run the self-check suites; exit code 0 iff every check passes."""
    names = SUITES if suite == "all" else (suite,)
    results = run_suites(names, seed=seed, trials=trials)
    checks = []
    for name, suite_checks in results.items():
        for check in suite_checks:
            entry = check.as_dict()
            entry["suite"] = name
            checks.append(entry)
            status = "PASS" if check.passed else "FAIL"
            click.echo(f"[{status}] {name}/{check.name}"
                       + (f" ({check.detail})" if check.detail else ""), err=True)
    all_passed = all(c["passed"] for c in checks)
    _dump_json({
        "schema": 1,
        "command": "verify",
        "seed": seed,
        "suites": list(names),
        "tolerances": TOLERANCES,
        "checks": checks,
        "passed": all_passed,
    }, out)
    if not all_passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
