"""End-to-end runs of the command line interface via subprocess."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "lshape.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip() == "0.1.0"


def test_norm_subcommand_json_and_determinism():
    a = run_cli("norm", "--p", "3", "--m", "2", "--order", "2", "--seed", "7")
    b = run_cli("norm", "--p", "3", "--m", "2", "--order", "2", "--seed", "7")
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["command"] == "norm"
    assert 0 <= payload["result"]["value"] <= 1.001
    fast = run_cli("norm", "--p", "3", "--m", "1", "--order", "2", "--seed", "1")
    slow = run_cli(
        "norm", "--p", "3", "--m", "1", "--order", "2", "--seed", "1", "--definition-only"
    )
    v1 = json.loads(fast.stdout)["result"]["value"]
    v2 = json.loads(slow.stdout)["result"]["value"]
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_norm_reads_table_file(tmp_path):
    import numpy as np

    from lshape.tables import FunctionTable, save_table

    rng = np.random.default_rng(5)
    f = FunctionTable(3, 2, rng.random(9) * np.exp(2j * np.pi * rng.random(9)))
    path = tmp_path / "f.table"
    save_table(str(path), f)
    proc = run_cli("norm", "--table", str(path), "--order", "2")
    payload = json.loads(proc.stdout)
    from lshape.norms import gowers_norm

    assert payload["result"]["value"] == pytest.approx(gowers_norm(f, 2).value, abs=1e-12)


def test_count_example_dot_frozen_values():
    proc = run_cli("count", "--example", "dot", "--p", "3", "--n", "3")
    payload = json.loads(proc.stdout)
    res = payload["result"]
    assert res["density"] == pytest.approx(261 / 729)
    assert res["cardinality"] == "261"
    assert res["exact_count"] == "1215"
    assert res["nontrivial_count"] == "954"
    assert res["exact_count"] == res["predicted_count"]


def test_count_set_file_and_corner(tmp_path):
    from lshape.tables import IndicatorSet, save_set

    s = IndicatorSet.from_indices(3, 2, [0, 4, 7])
    path = tmp_path / "s.set"
    save_set(str(path), s)
    lshape = json.loads(run_cli("count", "--set", str(path)).stdout)
    corner = json.loads(
        run_cli("count", "--set", str(path), "--pattern", "corner").stdout
    )
    assert lshape["result"]["exact_count"] is not None
    assert corner["config"]["pattern"] == "corner"


def test_verify_all_suites_green():
    proc = run_cli("verify", "--suite", "all", "--trials", "3", "--seed", "1")
    payload = json.loads(proc.stdout)
    assert payload["all_hold"] is True
    ids = {c["id"] for c in payload["checks"]}
    assert "parseval-identity" in ids
    assert "dot-obstruction-count" in ids
    for check in payload["checks"]:
        assert check["holds"] is True


def test_verify_single_suite_subsets_checks():
    full = json.loads(run_cli("verify", "--suite", "all", "--trials", "2").stdout)
    sub = json.loads(run_cli("verify", "--suite", "spectral", "--trials", "2").stdout)
    full_ids = {c["id"] for c in full["checks"]}
    sub_ids = {c["id"] for c in sub["checks"]}
    assert sub_ids < full_ids


def test_verify_determinism_byte_identical():
    a = run_cli("verify", "--suite", "norms", "--trials", "2", "--seed", "9")
    b = run_cli("verify", "--suite", "norms", "--trials", "2", "--seed", "9")
    assert a.stdout == b.stdout


def test_extremal_subcommand():
    proc = run_cli("extremal", "--p", "3", "--n", "1", "--method", "exhaustive")
    payload = json.loads(proc.stdout)
    assert payload["result"]["cardinality"] == 6
    assert payload["result"]["verified_free"] is True
    greedy = json.loads(
        run_cli("extremal", "--p", "3", "--n", "1", "--method", "greedy", "--seed", "2").stdout
    )
    assert greedy["result"]["verified_free"] is True


def test_pseudorandomize_subcommand():
    proc = run_cli(
        "pseudorandomize", "--p", "3", "--n", "2", "--d", "1",
        "--eps", "0.1", "--tau", "0.1", "--seed", "4",
    )
    payload = json.loads(proc.stdout)
    rep = payload["result"]
    assert rep["round_count"] <= 50000
    trace = rep["energy_trace"]
    assert all(b > a for a, b in zip(trace, trace[1:]))


def test_increment_driver_and_trajectory_file(tmp_path):
    traj = tmp_path / "steps.jsonl"
    proc = run_cli(
        "increment", "--planted", "row-bias", "--p", "3", "--n", "2",
        "--trajectory-file", str(traj),
    )
    payload = json.loads(proc.stdout)
    res = payload["result"]
    assert res["steps"] >= 1
    assert res["trajectory"][0]["action"] in ("fiber-mean", "skew-line")
    lines = traj.read_text().strip().splitlines()
    assert len(lines) == len(res["trajectory"])
    assert json.loads(lines[0])["step"] == 0


def test_increment_candidate_set_file(tmp_path):
    from lshape.tables import IndicatorSet, save_set

    s = IndicatorSet.empty(3, 2)
    path = tmp_path / "empty.set"
    save_set(str(path), s)
    traj = tmp_path / "t.jsonl"
    proc = run_cli(
        "increment", "--p", "3", "--n", "1", "--set", str(path),
        "--trajectory-file", str(traj),
    )
    payload = json.loads(proc.stdout)
    assert payload["result"]["halted_because"] == "candidate set is empty"
    assert traj.read_text() == ""


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nm=2\norder=3\nseed=11\n")
    from_cfg = json.loads(run_cli("norm", "--config", str(cfg)).stdout)
    assert from_cfg["config"]["order"] == 3
    overridden = json.loads(
        run_cli("norm", "--config", str(cfg), "--order", "2").stdout
    )
    assert overridden["config"]["order"] == 2
    assert from_cfg["config"]["seed"] == overridden["config"]["seed"] == 11


def test_exit_code_two_on_bad_input(tmp_path):
    missing = tmp_path / "nope.set"
    run_cli("count", "--set", str(missing), expect=2)
    run_cli("norm", "--order", "0", expect=2)
    run_cli("extremal", "--p", "3", "--n", "9", expect=2)


def test_bad_modulus_values_and_sizes_exit_two(tmp_path):
    odd_modulus = tmp_path / "p9.set"
    odd_modulus.write_text("p=9 m=2\n0\n")
    cases = [
        ("count", "--p", "4", "--n", "1"),
        ("count", "--p", "2", "--n", "1"),
        ("count", "--set", str(odd_modulus)),
        ("norm", "--p", "3", "--m", "30"),
        ("norm", "--p", "3", "--m", "-1"),
        ("count", "--p", "3", "--n", "15"),
    ]
    for bad in ("nan", "inf"):
        table = tmp_path / f"{bad}.table"
        table.write_text(f"p=3 m=1 kind=real\n0.0 0.0\n{bad} 0.0\n1.0 0.0\n")
        cases.append(("norm", "--table", str(table)))
    for args in cases:
        proc = run_cli(*args, expect=2)
        assert proc.stdout == "", args
        assert len(proc.stderr.splitlines()) == 1, (args, proc.stderr)
        assert proc.stderr.startswith("error: "), (args, proc.stderr)


def test_exit_code_one_on_failed_assertion():
    proc = run_cli(
        "increment", "--planted", "none", "--p", "3", "--n", "2",
        "--require-l-free", "--seed", "0",
        expect=1,
    )
    assert proc.returncode == 1


def test_elapsed_goes_to_stderr_not_stdout():
    proc = run_cli("verify", "--suite", "trivial", "--trials", "1")
    assert "elapsed" not in proc.stdout
    assert "elapsed" in proc.stderr
