"""End-to-end runs of the command line interface via subprocess."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshape import cli


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "lshape.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,  # a refused request must not stall
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
    from lshape.tables import FunctionTable, save_set

    s = FunctionTable.from_indices(3, 2, [0, 4, 7])
    path = tmp_path / "s.set"
    save_set(str(path), s)
    lshape = json.loads(run_cli("count", "--set", str(path)).stdout)
    corner = json.loads(
        run_cli("count", "--set", str(path), "--pattern", "corner").stdout
    )
    assert lshape["result"]["exact_count"] is not None
    assert corner["config"]["pattern"] == "corner"


def test_count_density_zero_is_the_empty_set():
    res = json.loads(run_cli("count", "--p", "3", "--n", "1", "--density", "0").stdout)["result"]
    assert res["density"] == 0.0
    assert res["cardinality"] == res["exact_count"] == res["nontrivial_count"] == "0"


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


def test_extremal_heuristics_reach_p_11(capsys):
    # 14,641 points, the smallest modulus the paper's theorem covers
    assert cli.main("extremal --p 11 --n 2 --method greedy --seed 1".split()) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["verified_free"] is True
    assert res["cardinality"] == len(res["indices"]) == 2961


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
    import numpy as np

    from lshape.tables import FunctionTable, save_set

    s = FunctionTable(3, 2, np.zeros(9, dtype=bool))
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


def test_increment_set_file_names_its_p_and_n(tmp_path):
    # "config" echoes the unused defaults; "result" names the file's space
    path = tmp_path / "s5.set"
    path.write_text("p=5 m=2\n0\n6\n12\n")
    payload = json.loads(run_cli("increment", "--set", str(path)).stdout)
    assert (payload["result"]["p"], payload["result"]["n"]) == (5, 1)
    counted = json.loads(run_cli("count", "--set", str(path)).stdout)["result"]
    assert (counted["p"], counted["n"]) == (5, 1)


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


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_config_of_every_default_matches_the_bare_command(command, tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in cli.COMMANDS[command][2].items()))
    assert cli.main([command]) == 0
    bare = capsys.readouterr().out
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == bare


@pytest.mark.parametrize("name", sorted(cli.CHOICES))
def test_config_value_outside_its_choices_exits_two(name, tmp_path, capsys):
    command = next(c for c, (_, _, defaults) in cli.COMMANDS.items() if name in defaults)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name}=cube\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {name} must be one of {cli.CHOICES[name]}, got 'cube'"]


#: Valid and junk values of every ``count`` setting; p and n stay small,
#: so that each run takes milliseconds.
COUNT_VALID = {
    "p": ["3", "5"], "n": ["0", "1", "2", "3"], "seed": ["0", "7"], "pattern": ["lshape", "corner"],
    "example": ["", "dot", "random-phi", "coordinate"], "density": ["0", "0.5", "1"], "set": [""],
}
COUNT_JUNK = {
    "p": ["2", "4", "9", "x", "", "3.0"], "n": ["-1", "x"], "seed": ["-1", "x"], "pattern": ["", "cube"],
    "example": ["random_phi"], "density": ["nan", "-1", "inf", "x"], "set": ["missing.set"],
}
#: lines that change nothing
SKIPPED_LINE = st.sampled_from(["# comment", "", "  \t", "p=3  # trailing comment"])
#: junk values of known keys, unknown keys and lines without '='
BAD_LINE = st.one_of(
    st.sampled_from([f"{key}={value}" for key, values in COUNT_JUNK.items() for value in values]),
    st.sampled_from(["order=2", "kind=box", "P=3", "=3"]),
    st.text(alphabet="abp #\t01", min_size=1, max_size=10).filter(lambda t: t.split("#")[0].strip()),
)


@settings(deadline=None, max_examples=300)
@given(valid=st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in COUNT_VALID.items()}),
       skipped=st.lists(SKIPPED_LINE, max_size=2), bad=st.lists(BAD_LINE, max_size=2))
def test_count_config_fuzz_reports_or_refuses(tmp_path_factory, valid, skipped, bad):
    lines = skipped[:1] + [f"{key}={value}" for key, value in valid.items()] + skipped[1:] + bad
    cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["count", "--config", str(cfg)])
    if code == 0:
        assert json.loads(out.getvalue())["command"] == "count"
    else:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")


def test_exit_code_two_on_bad_input(tmp_path):
    missing = tmp_path / "nope.set"
    run_cli("count", "--set", str(missing), expect=2)
    run_cli("norm", "--order", "0", expect=2)
    run_cli("extremal", "--p", "3", "--n", "9", expect=2)


def test_odd_digit_set_is_refused_by_count_and_increment(tmp_path):
    # both commands read a set on Z_p^n x Z_p^n, so m = 3 digits has no n
    odd = tmp_path / "odd.set"
    odd.write_text("p=3 m=3\n0\n5\n")
    for command in ("count", "increment"):
        proc = run_cli(command, "--set", str(odd), expect=2)
        assert proc.stdout == ""
        assert proc.stderr == "error: need a set on a pair space (an even number of digits), got m = 3\n"


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
        # a huge digit count is refused before p^m is formed
        ("norm", "--m", "10000"),
        ("count", "--n", "100000000"),
        # a prime modulus past the cap is refused before trial division,
        # even where p^0 = 1 would fit
        ("count", "--p", "2305843009213693951", "--n", "0"),
        ("norm", "--p", "2305843009213693951", "--m", "0"),
        # the cube product average is refused by its cost estimate, which
        # counts x as well as the s differences
        ("verify", "--suite", "norms", "--p", "3", "--n", "9"),
        ("verify", "--suite", "norms", "--p", "3", "--n", "8"),
        # a non-indicator configuration average past 10^8 triples
        ("verify", "--suite", "control", "--p", "3", "--n", "6"),
        # the literal sum also pays for its 2^s corners per difference tuple
        ("norm", "--kind", "gowers", "--p", "3", "--m", "1", "--order", "12", "--definition-only"),
        # an empty structured set is refused before any move, by both commands
        ("pseudorandomize", "--p", "3", "--n", "2", "--d", "2", "--seed", "0"),
        ("increment", "--p", "3", "--n", "2", "--d", "2", "--seed", "0"),
        # no fiber codimension exceeds n; redrawing normals would never end
        ("pseudorandomize", "--p", "3", "--n", "2", "--d", "3"),
        ("increment", "--p", "3", "--n", "2", "--d", "3"),
        # numeric flags outside their range, which would give a plausible report
        ("count", "--p", "3", "--n", "1", "--density", "nan"),
        ("count", "--p", "3", "--n", "1", "--density", "-1"),
        ("count", "--p", "3", "--n", "1", "--density", "2"),
        # the hyperplane and coordinate examples have nothing to draw at n = 0
        ("count", "--example", "random-phi", "--n", "0"),
        ("count", "--example", "coordinate", "--n", "0"),
        ("extremal", "--method", "random", "--iterations", "-3"),
        ("extremal", "--method", "random", "--iterations", "0"),
        ("extremal", "--iterations", "-1"),
        ("verify", "--suite", "spectral", "--trials", "-1"),
        ("increment", "--max-steps", "-1"),
    ]
    for name, kind, bad in (("nan", "real", "nan 0.0"), ("inf", "real", "inf 0.0"),
                            ("imaginary", "real", "1.0 0.5"), ("half", "indicator", "0.5 0.0")):
        table = tmp_path / f"{name}.table"
        table.write_text(f"p=3 m=1 kind={kind}\n0.0 0.0\n{bad}\n1.0 0.0\n")
        cases.append(("norm", "--table", str(table)))
    # a valid table that is not an indicator is not a set
    real = tmp_path / "real.table"
    real.write_text("p=3 m=2 kind=real\n" + "1.0 0.0\n" * 9)
    cases += [("count", "--set", str(real)), ("increment", "--set", str(real))]
    # headers are checked before anything is allocated, and a table
    # holds exactly p^m values
    for command, flag, name, text in (
        ("count", "--set", "negative.set", "p=3 m=-1\n0\n"),
        ("norm", "--table", "negative.table", "p=3 m=-1 kind=real\n0.0 0.0\n"),
        ("norm", "--table", "extra.table", "p=3 m=1 kind=real\n" + "0.0 0.0\n" * 4),
        ("count", "--set", "huge.set", "p=3 m=40\n0\n"),
        ("count", "--set", "huger.set", "p=3 m=100000000\n0\n"),
        ("count", "--set", "huge-prime.set", "p=2305843009213693951 m=0\n"),
        # member indices outside [0, p^m), past int64 too
        ("count", "--set", "outside.set", "p=3 m=2\n9\n"),
        ("increment", "--set", "below.set", "p=3 m=2\n-1\n"),
        ("count", "--set", "overflow.set", "p=3 m=2\n100000000000000000000000\n"),
        # a header token without '=' and a value that is not a number
        ("count", "--set", "junk-header.set", "p=3 m=1 junk\n0\n"),
        ("count", "--set", "junk-member.set", "p=3 m=2\n0\n1,x\n"),
        ("norm", "--table", "junk-value.table", "p=3 m=1 kind=real\nx 0.0\n0.0 0.0\n0.0 0.0\n"),
    ):
        (tmp_path / name).write_text(text)
        cases.append((command, flag, str(tmp_path / name)))
    for command in ("pseudorandomize", "increment"):
        for flag, bad in (("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--tau", "0"), ("--tau", "inf")):
            cases.append((command, flag, bad))
    for args in cases:
        proc = run_cli(*args, expect=2)
        assert proc.stdout == "", args
        assert len(proc.stderr.splitlines()) == 1, (args, proc.stderr)
        assert proc.stderr.startswith("error: "), (args, proc.stderr)


def test_negative_digit_counts_name_the_value_given():
    # a count would otherwise be refused for the 2n digits of its pair
    # space, and the extremal search would fail with a traceback
    for args in (("count", "--p", "3", "--n", "-1"), ("count", "--example", "dot", "--p", "3", "--n", "-1"),
                 ("extremal", "--p", "3", "--n", "-1"), ("norm", "--m", "-1")):
        proc = run_cli(*args, expect=2)
        assert proc.stderr == f"error: {args[-2][2:]} must be nonnegative, got -1\n", (args, proc.stderr)


def test_exit_code_one_on_failed_assertion():
    # a candidate set that arrives holding configurations is bad input
    proc = run_cli(
        "increment", "--planted", "none", "--p", "3", "--n", "2",
        "--require-l-free", "--seed", "0",
        expect=2,
    )
    assert proc.stderr.splitlines() == ["error: the candidate set holds 2 nontrivial configurations"]


def test_broken_invariant_exits_three(monkeypatch, capsys):
    from lshape import increment

    def broken(*args):
        raise AssertionError("scored |T'| disagrees")

    monkeypatch.setattr(increment, "_check_winner", broken)
    assert cli.main("increment --planted row-bias --p 3 --n 2".split()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["internal error: scored |T'| disagrees"]


def test_failed_check_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "parseval_report", lambda f: {"relative_gap": 1.0})
    assert cli.main("verify --suite spectral --trials 1".split()) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_hold"] is False
    assert [c["id"] for c in report["checks"] if not c["holds"]] == ["parseval-identity"]


def test_closed_stdout_exits_one_without_traceback():
    # a reader that has gone away, like `lshape ... | head -5`, leaves a
    # pipe whose every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lshape.cli", "norm", "--p", "3", "--m", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""


def test_elapsed_goes_to_stderr_not_stdout():
    proc = run_cli("verify", "--suite", "trivial", "--trials", "1")
    assert "elapsed" not in proc.stdout
    assert "elapsed" in proc.stderr


# sha256 of each job's canonical report, recorded before the fiber-family
# fold; a refactor that keeps the reports must keep these
GOLDEN_REPORTS = {
    "count --example dot --p 3 --n 3": "911c9dfbe030ccd22220e6b2084ab097617d09ac494f813a81df436fe91c1475",
    "count --p 3 --n 3 --seed 1": "aea46f6af4d26b1db81cbdebb9610621720c9199c8e559c00f554d66bcfa4c3e",
    "count --p 3 --n 3 --seed 1 --pattern corner": "b3a18ba2cc72090af4e2d8efc1be9a0de4b2c5c30332a948790b49ec843d230a",
    "verify --suite all --p 3 --n 2": "ac16beafdac88e3d8b6181757f0bcad8ef33a5b9499296ab9404c31c92e0aab6",
    "extremal --p 3 --n 1": "a3f85c315ecee065f8a667546a8762de9f847565b4a1c85caa3641fec876b063",
    "pseudorandomize --p 3 --n 3 --d 1": "d3a68c57b875bfbf057fabccd93ca4e7ece1c9e420fe138d600efa0db1277e47",
    "pseudorandomize --p 3 --n 2 --d 2 --seed 3": "c9c4a2db732b2da2f70e212df9581ca41ae02fc4f9615a5e9576ee4da87ce069",
    "increment --planted row-bias --p 3 --n 3": "aabac49a4a1db0c307dadcfe777b26334933fecd1d3817d9b43d5aaf0115b785",
    "increment --planted line-bias --p 3 --n 3": "7516937b02d426b2fa9e5c466c6dbf68314d14f291049ce882078d8b98dab722",
    # three runs that reach offset alignment: the first gains and goes on
    "increment --p 3 --n 3 --d 1 --tau 0.5 --eps 0.3 --seed 0":
        "a7a413cd6a067ccf8f443265a830a163e462d08a9c4160b35d3d7e804e828af5",
    "increment --p 3 --n 2 --d 2 --tau 5 --eps 0.1 --seed 7":
        "80e39a7031d161b37c78706e41760cb6df84c8a62d4f28cfe0c3a842e81b7131",
    "increment --p 3 --n 2 --d 0 --tau 5 --seed 2": "bdd87a0440c296f0131ab1869c32591b7640ca002a8a01935474c2e152aeebed",
    # the seeded heuristics and the exhaustive optimum 15 at p=5, n=1
    "extremal --p 3 --n 2 --method greedy --seed 4": "d16afa788b3b1c010ec7a090193083e1dd31b6651bc426637b46808a1b6288cc",
    "extremal --p 3 --n 2 --method local --iterations 30 --seed 5":
        "5746fa25e331ea8894f659e5ddcafb31f4063012f78ff5db8d035e7e7f9be567",
    "extremal --p 5 --n 1 --method random --iterations 10 --seed 6":
        "05a7b055b0315fce8fb3810d99593916c41586530a9927cd802a674ba6a41fe1",
    "extremal --p 5 --n 1": "db859bf5b5c42b4ae466635d08419ec0910ae3c2d4ee7a334f6aead1dc104dae",
    # recorded before the U^2 search of pseudorandomize_u2 was batched: two
    # benchmark jobs, and the driver at p = 11
    "pseudorandomize --p 3 --n 5 --d 1 --seed 1003":
        "08e5c3d6cbd9ea9a1036802fc5de4db998f136d78a86173540953b1c06988b83",
    "pseudorandomize --p 5 --n 3 --d 1 --seed 1004":
        "6b1f75a8bb8d000678d5cf4820d3d7a661af47d5d9d406c8e3f13452ca0b7e23",
    "increment --p 11 --n 2 --d 1 --seed 1": "742e4601d5aa9dbf53646110cd8dd4568b518b45a9138beaf5916f9cfefea9eb",
    # recorded before the moves scored their candidates from line counts:
    # 15 skew-line candidates, the most of any job here
    "increment --p 11 --n 3 --d 1 --seed 1": "fafe855828fe6e75fd0629da1ffb4c56dc9b7d1ab600771beaf3d1175de5b5e6",
}


def _canonical(obj):
    """Floats rounded to 10 significant digits, so last-bit noise does not count."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def test_reports_match_recorded_digests(capsys):
    for job, digest in GOLDEN_REPORTS.items():
        assert cli.main(job.split()) == 0, job
        report = json.loads(capsys.readouterr().out)
        text = json.dumps(_canonical(report), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, job
