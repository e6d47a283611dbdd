"""Command-line front end: exit codes, config precedence, reproducibility."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nbbmlab
from nbbmlab import cli


def run_cli(args, capsys):
    code = cli.run(args)
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


def test_simulate_time_zero_echoes_state(tmp_path, capsys):
    code, summary = run_cli(["simulate", "--n", "2", "--t", "0",
                             "--seed", "1", "--out", str(tmp_path / "s")],
                            capsys)
    assert code == 0
    assert summary["n"] == 2 and summary["t"] == 0.0
    assert summary["positions"] == [0.0, 0.0]
    assert (tmp_path / "s" / "trajectory.csv").exists()
    assert (tmp_path / "s" / "checkpoint.json").exists()


def test_unknown_flag_exits_two(capsys):
    assert cli.run(["simulate", "--frobnicate", "1"]) == 2
    assert cli.run(["nosuchcommand"]) == 2


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 128, "t": 0.0}))
    out = tmp_path / "o"
    code, summary = run_cli(["simulate", "--config", str(cfg),
                             "--n", "12", "--seed", "0", "--out", str(out)],
                            capsys)
    assert code == 0
    assert summary["n"] == 12  # flag wins over file
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["n"] == 12 and resolved["t"] == 0.0


def test_empty_config_gives_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "o"
    code, summary = run_cli(["simulate", "--config", str(cfg), "--t", "0",
                             "--out", str(out)], capsys)
    assert code == 0
    assert summary["n"] == 2  # default


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    cfg.write_text(json.dumps({"unknown_key": 1}))
    code, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    out = tmp_path / "o"
    for bad in ({"init": [0.0, 1.0]}, {"n": float("inf")}):
        cfg.write_text(json.dumps(bad))
        code, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(out)],
                          capsys)
        assert code == 2 and not out.exists()


def test_conflicting_scales_exit_two(tmp_path, capsys):
    code, summary = run_cli(["stationary", "--n", "4", "--burn-in", "50",
                             "--horizon", "40",
                             "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "horizon" in summary["error"]


def test_missing_output_dir_created(tmp_path, capsys):
    target = tmp_path / "deep" / "nested" / "dir"
    code, _ = run_cli(["simulate", "--n", "2", "--t", "0",
                       "--out", str(target)], capsys)
    assert code == 0
    assert target.is_dir()


def test_manifest_checksums_match(tmp_path, capsys):
    out = tmp_path / "w"
    code, _ = run_cli(["wave", "dump", "--c", "1.5", "--xmax", "2",
                       "--dx", "0.5", "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest
    assert "resolved-config.json" in manifest["files"]
    assert manifest["seed_scheme"]


def test_byte_identical_reruns(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code, _ = run_cli(["velocity", "--n", "2,4", "--replicas", "3",
                           "--horizon", "40", "--seed", "9",
                           "--out", str(out)], capsys)
        assert code == 0
        outs.append((out / "velocity.csv").read_bytes())
    assert outs[0] == outs[1]


def test_velocity_csv_columns(tmp_path, capsys):
    out = tmp_path / "v"
    code, summary = run_cli(["velocity", "--n", "2", "--replicas", "3",
                             "--horizon", "40", "--seed", "1",
                             "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "velocity.csv").read_text().strip().splitlines()
    assert lines[0] == "N,v_hat,std_error"
    assert len(lines) == 2


def test_selection_pipeline_smoke(tmp_path, capsys):
    out = tmp_path / "sel"
    code, summary = run_cli(["selection", "--n", "8,16", "--seed", "9",
                             "--burn-in", "10", "--horizon", "40",
                             "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "gaps.csv").read_text().strip().splitlines()
    assert lines[0] == "N,gap,se"
    for line in lines[1:]:
        assert float(line.split(",")[1]) > 0.0


def test_pde_and_file_init_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "p1"
    code, summary = run_cli(["pde", "--init", "pimin", "--t", "0.2",
                             "--dx", "0.02", "--dt", "0.002",
                             "--window", "25", "--out", str(out1)], capsys)
    assert code == 0
    assert (out1 / "boundary.csv").exists()
    prof = out1 / "profile_t0.2.csv"
    assert prof.read_text().startswith("x,u\n")
    # feed a penalised run's tail profile back through the file: init
    pen = tmp_path / "pen"
    code, _ = run_cli(["pde", "--init", "pimin", "--scheme", "penalised",
                       "--t", "0.2", "--dx", "0.02", "--dt", "0.002",
                       "--window", "25", "--out", str(pen)], capsys)
    assert code == 0
    tail = pen / "profile_t0.2.csv"
    assert tail.read_text().startswith("x,U\n")
    out2 = tmp_path / "p2"
    code, summary = run_cli(["pde", "--init", f"file:{tail}",
                             "--t", "0.1", "--dx", "0.02", "--dt", "0.002",
                             "--window", "25", "--out", str(out2)], capsys)
    assert code == 0


def test_pde_boundary_feeds_killedbm(tmp_path, capsys):
    # a warm-started run: its boundary.csv still starts at 0 and ends at t
    out = tmp_path / "p"
    code, _ = run_cli(["pde", "--init", "heaviside", "--t", "0.5",
                       "--out", str(out)], capsys)
    assert code == 0
    rows = (out / "boundary.csv").read_text().strip().splitlines()
    assert float(rows[1].split(",")[0]) == 0.0
    assert float(rows[-1].split(",")[0]) == 0.5
    code, summary = run_cli(["killedbm", "--boundary",
                             str(out / "boundary.csv"), "--t", "0.5",
                             "--paths", "2000", "--out", str(tmp_path / "k")],
                            capsys)
    assert code == 0, summary
    # a run of no steps still writes its one row
    code, _ = run_cli(["pde", "--init", "pimin", "--t", "0",
                       "--out", str(tmp_path / "p0")], capsys)
    assert code == 0
    rows = (tmp_path / "p0" / "boundary.csv").read_text().splitlines()
    assert len(rows) == 2
    # an empty --save is valid: it saves at --t only
    code, _ = run_cli(["pde", "--init", "pimin", "--t", "0", "--save", "",
                       "--out", str(tmp_path / "p1")], capsys)
    assert code == 0


def test_pde_penalised_scheme(tmp_path, capsys):
    out = tmp_path / "pen"
    code, summary = run_cli(["pde", "--init", "heaviside", "--t", "0.1",
                             "--dx", "0.02", "--dt", "0.002", "--window", "25",
                             "--scheme", "penalised:32", "--out", str(out)],
                            capsys)
    assert code == 0


def test_couple_smoke(tmp_path, capsys):
    out = tmp_path / "c"
    code, summary = run_cli(["couple", "--n", "16", "--init-a", "pimin",
                             "--init-b", "pimin", "--t", "0.5,1",
                             "--replicas", "10", "--seed", "3",
                             "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "contraction.csv").read_text().strip().splitlines()
    assert lines[0] == "t,lhs,rhs,margin"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.5, 1.0]
    assert summary["all_ok"] is True


def test_killedbm_smoke(tmp_path, capsys):
    out = tmp_path / "k"
    code, summary = run_cli(["killedbm", "--init", "pimin", "--t", "0.5",
                             "--paths", "2000", "--dt", "0.002",
                             "--seed", "4", "--out", str(out)], capsys)
    assert code == 0
    assert (out / "tau.csv").exists()
    assert (out / "survivors.csv").exists()
    assert 0.4 < summary["survival_fraction"] < 0.8


def test_stationary_outputs(tmp_path, capsys):
    out = tmp_path / "st"
    code, summary = run_cli(["stationary", "--n", "8", "--burn-in", "5",
                             "--horizon", "25", "--seed", "2",
                             "--out", str(out)], capsys)
    assert code == 0
    ens = json.loads((out / "ensemble.json").read_text())
    assert ens["n_snapshots"] == 20
    assert len(ens["snapshot_digests"]) == 20
    assert (out / "mean_profile.csv").exists()
    assert (out / "gaps.csv").exists()


def test_conjecture_smoke(tmp_path, capsys):
    out = tmp_path / "conj"
    code, summary = run_cli(["conjecture", "--lam", "2.0", "--t", "1.0",
                             "--out", str(out)], capsys)
    assert code == 0
    assert (out / "conjecture.csv").exists()


# one tiny run of every subcommand that takes a particle initial condition
INIT_RUNS = {
    "simulate": ["simulate", "--n", "4", "--t", "0.2"],
    "stationary": ["stationary", "--n", "4", "--burn-in", "1",
                   "--horizon", "3"],
    "couple-a": ["couple", "--n", "4", "--t", "0.2", "--replicas", "2"],
    "couple-b": ["couple", "--n", "4", "--t", "0.2", "--replicas", "2"],
    "killedbm": ["killedbm", "--t", "0.05", "--paths", "20", "--dt", "0.01"],
}
INIT_FLAG = {"couple-a": "--init-a", "couple-b": "--init-b"}


@pytest.mark.parametrize("spec", ["zeros", "pimin", "pic:1.5", "delta:0"])
@pytest.mark.parametrize("run", sorted(INIT_RUNS))
def test_every_subcommand_takes_every_init(tmp_path, capsys, run, spec):
    argv = INIT_RUNS[run] + [INIT_FLAG.get(run, "--init"), spec,
                             "--out", str(tmp_path / "o")]
    code, summary = run_cli(argv, capsys)
    assert code == 0, summary


@pytest.mark.parametrize("spec", ["gaussian", "pic:1.0", "delta:", "file:x.csv"])
@pytest.mark.parametrize("run", sorted(INIT_RUNS))
def test_unknown_init_exits_two_before_work(tmp_path, capsys, run, spec):
    out = tmp_path / "o"
    argv = INIT_RUNS[run] + [INIT_FLAG.get(run, "--init"), spec,
                             "--out", str(out)]
    code, summary = run_cli(argv, capsys)
    assert code == 2 and "init" in summary["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--log-interval", "0"],
    ["couple", "--n", "16", "--replicas", "1", "--t", "1"],
    ["velocity", "--n", "0,1"],
    ["stationary", "--n", "8", "--burn-in", "5", "--horizon", "5.5"],
    ["stationary", "--n", "8", "--horizon", "40"],
    # a snapshot count that overflows a float
    ["stationary", "--horizon", "1e308", "--delta-sample", "1e-10"],
    ["killedbm", "--dt", "0"],
    ["couple", "--t", "0.5,-1"],
    ["simulate", "--t", "inf"],
    ["simulate", "--log-interval", "nan"],
    ["couple", "--t", "nan"],
    ["velocity", "--n", "2", "--burn-in", "30", "--horizon", "30"],
    ["pde", "--init", "gaussian"],
    ["pde", "--scheme", "foo"],
    # a scheme is exactly split, split_cut, penalised or penalised:<n >= 2>
    ["pde", "--scheme", "penalisedXYZ", "--t", "0.01"],
    ["pde", "--scheme", "penalised:0", "--t", "0.01"],
    ["pde", "--scheme", "penalised:+0", "--t", "0.01"],
    # exp((n - 1) dt) of the reaction substep would overflow
    ["pde", "--scheme", "penalised:99999999999999999999999", "--t", "0.01"],
    # a start that the grid resolves as no finite mass
    ["pde", "--init", "exp:1e308"],
    ["pde", "--init", "pic:1e308"],
    ["pde", "--dt", "0.02", "--dx", "0.01"],
    # a grid of 1e14 nodes, which no machine allocates
    ["pde", "--window", "1e12"],
    # a window whose right end cuts the warm-started point mass
    ["pde", "--init", "heaviside", "--window", "2"],
    ["wave", "--c", "1.0"],
    ["wave", "--c", "1.3"],
    ["killedbm", "--boundary", "no/such/boundary.csv"],
    ["pde", "--save", "0.001"],
    ["pde", "--t", "0.001"],
    ["pde", "--init", "file:{step_tail}", "--save", "0.001"],
    ["pde", "--init", "pimin", "--t", "0.5", "--save", "2"],
    ["couple", "--mode", "literal"],
    # both profile times would be written to profile_t1.csv
    ["pde", "--init", "pimin", "--t", "1.0000002",
     "--save", "1.0000001,1.0000002", "--dx", "0.05", "--dt", "0.005"],
    ["pde", "--init", "pimin", "--t", "1.0000002", "--save", "1.0000001",
     "--dx", "0.05", "--dt", "0.005"],
    # leading NAME=value words set the environment, as in a shell
    ["NBBM_THREADS=abc", "velocity", "--n", "2", "--replicas", "2",
     "--horizon", "30", "--burn-in", "5"],
    ["NBBM_THREADS=0", "simulate", "--t", "0.1"],
    ["verify", "--suite", "quick"],
    ["pde", "--init", "exp:nan"],
    ["pde", "--init", "pic:inf"],
    ["simulate", "--init", "delta:inf"],
    # a list flag that lists nothing
    ["velocity", "--n", ""],
    ["couple", "--n", "8", "--t", ""],
    ["selection", "--n", ","],
], ids=lambda argv: " ".join(argv))
def test_invalid_input_exits_two_before_work(tmp_path, argv):
    # a step tail read from a file is a point mass, which warm-starts
    step_tail = tmp_path / "step.csv"
    step_tail.write_text("x,U\n0.0,1.0\n0.1,0.0\n0.2,0.0\n")
    argv = [a.format(step_tail=step_tail) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(nbbmlab.__file__).parents[1]))
    while "=" in argv[0]:
        key, _, value = argv.pop(0).partition("=")
        env[key] = value
    # a subprocess with a timeout: a regression may hang instead of failing
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "nbbmlab.cli", *argv,
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["exit"] == 2
    assert not out.exists()
    # `python -m nbbmlab.cli` runs the module once, not again after the package
    assert "RuntimeWarning" not in proc.stderr


def test_verify_passes_every_check(tmp_path, capsys):
    out = tmp_path / "v"
    code, summary = run_cli(["verify", "--seed", "3", "--out", str(out)], capsys)
    assert code == 0 and summary["failures"] == 0
    rows = (out / "verify.csv").read_text().splitlines()
    assert rows[0] == "check,ok" and len(rows) == 1 + summary["checks"]
    assert "wave_quantile,True" in rows
    assert all(row.endswith(",True") for row in rows[1:])


def test_derive_seed_stable():
    a = cli.derive_seed(7, "velocity", 64)
    assert a == cli.derive_seed(7, "velocity", 64)
    assert a != cli.derive_seed(8, "velocity", 64)
    assert a != cli.derive_seed(7, "velocity", 65)
    assert 0 <= a < 2 ** 64


# ---------------------------------------------------------------------------
# fuzzing the flag table
# ---------------------------------------------------------------------------

UNKNOWN_INITS = ["gaussian", "pic:1.0", "pic:x", "delta:", "delta:nan",
                 "file:x.csv", "zeros:1"]


def _rejected(flag):
    """A strategy of values that the flag's kind and bounds must reject."""
    if flag.kind == "init":
        return st.sampled_from(UNKNOWN_INITS)
    if isinstance(flag.kind, tuple):
        return st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                       max_size=8).filter(lambda v: v not in flag.kind)
    integer = flag.kind in ("int", "ints")
    bad = ["abc", "nan", "inf", "-inf", "1e400"] + (["1.5"] if integer else [])
    values = st.sampled_from(bad)
    if flag.low is not None or flag.above is not None:
        if integer:   # every bounded int flag has a lower bound
            below = st.integers(max_value=math.ceil(flag.low) - 1)
        elif flag.low is not None:
            below = st.floats(max_value=flag.low).filter(lambda v: v < flag.low)
        else:
            below = st.floats(max_value=flag.above)
        values |= below.map(repr)
    return values


FUZZED = sorted((sub, key) for sub, flags in cli._FLAGS.items()
                for key, flag in flags.items() if flag.kind != "str")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), target=st.sampled_from(FUZZED))
def test_flag_table_rejects_what_it_bounds(data, target):
    sub, key = target
    flag = cli._FLAGS[sub][key]
    value = data.draw(_rejected(flag), label="value")
    arg = [value] if flag.positional \
        else [f"--{key.replace('_', '-')}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.run([sub, *arg, "--out", str(out)])
        assert code == 2, stdout.getvalue()
        assert json.loads(stdout.getvalue().splitlines()[-1])["exit"] == 2
        assert "Traceback" not in stderr.getvalue()
        assert not out.exists()


# free-string flags: any text runs (exit 0) or is rejected before work (2)
FREE_STRINGS = {
    ("pde", "init"): ["heaviside", "delta", "pimin", "pic:", "exp:", "file:"],
    ("pde", "scheme"): ["split", "split_cut", "penalised", "penalised:"],
    ("killedbm", "boundary"): ["", ".", "/", "no/such/"],
}
FREE_RUNS = {
    "pde": ["--t", "0.05", "--dx", "0.05", "--dt", "0.005", "--window", "20"],
    "killedbm": ["--t", "0.05", "--dt", "0.01", "--paths", "20"],
}


def _free_text(words):
    """Arbitrary text, and the flag's own words followed by arbitrary text
    or a number, so that both the parse and the checks after it are hit."""
    tail = st.text(max_size=12) | st.floats().map(repr) \
        | st.integers().map(str)
    return st.text(max_size=20) | st.builds(
        lambda w, t: w + t, st.sampled_from(words), tail)


CASES = st.sampled_from(sorted(FREE_STRINGS)).flatmap(
    lambda target: st.tuples(st.just(target),
                             _free_text(FREE_STRINGS[target])))


@settings(max_examples=150, deadline=None)
@given(case=CASES)
@example(case=(("pde", "scheme"), "penalisedXYZ"))
@example(case=(("pde", "scheme"), "penalised:0"))
@example(case=(("pde", "init"), "exp:1e308"))
def test_free_string_flags_exit_zero_or_two(case):
    (sub, key), value = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.run([sub, *FREE_RUNS[sub], f"--{key}={value}",
                            "--out", str(out)])
        assert code in (0, 2), stdout.getvalue()
        assert json.loads(stdout.getvalue().splitlines()[-1]).get("exit",
                                                                  0) == code
        assert "Traceback" not in stderr.getvalue()
        assert out.exists() == (code == 0)
    if key == "scheme" and code == 0:   # only the scheme names run
        name, colon, n = value.partition(":")
        assert value in ("split", "split_cut", "penalised") \
            or (name == "penalised" and int(n) >= 2)


def test_cli_import_leaves_scipy_out():
    # scipy.stats alone takes most of a second to import; the three scipy
    # pieces are imported where they are first used, not at start-up
    env = dict(os.environ, PYTHONPATH=str(Path(nbbmlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nbbmlab.cli; print(sorted(m for m "
         "in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
         "if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# fuzzing config-file values
# ---------------------------------------------------------------------------

# every number flag but pde's grid: a valid grid is built while the run is
# validated, so a large window or a fine dx costs memory in proportion
CONFIG_FUZZED = {sub: sorted(
    key for key, flag in flags.items()
    if flag.kind in ("int", "float", "ints", "floats")
    and (sub, key) not in {("pde", "dx"), ("pde", "dt"), ("pde", "window")})
    for sub, flags in cli._FLAGS.items()}
CONFIG_FUZZED = {sub: keys for sub, keys in CONFIG_FUZZED.items() if keys}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | st.integers().map(str) | st.floats().map(repr),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4)


def _validated(sub, config, argv):
    """(exit code, the configuration the run got or None, stdout, stderr)
    of `sub` with the config file and flags; the run does no work."""
    got = []

    def handler(cfg, out):
        got.append({key: v for key, v in cfg.items() if key != "out"})
        return {}

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(cli._HANDLERS, {sub: handler}):
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.run([sub, "--config", str(path), *argv,
                            "--out", str(out)])
        assert out.exists() == (code == 0), stdout.getvalue()
    return code, (got or [None])[0], stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("sub, config, got", [
    # int() would truncate these, where the flag form rejects them
    ("simulate", {"n": 3.7}, None), ("simulate", {"n": True}, None),
    ("simulate", {"seed": 2.5}, None), ("simulate", {"t": False}, None),
    ("simulate", {"n": 64}, {"n": 64}), ("simulate", {"n": "64"}, {"n": 64}),
    ("simulate", {"t": 0.0}, {"t": 0.0}), ("simulate", {"t": 0}, {"t": 0.0}),
    ("stationary", {"burn_in": None}, {"burn_in": None}),
    ("couple", {"t": [0.5, 1]}, {"t": [0.5, 1]}),
    ("couple", {"t": [0.5, True]}, None),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_config_numbers_read_as_their_flags(sub, config, got):
    code, run_cfg, stdout, _ = _validated(sub, config, [])
    assert code == (2 if got is None else 0), stdout
    if got is not None:
        for key, value in got.items():
            assert run_cfg[key] == value and type(run_cfg[key]) is type(value)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sub=st.sampled_from(sorted(CONFIG_FUZZED)))
def test_config_values_exit_zero_or_two(data, sub):
    flags = cli._FLAGS[sub]
    keys = data.draw(st.lists(st.sampled_from(CONFIG_FUZZED[sub]),
                              min_size=1, max_size=3, unique=True))
    config = {key: data.draw(JSON_VALUES, label=key) for key in keys}
    code, got, stdout, stderr = _validated(sub, config, [])
    assert code in (0, 2), stdout
    assert "Traceback" not in stdout + stderr
    # a number flag's value from the file is run as the same value given
    # as the flag would be, or both are rejected
    as_flags = {key: v for key, v in config.items()
                if v is not None and flags[key].kind in ("int", "float")}
    rest = {key: v for key, v in config.items() if key not in as_flags}
    argv = [f"--{key.replace('_', '-')}={v}" for key, v in as_flags.items()]
    assert _validated(sub, rest, argv)[:2] == (code, got)
    if code == 0:
        for key in config:
            kind = {"int": int, "float": float}.get(flags[key].kind)
            assert kind is None or got[key] is None \
                or type(got[key]) is kind
