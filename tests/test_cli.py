"""Command-line behavior: exit codes, files, printed analysis."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghzqss
from ghzqss import attacks
from ghzqss.cli import main
from ghzqss.protocol import standard_variants


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- table1


def test_table1_prints_all_rows(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header plus eight rows
    secrets = [line.split()[-1] for line in lines[1:]]
    assert secrets == ["0", "1", "1", "0", "1", "0", "0", "1"]


class ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1_and_writes_no_error(capsys):
    # e.g. `ghzqss analyze --parties 6 | head -1`; this stream has no fileno()
    with contextlib.redirect_stdout(ClosedStdout()):
        code = main(["analyze", "--parties", "6"])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_is_pointed_at_devnull(capsys):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w") as pipe, contextlib.redirect_stdout(pipe):
        code = main(["analyze", "--parties", "6", "--attack", "collective-cnot"])
        # the descriptor now writes to devnull, so closing the file flushes cleanly
        assert os.path.samestat(os.fstat(write_fd), os.stat(os.devnull))
    assert code == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command", ["attack_analysis.py --parties 5", "detection_experiment.py --rounds 4000"]
)
def test_scripts_exit_quietly_when_their_reader_leaves(command):
    # `script | head -n 1`: the reader closes the pipe after one line.  Unbuffered,
    # every print is a write, so the first one after the close meets the closed pipe
    name, *args = command.split()
    script = Path(__file__).resolve().parent.parent / "scripts" / name
    paths = [str(Path(ghzqss.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PYTHONUNBUFFERED="1")
    with subprocess.Popen(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.strip()
    assert err == b""
    assert code == 1


# ------------------------------------------------------------------------ run


def test_run_writes_outputs_and_summary(capsys, tmp_path):
    out_dir = tmp_path / "session"
    code, out, err = run_cli(
        capsys,
        "run",
        "--rounds",
        "16",
        "--seed",
        "4",
        "--random-message",
        "6",
        "--out",
        str(out_dir),
    )
    assert code == 0
    assert err == ""
    assert out.startswith("detected=false check_error_rate=0.000000 message_ber=0.000000")
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["rounds"] == 16
    assert report["config"]["seed"] == 4
    assert len(report["recovered_message"]) == 6
    assert len((out_dir / "transcript.jsonl").read_text().splitlines()) == 16


def test_run_attack_flag_maps_to_internal_kind(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys,
        "run",
        "--rounds",
        "40",
        "--seed",
        "11",
        "--attack",
        "intercept-resend",
        "--abort-threshold",
        "0.05",
        "--out",
        str(tmp_path / "x"),
    )
    assert code == 0
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["config"]["attack"]["kind"] == "intercept_resend_bell"
    assert out.startswith("detected=true")
    assert "message_ber=n/a" in out


def test_run_message_file(capsys, tmp_path):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 0 1\n1\n")  # whitespace is stripped
    out_dir = tmp_path / "y"
    code, out, _err = run_cli(
        capsys, "run", "--rounds", "10", "--message-file", str(msg), "--out", str(out_dir)
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["message"] == "1011"
    assert report["recovered_message"] == "1011"


def test_run_random_message_is_seed_stable(capsys, tmp_path):
    args = ("run", "--rounds", "12", "--seed", "21", "--random-message", "5")
    run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb


def test_run_rejects_conflicting_message_flags(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys,
        "run",
        "--message-file",
        "whatever",
        "--random-message",
        "3",
        "--out",
        str(tmp_path / "z"),
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    ("args", "message", "expected"),
    [
        (("--parties", "2"), None, "at least three parties"),
        (("--check-fraction", "0"), None, "check fraction must be strictly between 0 and 1"),
        (("--check-fraction", "nan"), None, "check fraction must be strictly between 0 and 1"),
        (("--abort-threshold", "nan"), None, "abort threshold must lie in [0, 1]"),
        ((), b"\xff\xfe01", "--message-file is not UTF-8 text"),
        ((), b"01x1", "message must be a string of 0s and 1s"),
        (("--seed", "-1", "--random-message", "2"), None, "seed must be an integer in [0, 2^64)"),
    ],
    ids=[
        "two_parties",
        "zero_check_fraction",
        "nan_check_fraction",
        "nan_abort_threshold",
        "non_utf8_message_file",
        "non_binary_message_file",
        "negative_seed",
    ],
)
def test_run_validation_failures_exit_2(capsys, tmp_path, args, message, expected):
    if message is not None:
        (tmp_path / "message.txt").write_bytes(message)
        args = (*args, "--message-file", str(tmp_path / "message.txt"))
    code, _out, err = run_cli(capsys, "run", *args, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert expected in err


def test_run_random_message_fit_is_checked_before_the_draw(capsys, tmp_path, monkeypatch):
    # 6 bits for 5 message rounds: the size alone is refused, so no bit is drawn
    def no_draw(*_args, **_kwargs):
        raise AssertionError("the random message was drawn before its size was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, _out, err = run_cli(
        capsys, "run", "--rounds", "10", "--random-message", "6", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert err == "error: message of 6 bits does not fit in 5 message rounds\n"
    assert not (tmp_path / "o").exists()


def test_run_capacity_failure_exits_3(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, "run", "--parties", "25", "--rounds", "2", "--out", str(tmp_path / "r")
    )
    assert code == 3
    assert "error:" in err


# -------------------------------------------------------------------- analyze


def test_analyze_clean_round(capsys):
    code, out, err = run_cli(capsys, "analyze", "--variant", "psi1")
    assert code == 0
    assert err == ""
    assert "variant=psi1" in out
    assert "detection_rate = 0.00000000" in out
    assert "eve_mutual_information = 0.00000000 bits" in out
    assert "payload 0 joint distribution:" in out
    assert "payload 1 joint distribution:" in out
    assert out.count("p=0.12500000") == 16  # 8 support cells per payload


def test_analyze_collective_cnot_zero_information(capsys):
    code, out, _err = run_cli(
        capsys, "analyze", "--variant", "psi1", "--attack", "collective-cnot"
    )
    assert code == 0
    assert "eve_mutual_information = 0.00000000 bits" in out
    assert "detection_rate = 0.50000000" in out


def test_analyze_conditioned_intercept(capsys):
    code, out, _err = run_cli(
        capsys,
        "analyze",
        "--variant",
        "psi2",
        "--attack",
        "intercept-resend",
        "--condition-bell",
        "0",
        "--payload",
        "0",
    )
    assert code == 0
    assert "detection_rate = 0.50000000  (conditioned on Bell outcome 0)" in out
    assert "payload 1" not in out


def test_analyze_hadamard_positions_override(capsys):
    code, out, _err = run_cli(
        capsys, "analyze", "--parties", "4", "--hadamard-positions", "2,4"
    )
    assert code == 0
    assert "variant=h2,4" in out
    assert "hadamard positions: 2,4" in out


def test_analyze_variant_name_case_insensitive(capsys):
    code, out, _err = run_cli(capsys, "analyze", "--parties", "4", "--variant", "Psi5")
    assert code == 0
    assert "variant=Psi5" in out


def test_analyze_bad_variant_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--variant", "bell3")
    assert code == 2
    assert "error:" in err
    assert out == ""
    code, out, _err = run_cli(capsys, "analyze", "--variant", "psi9")
    assert code == 2
    assert out == ""


def test_analyze_impossible_condition_exits_2_before_printing(capsys):
    # without an attack no record carries a Bell outcome; the failed command
    # must not leave the tables it would have printed on stdout
    code, out, err = run_cli(capsys, "analyze", "--condition-bell", "0")
    assert code == 2
    assert "zero probability" in err
    assert out == ""


def test_analyze_capacity_failure_exits_3_before_printing(capsys):
    code, out, err = run_cli(capsys, "analyze", "--parties", "24", "--attack", "collective-cnot")
    assert code == 3
    assert "error:" in err
    assert out == ""


def test_analyze_intercept_rejects_own_particle_target(capsys):
    code, out, err = run_cli(
        capsys,
        "analyze",
        "--variant",
        "psi2",
        "--attack",
        "intercept-resend",
        "--target-receiver",
        "2",
    )
    assert code == 2
    assert "error:" in err
    assert out == ""


OUTSIDE_TARGETS = [
    (attack, target)
    for attack in ("none", "intercept-resend", "collective-cnot", "collective-h-cnot")
    for target in ("1", "9")
]


@pytest.mark.parametrize("attack,target", OUTSIDE_TARGETS)
def test_analyze_target_outside_the_receivers_exits_2(capsys, attack, target):
    code, out, err = run_cli(
        capsys, "analyze", "--parties", "3", "--attack", attack, "--target-receiver", target
    )
    assert code == 2
    assert f"target receiver {target} outside [2, 3]" in err
    assert out == ""


@pytest.mark.parametrize("attack,target", OUTSIDE_TARGETS)
def test_run_target_outside_the_receivers_exits_2(capsys, tmp_path, attack, target):
    out_dir = tmp_path / "target"
    code, out, err = run_cli(
        capsys, "run", "--parties", "3", "--rounds", "8", "--attack", attack,
        "--target-receiver", target, "--out", str(out_dir),
    )
    assert code == 2
    assert f"target receiver {target} outside [2, 3]" in err
    assert out == ""
    assert not out_dir.exists()


def test_oracle_runs_once_per_payload_and_never_without_an_attack(capsys, monkeypatch, tmp_path):
    # analyze folds every figure over one pair of oracle tables; a session
    # samples each (variant, payload) it plans from one table, and in exact
    # mode the information fold adds one pair per standard variant, none
    # without an attack
    calls = []
    oracle = attacks.exact_round_analysis

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    # every ghzqss namespace that holds the oracle, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("ghzqss") and hasattr(module, "exact_round_analysis"):
            monkeypatch.setattr(module, "exact_round_analysis", counted)
    code, _out, _err = run_cli(
        capsys, "analyze", "--variant", "psi2", "--attack", "intercept-resend"
    )
    assert code == 0
    assert len(calls) == 2
    for attack in ("none", "intercept-resend"):
        calls.clear()
        out_dir = tmp_path / attack
        code, _out, _err = run_cli(
            capsys, "run", "--mode", "exact", "--rounds", "16", "--attack", attack,
            "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
        planned = {(tuple(r["variant"]), r["payload_bit"]) for r in map(json.loads, lines)}
        sampled = [(tuple(sorted(v.hadamard_positions)), p) for v, p, _a in calls[: len(planned)]]
        assert sorted(sampled) == sorted(planned)
        folded = [(v, p) for v, p, _a in calls[len(planned) :]]
        fold = [(v, p) for v in standard_variants(3) for p in (0, 1)]
        assert folded == (fold if attack != "none" else [])


def test_analyze_respects_env_free_success_contract(capsys):
    # success prints to stdout only; stderr stays empty for scripting
    code, out, err = run_cli(capsys, "analyze", "--variant", "psi4", "--attack", "collective-h-cnot")
    assert code == 0 and out and err == ""


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
