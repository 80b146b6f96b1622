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
from ghzqss.cli import _table_text, main
from ghzqss.protocol import StateVariant, standard_variants


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


def reference_table_text(payload, table):
    """One payload's printout, one ``%`` format per record, ascending (index, eve)."""
    lines = [f"payload {payload} joint distribution:\n"]
    for index, eve, p in sorted(zip(table.index.tolist(), table.eve.tolist(), table.p.tolist())):
        bits = format(index, f"0{table.width}b")
        signs = "".join("-" if bit == "1" else "+" for bit in bits[2:])
        eve_text = "-" if eve < 0 else str(eve)
        lines.append(
            "  alice_a=%d alice_A=%d signs=%s eve=%s  p=%.8f\n"
            % (int(bits[0]), int(bits[1]), signs, eve_text, p)
        )
    return "".join(lines)


def random_record_table(rng, width, tapped):
    """A table in the oracle's order: eve-major blocks of ascending indices.

    Its probabilities mix 1.0, exact dyadics whose 9th decimal is 5 (so
    ``%.8f`` rounds half to even), near-halfway decimals, many distinct
    random values, and repeats of each.
    """
    eves = np.sort(rng.choice(4, size=rng.integers(1, 5), replace=False)) if tapped else [-1]
    blocks = [
        np.sort(rng.choice(1 << width, size=rng.integers(1, (1 << width) + 1), replace=False))
        for _ in eves
    ]
    index = np.concatenate(blocks)
    eve = np.concatenate([np.full(block.size, e) for block, e in zip(blocks, eves)])
    halfway = [2.0**-9, 3 * 2.0**-9, 5 * 2.0**-9, 2.0**-9 + 2.0**-3]
    near_halfway = np.floor(rng.random(8) * 1e8) / 1e8 + 5e-9  # below 1
    pool = np.concatenate(([1.0], halfway, near_halfway, rng.random(index.size)))
    return attacks.RecordTable(width, index, eve, rng.choice(pool, size=index.size))


@pytest.mark.parametrize("tapped", (False, True))
@pytest.mark.parametrize("width", range(3, 14))
def test_table_text_equals_a_per_record_format(width, tapped):
    rng = np.random.default_rng(width + 100 * tapped)
    # a lone certain record, then random tables
    eve = np.array([3 if tapped else -1])
    certain = attacks.RecordTable(width, np.array([1 << width - 1]), eve, np.array([1.0]))
    tables = [certain] + [random_record_table(rng, width, tapped) for _ in range(3)]
    for payload, table in enumerate(tables):
        text = _table_text(payload % 2, table)
        # compared as lines: pytest reports the first that differs, not a diff of the text
        assert text.endswith("\n")
        assert text.splitlines() == reference_table_text(payload % 2, table).splitlines()


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


@pytest.mark.parametrize("positions", ("a", "2,x", "2;4"))
def test_analyze_bad_hadamard_positions_exit_2_naming_the_option(capsys, positions):
    code, out, err = run_cli(capsys, "analyze", "--parties", "4", "--hadamard-positions", positions)
    assert code == 2
    assert out == ""
    assert f"--hadamard-positions {positions!r}" in err


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
    # analyze folds every figure over one pair of oracle tables.  A session
    # builds one table per key 2 * mask + payload, in ascending order: each
    # planned key, plus, in an attacked exact session, both keys of every
    # standard variant, whose pairs its information fold reads
    calls = []
    oracle = attacks.exact_round_analysis

    def counted(variant, payload, attack):
        calls.append(2 * variant.mask + payload)
        return oracle(variant, payload, attack)

    # every ghzqss namespace that holds the oracle, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("ghzqss") and hasattr(module, "exact_round_analysis"):
            monkeypatch.setattr(module, "exact_round_analysis", counted)
    code, _out, _err = run_cli(
        capsys, "analyze", "--variant", "psi2", "--attack", "intercept-resend"
    )
    assert code == 0
    assert len(calls) == 2
    for n, rounds in ((3, "16"), (4, "6"), (9, "500")):
        standard = {2 * v.mask + p for v in standard_variants(n) for p in (0, 1)}
        for mode in ("sample", "exact"):
            for attack in ("none", "intercept-resend"):
                calls.clear()
                out_dir = tmp_path / f"{n}-{mode}-{attack}"
                code, _out, _err = run_cli(
                    capsys, "run", "--parties", str(n), "--rounds", rounds, "--mode", mode,
                    "--attack", attack, "--out", str(out_dir),
                )
                assert code == 0
                lines = (out_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
                rows = map(json.loads, lines)
                planned = {2 * StateVariant(n, r["variant"]).mask + r["payload_bit"] for r in rows}
                folded = standard if mode == "exact" and attack != "none" else set()
                assert calls == sorted(planned | folded)
                if n == 9 and folded:
                    assert len(calls) == 20  # each key of the 10 standard variants, once


def test_analyze_respects_env_free_success_contract(capsys):
    # success prints to stdout only; stderr stays empty for scripting
    code, out, err = run_cli(capsys, "analyze", "--variant", "psi4", "--attack", "collective-h-cnot")
    assert code == 0 and out and err == ""


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
