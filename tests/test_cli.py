"""Command-line behavior: exit codes, files, printed analysis."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ghzqss
from ghzqss import attacks
from ghzqss.cli import _table_chunks, main
from ghzqss.protocol import StateVariant, standard_variants
from records import random_form, reference_table_text


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
    """A stdout whose reader leaves after reading ``accepted`` writes, e.g. ``head -n 1``."""

    def __init__(self, accepted=0):
        super().__init__()
        self.accepted = accepted

    def write(self, text):
        if not self.accepted:
            raise BrokenPipeError(32, "Broken pipe")
        self.accepted -= 1
        return super().write(text)


def test_closed_stdout_exits_1_and_writes_no_error(capsys):
    # e.g. `ghzqss analyze --parties 6 | head -1`; this stream has no fileno()
    with contextlib.redirect_stdout(ClosedStdout()):
        code = main(["analyze", "--parties", "6"])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_is_pointed_at_devnull(capsys):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w", encoding="utf-8") as pipe, contextlib.redirect_stdout(pipe):
        code = main(["analyze", "--parties", "6", "--attack", "collective-cnot"])
        # the descriptor now writes to devnull, so closing the file flushes cleanly
        assert os.path.samestat(os.fstat(write_fd), os.stat(os.devnull))
    assert code == 1
    assert capsys.readouterr().err == ""


def test_pipe_closed_after_the_header_exits_1_quietly(capsys):
    # analyze writes its header before the tables, so a later write meets the closed pipe
    stdout = ClosedStdout(accepted=1)
    with contextlib.redirect_stdout(stdout):
        code = main(["analyze", "--parties", "6", "--attack", "collective-cnot"])
    assert code == 1
    assert capsys.readouterr().err == ""
    header = "variant=Psi1 (hadamard positions: none) parties=6 attack=collective_cnot target=6\n"
    assert stdout.getvalue() == header


def test_pipe_closed_between_blocks_keeps_the_blocks_before_it(capsys):
    # a table is written in 1,024-line blocks, one write each: the n=10 psi11
    # collective-CNOT table has 8,192 lines per payload, so a reader leaving
    # after the header, the payload line and three blocks has read just those
    argv = ["analyze", "--parties", "10", "--variant", "psi11", "--attack", "collective-cnot"]
    code, full, _err = run_cli(capsys, *argv)
    assert code == 0
    lines = full.splitlines(keepends=True)
    assert lines[1] == "payload 0 joint distribution:\n"
    assert lines[2 + 8192] == "payload 1 joint distribution:\n"
    stdout = ClosedStdout(accepted=2 + 3)
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 1
    assert capsys.readouterr().err == ""
    assert stdout.getvalue() == "".join(lines[: 2 + 3 * 1024])


def run_script(command, stdout=subprocess.PIPE):
    """``scripts/<command>`` in a fresh interpreter on this checkout's package, unbuffered."""
    name, *args = command.split()
    script = Path(__file__).resolve().parent.parent / "scripts" / name
    paths = [str(Path(ghzqss.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PYTHONUNBUFFERED="1")
    return subprocess.run(
        [sys.executable, str(script), *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "command", ["attack_analysis.py --parties 5", "detection_experiment.py --rounds 4000"]
)
def test_scripts_exit_quietly_when_their_reader_leaves(command):
    # `script | head -n 1` once head has gone: the pipe's read end is closed
    # before the script starts, so its first print meets the closed pipe
    # however fast the script runs (read after one line, a fast script could
    # fill the pipe and finish before the close).  Unbuffered, that print is
    # a write, inside the script's ``piped`` call
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = run_script(command, write_fd)
    finally:
        os.close(write_fd)
    assert proc.stderr == b""
    assert proc.returncode == 1


@pytest.mark.parametrize(
    ("command", "code"),
    [
        ("attack_analysis.py --parties 2", 2),
        ("attack_analysis.py --parties 30", 3),
        ("detection_experiment.py --rounds 0", 2),
        ("detection_experiment.py --parties 30", 3),
    ],
)
def test_scripts_share_the_exit_code_contract(command, code):
    # the scripts run under ``piped`` too: a bad option exits 2 and a register
    # past the cap 3, each with one error line and nothing printed before it
    proc = run_script(command)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


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
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["rounds"] == 16
    assert report["config"]["seed"] == 4
    assert len(report["recovered_message"]) == 6
    assert len((out_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines()) == 16


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
    report = json.loads((tmp_path / "x" / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["attack"]["kind"] == "intercept_resend_bell"
    assert out.startswith("detected=true")
    assert "message_ber=n/a" in out


def test_run_message_file(capsys, tmp_path):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 0 1\n1\n", encoding="utf-8")  # whitespace is stripped
    out_dir = tmp_path / "y"
    code, out, _err = run_cli(
        capsys, "run", "--rounds", "10", "--message-file", str(msg), "--out", str(out_dir)
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
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


def test_run_negative_random_message_is_refused_before_the_draw(capsys, tmp_path, monkeypatch):
    def no_draw(*_args, **_kwargs):
        raise AssertionError("a negative random message size reached the draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, out, err = run_cli(capsys, "run", "--random-message", "-1", "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert err == "error: --random-message must be non-negative\n"
    assert not (tmp_path / "o").exists()


def test_run_capacity_failure_exits_3(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, "run", "--parties", "25", "--rounds", "2", "--out", str(tmp_path / "r")
    )
    assert code == 3
    assert "error:" in err


# -------------------------------------------------------------------- analyze


@pytest.mark.parametrize("tapped", (False, True))
@pytest.mark.parametrize("width", (*range(3, 14), 33, 40))
def test_table_text_equals_a_per_record_format(width, tapped):
    rng = np.random.default_rng(width + 100 * tapped)
    # a lone certain record (p = 1.0) whose frame flips alice_A, a table of
    # 2^9 records, whose p = 0.001953125 is a tie at the 9th decimal that
    # ``%.8f`` rounds half to even, or the largest one the width allows,
    # then random forms, each printed for both payloads; the widths past
    # the qubit cap keep a rank of at most 9, so at most 2^11 records
    certain = attacks.RecordTable(
        width, tapped, ((3 << width) * tapped | 1 << width - 1,), (), 1 << width - 2
    )
    bell_rank = min(2, 9 - min(9, width)) if tapped else None
    largest = random_form(rng, width, tapped, min(9, width), bell_rank)
    ranks = [None if width < 14 else int(rng.integers(10)) for _ in range(3)]
    tables = [certain, largest] + [random_form(rng, width, tapped, rank) for rank in ranks]
    assert largest.p == 2.0 ** -min(9, width + 2 * tapped)
    for table, payload in itertools.product(tables, (0, 1)):
        text = "".join(_table_chunks(table, payload))
        # compared as lines: pytest reports the first that differs, not a diff of the text
        assert text.endswith("\n")
        assert text.splitlines() == reference_table_text(table, payload).splitlines()


def test_table_chunks_span_blocks_and_codes_past_64_bits():
    # width 14: every readout bit but alice_a and the last sign (code bits
    # 13 and 0) is a vector's highest bit, and the two Bell outcomes flip
    # those, so the bases' differences reduce the vectors' low bits, and
    # 2^14 lines fill 16 blocks; the frame flips both, which in key order
    # puts each record's image under it in the other half of the blocks
    vectors = tuple(1 << bit | bit & 1 for bit in range(1, 13))
    bells = (1 << 14 | 1 << 13, 2 << 14 | 1)
    spanning = attacks.RecordTable(
        14, True, (0, bells[0], bells[1], bells[0] ^ bells[1]), vectors, 1 << 13 | 1
    )
    # width 70, past the 62 bits a uint64 key held: 4 vectors and 4 Bell
    # records, 64 lines whose codes (and the frame) hold bits above bit 63
    vectors = (1 << 69 | 1 << 68 | 1 << 50 | 4, 1 << 66 | 1 << 65 | 1 << 12, 1 << 40 | 1 << 39 | 1)
    vectors += (1 << 3 | 1 << 1,)
    bells = (1 << 70 | 1 << 68 | 1 << 10, 2 << 70 | 1 << 64)
    offset = 1 << 67 | 1 << 63 | 1 << 5
    bases = (offset, offset ^ bells[0], offset ^ bells[1], offset ^ bells[0] ^ bells[1])
    wide = attacks.RecordTable(70, True, bases, vectors, 1 << 65 | 1 << 62 | 1)
    for table, blocks in ((spanning, [1024] * 16), (wide, [64])):
        for payload in (0, 1):
            chunks = list(_table_chunks(table, payload))
            assert [chunk.count("\n") for chunk in chunks] == blocks
            text = reference_table_text(table, payload)
            assert "".join(chunks).splitlines() == text.splitlines()


class CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_analyze_peak_memory_stays_below_1_mib_whatever_its_output():
    # each 1,024-line block is rendered just before it is written, and no
    # table's text nor a joined copy of the output is built: the two
    # 2^17-line tables of the n=14 all-Hadamard collective-CNOT pair are
    # about 15.5 MiB of text, printed in a few blocks' memory
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(
                ["analyze", "--parties", "14", "--variant", "psi15", "--attack", "collective-cnot"]
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 15 << 20
    assert peak <= 1 << 20


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


def test_oracle_runs_once_per_variant_and_folds_only_under_an_attack(capsys, monkeypatch, tmp_path):
    # analyze folds every figure over one oracle table.  A session builds
    # each variant's table once, in ascending mask order: each planned mask,
    # plus, in an attacked exact session, every standard mask, whose table
    # its information fold reads
    calls = []
    oracle = attacks.exact_table

    def counted(attack, variant):
        calls.append(variant.mask)
        return oracle(attack, variant)

    # every ghzqss namespace that holds the oracle, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("ghzqss") and hasattr(module, "exact_table"):
            monkeypatch.setattr(module, "exact_table", counted)
    code, _out, _err = run_cli(
        capsys, "analyze", "--variant", "psi2", "--attack", "intercept-resend"
    )
    assert code == 0
    assert len(calls) == 1
    for n, rounds in ((3, "16"), (4, "6"), (9, "500")):
        standard = {v.mask for v in standard_variants(n)}
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
                planned = {StateVariant(n, json.loads(line)["variant"]).mask for line in lines}
                folded = standard if mode == "exact" and attack != "none" else set()
                assert calls == sorted(planned | folded)
                if n == 9 and folded:
                    assert len(calls) == 10  # each of the 10 standard variants, once


def test_analyze_respects_env_free_success_contract(capsys):
    # success prints to stdout only; stderr stays empty for scripting
    code, out, err = run_cli(capsys, "analyze", "--variant", "psi4", "--attack", "collective-h-cnot")
    assert code == 0 and out and err == ""


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
