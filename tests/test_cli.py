"""Command-line behavior: exit codes, files, printed analysis."""

import contextlib
import functools
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
from ghzqss import attacks, cli
from ghzqss.attacks import AttackModel, averaged_detection_rate
from ghzqss.cli import _ATTACK_NAMES, _table_chunks, main, piped
from ghzqss.protocol import standard_variants
from records import random_form, reference_table_text
from script_loader import SCRIPTS_DIR, load_script, script_stdout


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


def test_table1_exits_1_naming_each_mismatched_row(capsys, monkeypatch):
    # a recovery rule that ignores the receivers' signs gets half the rows wrong
    monkeypatch.setattr(cli, "recover_secret", lambda alice_a, signs: alice_a)
    code, out, err = run_cli(capsys, "table1")
    assert code == 1
    assert len(out.splitlines()) == 9  # every row is printed, the wrong ones too
    assert err.splitlines() == [
        f"mismatch: alice_a={alice_a} signs={signs} expected {expected} got {alice_a}"
        for alice_a, signs, expected in cli.RECOVERY_TABLE_3
        if expected != alice_a
    ]


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
    script = SCRIPTS_DIR / name
    paths = [str(Path(ghzqss.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PYTHONUNBUFFERED="1")
    return subprocess.run(
        [sys.executable, str(script), *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


@pytest.mark.parametrize("n", (3, 4, 5))
def test_attack_analysis_conditions_the_two_caught_variants(n, monkeypatch, capsys):
    # intercept-resend is caught on psi2 and on the target's variant, psi_n
    # by default, and there every live Bell record flags at exactly 1/2
    out = script_stdout(f"attack_analysis.py --parties {n}", monkeypatch, capsys)
    section = out.split("conditioned intercept rates (by the attacker's Bell outcome):\n")[1]
    names = [standard_variants(n)[k - 1].name for k in (2, n)]
    assert section.splitlines() == [
        f"  {name} | bell={bell}: 0.500000" for name in names for bell in range(4)
    ]


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
        ("detection_experiment.py --rounds 100000000000", 3),
    ],
)
def test_scripts_share_the_exit_code_contract(command, code):
    # the scripts run under ``piped`` too: a bad option exits 2, and a register
    # past the cap or a session past the draw bound 3, each with one error
    # line and nothing printed before it
    proc = run_script(command)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


# ------------------------------------------------------------------------ run


def test_run_writes_outputs_and_summary(capsys, tmp_path):
    out_dir = tmp_path / "session"
    message = tmp_path / "message.txt"
    message.write_text("101100", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "run",
        "--rounds",
        "16",
        "--seed",
        "4",
        "--message-file",
        str(message),
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


def test_run_has_no_random_message_option(capsys, tmp_path):
    # a message comes only from --message-file
    argv = ["run", "--random-message", "8", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --random-message 8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_writes_to_ghzqss_out_whatever_the_environment(capsys, tmp_path, monkeypatch):
    # --out alone names the directory: the environment, GHZQSS_OUT included, is not read
    monkeypatch.setenv("GHZQSS_OUT", str(tmp_path / "elsewhere"))
    monkeypatch.chdir(tmp_path)
    code, _out, err = run_cli(capsys, "run", "--rounds", "4")
    assert (code, err) == (0, "")
    assert sorted(p.name for p in (tmp_path / "ghzqss_out").iterdir()) == [
        "report.json",
        "transcript.jsonl",
    ]
    assert not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize(
    ("args", "message", "expected"),
    [
        (("--parties", "2"), None, "at least three parties"),
        (("--check-fraction", "0"), None, "check fraction must be strictly between 0 and 1"),
        (("--check-fraction", "nan"), None, "check fraction must be strictly between 0 and 1"),
        (("--abort-threshold", "nan"), None, "abort threshold must lie in [0, 1]"),
        ((), b"\xff\xfe01", "--message-file is not UTF-8 text"),
        ((), b"01x1", "message must be a string of 0s and 1s"),
        (("--rounds", "10"), b"111111", "message of 6 bits does not fit in 5 message rounds"),
        (("--seed", "-1"), None, "seed must be an integer in [0, 2^64)"),
    ],
    ids=[
        "two_parties",
        "zero_check_fraction",
        "nan_check_fraction",
        "nan_abort_threshold",
        "non_utf8_message_file",
        "non_binary_message_file",
        "oversized_message_file",
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


@pytest.mark.parametrize(
    ("args", "code", "expected"),
    [(("--parties", "30"), 3, "qubit cap"), (("--seed", "-1"), 2, "seed must be an integer")],
    ids=["oversized_round", "negative_seed"],
)
def test_run_checks_the_session_before_it_opens_the_message_file(
    capsys, tmp_path, monkeypatch, args, code, expected
):
    # the message file is valid, but the configuration is checked before it is opened
    message = tmp_path / "message.txt"
    message.write_text("01", encoding="utf-8")

    def no_open(*_args, **_kwargs):
        raise AssertionError("the message file was opened before the session was checked")

    monkeypatch.setattr(cli, "open", no_open, raising=False)  # found before the builtin
    argv = ("run", *args, "--message-file", str(message), "--out", str(tmp_path / "o"))
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and expected in err
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
    for table in tables:
        for payload, chunks in zip((0, 1), _table_chunks(table, (0, 1))):
            text = "".join(chunks)
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
        for payload, chunks in zip((0, 1), _table_chunks(table, (0, 1))):
            chunks = list(chunks)
            assert [chunk.count("\n") for chunk in chunks] == blocks
            text = reference_table_text(table, payload)
            assert "".join(chunks).splitlines() == text.splitlines()


@pytest.mark.parametrize("attack", sorted(_ATTACK_NAMES))
@pytest.mark.parametrize("variant", ("psi1", "psi13"))
def test_analyze_prints_both_payloads_as_the_one_payload_commands_do(capsys, variant, attack):
    # both payloads' blocks come from one first block: without --payload the
    # output is the header, then --payload 0's body, then --payload 1's, then
    # the figures; at n=12 the all-Hadamard carrier's tables span many blocks
    argv = ["analyze", "--parties", "12", "--variant", variant, "--attack", attack]
    extras = ((), ("--payload", "0"), ("--payload", "1"))
    both, zero, one = (run_cli(capsys, *argv, *extra) for extra in extras)
    assert both[0] == zero[0] == one[0] == 0
    assert both[2] == zero[2] == one[2] == ""
    zero, one = zero[1].splitlines(keepends=True), one[1].splitlines(keepends=True)
    assert zero[1] == "payload 0 joint distribution:\n"
    assert one[1] == "payload 1 joint distribution:\n"
    assert zero[0] == one[0] and zero[-2:] == one[-2:]
    assert both[1] == "".join(zero[:-2] + one[1:])


@pytest.mark.parametrize("payload", (None, 0, 1))
def test_analyze_doubles_one_first_block_per_table(monkeypatch, capsys, payload):
    # the n=10 plain carrier's 1,024-line tables are one block, doubled from
    # one line by 10 XORs, once for the table whatever the payloads printed
    calls = []

    def counting_xor(*args, **kwargs):
        calls.append(args[0].shape)
        return bitwise_xor(*args, **kwargs)

    bitwise_xor = np.bitwise_xor
    monkeypatch.setattr(np, "bitwise_xor", counting_xor)
    extra = () if payload is None else ("--payload", str(payload))
    code, out, _err = run_cli(capsys, "analyze", "--parties", "10", "--variant", "psi1", *extra)
    assert code == 0
    assert out.count("  alice_a=") == 1024 * (1 if extra else 2)
    assert calls == [(1 << i, len(out.splitlines()[2]) + 1) for i in range(10)]


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


def test_analyze_variant_takes_hadamard_receivers(capsys):
    code, out, _err = run_cli(capsys, "analyze", "--parties", "4", "--variant", "2,4")
    assert code == 0
    assert "variant=h2,4" in out
    assert "hadamard positions: 2,4" in out


@pytest.mark.parametrize(
    "name,receivers", [("psi1", ""), ("Psi3", "3"), ("PSI3", " 3 "), ("psi6", "2,3,4,5")]
)
def test_analyze_variant_name_and_receivers_print_the_same_bytes(capsys, name, receivers):
    # a standard variant named or listed by its receivers is one carrier: a
    # bare k is receiver k's variant, the empty list the plain GHZ state
    for attack in _ATTACK_NAMES:
        argv = ["analyze", "--parties", "5", "--attack", attack, "--variant"]
        named, listed = run_cli(capsys, *argv, name), run_cli(capsys, *argv, receivers)
        assert named == listed and named[0] == 0 and named[2] == ""


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


@pytest.mark.parametrize(
    "text", ("a", "2,x", "2;4", "psix", "psi0", "psi9", "1", "5", "\u0663,0_4", "3,0_4", "+3", "\uff13")
)
def test_analyze_bad_variant_exits_2_naming_the_option(capsys, text):
    # at 4 parties: no such name, not a list of ASCII digits (int() would read
    # a sign, an underscore or an Arabic-Indic or full-width digit), or not
    # receivers 2..4
    code, out, err = run_cli(capsys, "analyze", "--parties", "4", "--variant", text)
    assert code == 2
    assert out == ""
    assert f"--variant {text!r}" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_checks_the_round_before_its_variant(capsys):
    # an oversized round is refused before the carrier is read, so a bad
    # variant name is not reported, and no variant of the round is built
    code, out, err = run_cli(capsys, "analyze", "--parties", "30", "--variant", "bogus")
    assert (code, out) == (3, "")
    assert "qubit cap" in err
    code, out, err = run_cli(capsys, "analyze", "--parties", "2", "--variant", "bogus")
    assert (code, out) == (2, "")
    assert "at least three parties" in err


@pytest.mark.parametrize("name", ["analyze", "attack_analysis.py"])
def test_oversized_rounds_are_refused_before_any_variant_is_built(monkeypatch, capsys, name):
    # a million parties: the all-Hadamard variant holds 999,999 positions, and
    # the script's n+1 standard variants about 10^6 objects; neither is built
    if name == "analyze":
        command = functools.partial(main, [name, "--parties", "1000000", "--variant", "psi1000001"])
    else:
        monkeypatch.setattr(sys, "argv", [name, "--parties", "1000000"])
        command = functools.partial(piped, load_script(name).main)
    tracemalloc.start()
    try:
        code = command()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "qubit cap" in captured.err
    assert peak < 1 << 20


def test_oversized_sessions_are_refused_before_any_round_is_planned(capsys, tmp_path):
    # 10^11 rounds at n=3 draw 4 * 10^11 uniforms: refused by their count,
    # before a column of the plan, about 8 bytes a round, is allocated
    out_dir = tmp_path / "o"
    tracemalloc.start()
    try:
        code = main(["run", "--rounds", "100000000000", "--out", str(out_dir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: 100000000000 rounds need 400000000000 draws, above 67108864\n"
    assert peak < 1 << 20
    assert not out_dir.exists()


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


def test_oracle_runs_once_per_tapped_class(capsys, monkeypatch, tmp_path):
    # analyze folds every figure over one oracle table.  A session builds
    # one table per class of the standard variants' tapped bits, from the
    # class's first standard variant in index order: 1, 4, 2 and 2 tables,
    # in either mode and under either planner, whatever variants it plans.
    # The averaged rate reads the same tables, and attack_analysis.py its
    # three attacks' 4 + 2 + 2
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
        target, every = 1 << n - 2, (1 << n - 1) - 1  # the last receiver's bit; all of them
        firsts = {"none": [0], "intercept-resend": [0, 1, target, every],
                  "collective-cnot": [0, target], "collective-h-cnot": [0, target]}
        for mode, attack, planner in itertools.product(
            ("sample", "exact"), sorted(firsts), ((), ("--all-subsets",))
        ):
            calls.clear()
            code, _out, _err = run_cli(
                capsys, "run", "--parties", str(n), "--rounds", rounds, "--mode", mode,
                "--attack", attack, *planner, "--out", str(tmp_path / f"{n}-{mode}-{attack}"),
            )
            assert code == 0
            assert calls == firsts[attack], (n, mode, attack, planner)
        for attack in sorted(firsts):
            calls.clear()
            averaged_detection_rate(AttackModel(_ATTACK_NAMES[attack]), n)
            assert calls == firsts[attack], (n, attack)
        calls.clear()
        script_stdout(f"attack_analysis.py --parties {n}", monkeypatch, capsys)
        attacked = ("intercept-resend", "collective-cnot", "collective-h-cnot")
        assert calls == [mask for attack in attacked for mask in firsts[attack]], n
        assert len(calls) == 8


def test_analyze_respects_env_free_success_contract(capsys):
    # success prints to stdout only; stderr stays empty for scripting
    code, out, err = run_cli(capsys, "analyze", "--variant", "psi4", "--attack", "collective-h-cnot")
    assert code == 0 and out and err == ""


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
