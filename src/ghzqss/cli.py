"""Command-line front end.

Three subcommands: ``run`` executes a full session and writes transcript and
report files, ``analyze`` prints the exact single-round joint distribution
and security numbers for one variant/attack pair, ``table1`` prints and
verifies the eight-row recovery table for three parties.

``analyze`` renders each payload's table from its arrays: every line has
the same width, so the table is one byte array, one row per line, whose
columns are written in place.  It writes its whole output at once, after
every figure is computed.

Exit codes: 0 success, 1 recovery-table mismatch or stdout closed by its
reader (e.g. piped into ``head``), 2 usage or validation error, 3 register
capacity exceeded.  Nothing is written to stderr on success or when stdout
is closed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .attacks import (
    AttackModel,
    RecordTable,
    conditional_detection_rate,
    eve_mutual_information,
    exact_tables,
)
from .protocol import StateVariant, check_message_size, recover_secret
from .session import (
    SessionConfig,
    check_seed,
    default_output_dir,
    run_session,
    write_outputs,
)
from .statevec import RegisterCapacityError

_ATTACK_NAMES = {
    "none": "none",
    "intercept-resend": "intercept_resend_bell",
    "collective-cnot": "collective_cnot",
    "collective-h-cnot": "collective_h_cnot",
}

# the full eight-row recovery table for three parties:
# (sender bit, receiver signs) -> secret, sign + encoding bit 0
RECOVERY_TABLE_3 = (
    (0, (0, 0), 0),
    (0, (0, 1), 1),
    (0, (1, 0), 1),
    (0, (1, 1), 0),
    (1, (0, 0), 1),
    (1, (0, 1), 0),
    (1, (1, 0), 0),
    (1, (1, 1), 1),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzqss",
        description="Simulate GHZ-carried (n,n)-threshold quantum secret sharing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full session and write transcript/report")
    run_p.add_argument("--parties", type=int, default=3, help="total party count n (>= 3)")
    run_p.add_argument("--rounds", type=int, default=200, help="number of rounds")
    run_p.add_argument("--check-fraction", type=float, default=0.5)
    run_p.add_argument("--attack", choices=sorted(_ATTACK_NAMES), default="none")
    run_p.add_argument("--target-receiver", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--message-file", help="file holding the 0/1 message string")
    run_p.add_argument(
        "--random-message", type=int, metavar="BITS", help="send BITS random message bits"
    )
    run_p.add_argument("--mode", choices=("sample", "exact"), default="sample")
    run_p.add_argument("--abort-threshold", type=float, default=0.0)
    run_p.add_argument(
        "--all-subsets",
        action="store_true",
        help="draw variants from all receiver subsets instead of the standard n+1",
    )
    run_p.add_argument("--out", default=None, help="output directory")

    an_p = sub.add_parser("analyze", help="exact single-round analysis")
    an_p.add_argument("--parties", type=int, default=3)
    an_p.add_argument("--variant", default="psi1", help="variant name, e.g. psi2 or Psi4")
    an_p.add_argument(
        "--hadamard-positions",
        default=None,
        help="comma-separated receiver positions, overrides --variant",
    )
    an_p.add_argument("--payload", type=int, choices=(0, 1), default=None)
    an_p.add_argument("--attack", choices=sorted(_ATTACK_NAMES), default="none")
    an_p.add_argument("--target-receiver", type=int, default=None)
    an_p.add_argument(
        "--condition-bell",
        type=int,
        choices=(0, 1, 2, 3),
        default=None,
        help="condition the detection rate on the attacker's Bell outcome",
    )

    sub.add_parser("table1", help="print and verify the three-party recovery table")
    return parser


# built once per process; parsing leaves it unchanged, so every call shares it
_PARSER = _build_parser()


def _parse_variant(args) -> StateVariant:
    if args.hadamard_positions is not None:
        text = args.hadamard_positions
        try:
            positions = [int(p) for p in text.split(",") if p.strip()]
        except ValueError:  # int()'s message names neither the option nor its value
            raise ValueError(f"--hadamard-positions {text!r} should look like 2,4") from None
        return StateVariant(args.parties, positions)
    name = args.variant.strip().lower()
    if not name.startswith("psi"):
        raise ValueError(f"variant name {args.variant!r} should look like psi2")
    try:
        index = int(name[3:])
    except ValueError:
        raise ValueError(f"variant name {args.variant!r} should look like psi2") from None
    return StateVariant.from_index(args.parties, index)


def cmd_run(args) -> int:
    if args.message_file is not None and args.random_message is not None:
        raise ValueError("give at most one of --message-file and --random-message")
    if args.message_file is not None:
        try:
            with open(args.message_file, encoding="utf-8") as fh:
                message = "".join(fh.read().split())
        except UnicodeDecodeError as exc:  # its text names neither the file nor the flag
            raise ValueError(f"--message-file is not UTF-8 text ({exc})") from None
    elif args.random_message is not None:
        if args.random_message < 0:
            raise ValueError("--random-message must be non-negative")
        # both are checked before the draw: its memory grows with the size, and
        # numpy takes the seed as seed material
        check_message_size(args.random_message, args.rounds, args.check_fraction)
        check_seed(args.seed)
        rng = np.random.default_rng(np.random.SeedSequence((args.seed,)))
        message = "".join(str(b) for b in rng.integers(0, 2, size=args.random_message))
    else:
        message = ""
    config = SessionConfig(
        n=args.parties,
        rounds=args.rounds,
        check_fraction=args.check_fraction,
        attack=AttackModel(_ATTACK_NAMES[args.attack], args.target_receiver),
        seed=args.seed,
        mode=args.mode,
        abort_threshold=args.abort_threshold,
        message=message,
        all_subsets=args.all_subsets,
    )
    result = run_session(config)
    out_dir = args.out if args.out is not None else default_output_dir()
    write_outputs(result, out_dir)
    report = result.report
    ber = "n/a" if report.message_bit_error_rate is None else f"{report.message_bit_error_rate:.6f}"
    print(
        f"detected={str(report.detected).lower()} "
        f"check_error_rate={report.check_error_rate:.6f} message_ber={ber}"
    )
    return 0


def _table_text(payload: int, table: RecordTable) -> str:
    """One payload's joint distribution as ``analyze`` prints it.

    Lines run in ascending (alice_a, alice_A, signs, eve), each
    ``  alice_a=%d alice_A=%d signs=%s eve=%s  p=%.8f``.  A record's p is at
    most 1, so its text is always 10 characters and every line has the
    same width: the lines are rows of one byte array, copied from one
    template and overwritten column by column.  Each distinct p is
    formatted once, by ``%.8f``, and gathered into its rows.
    """
    order = np.lexsort((table.eve, table.index))
    index, eve, width = table.index[order], table.eve[order], table.width
    template = f"  alice_a=0 alice_A=0 signs={'+' * (width - 2)} eve=0  p=0.00000000\n"
    rows = np.empty((order.size, len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
    # each field's first column
    a, big_a, signs, e = (
        template.index(key) + len(key) for key in ("alice_a=", "alice_A=", "signs=", "eve=")
    )
    # each index's four bytes (the qubit cap keeps width under 32), most significant
    # first, as bits: the last width are the record's readout bits, alice_a first
    bits = np.unpackbits(index.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - width :]
    rows[:, a] = ord("0") + bits[:, 0]
    rows[:, big_a] = ord("0") + bits[:, 1]
    rows[:, signs : signs + width - 2] = ord("+") + 2 * bits[:, 2:]  # "+" and "-" are 2 apart
    rows[:, e] = np.where(eve < 0, ord("-"), ord("0") + eve)
    values, inverse = np.unique(table.p[order], return_inverse=True)
    text = ("%.8f" * values.size) % tuple(values.tolist())
    texts = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 10)
    rows[:, -11:-1] = texts.take(inverse, axis=0)
    return f"payload {payload} joint distribution:\n" + rows.tobytes().decode("ascii")


def cmd_analyze(args) -> int:
    variant = _parse_variant(args)
    attack = AttackModel(_ATTACK_NAMES[args.attack], args.target_receiver)
    # every figure is computed before the one write, so a failure leaves stdout empty
    tables = exact_tables(attack, variant)
    rate = conditional_detection_rate(tables, args.condition_bell)
    info = eve_mutual_information(tables)
    positions = ",".join(str(p) for p in sorted(variant.hadamard_positions)) or "none"
    target = f" target={attack.resolve_target(args.parties)}" if attack.active else ""
    text = [
        f"variant={variant.name} (hadamard positions: {positions}) "
        f"parties={args.parties} attack={attack.kind}{target}\n"
    ]
    payloads = (args.payload,) if args.payload is not None else (0, 1)
    text += [_table_text(payload, tables[payload]) for payload in payloads]
    condition = ""
    if args.condition_bell is not None:
        condition = f"  (conditioned on Bell outcome {args.condition_bell})"
    text.append(f"detection_rate = {rate:.8f}{condition}\n")
    text.append(f"eve_mutual_information = {info:.8f} bits\n")
    sys.stdout.write("".join(text))
    return 0


def cmd_table1(_args) -> int:
    print("alice_a  receiver_2  receiver_3  secret")
    ok = True
    for alice_a, signs, expected in RECOVERY_TABLE_3:
        got = recover_secret(alice_a, signs)
        s2, s3 = ("-" if s else "+" for s in signs)
        print(f"{alice_a}        {s2}           {s3}           {got}")
        if got != expected:
            ok = False
            print(
                f"mismatch: alice_a={alice_a} signs={signs} expected {expected} got {got}",
                file=sys.stderr,
            )
    return 0 if ok else 1


def piped(command, *args) -> int:
    """``command(*args)``'s exit code, or 1 once stdout's reader is gone, quietly."""
    try:
        code = command(*args)
        # a closed stdout must surface here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe in the ``signal`` docs: point stdout at devnull so the
        # interpreter's flush at exit cannot fail again, and exit 1 quietly
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stream without a descriptor, e.g. redirect_stdout
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = {"run": cmd_run, "analyze": cmd_analyze, "table1": cmd_table1}[args.command]
    try:
        return piped(command, args)
    except RegisterCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
