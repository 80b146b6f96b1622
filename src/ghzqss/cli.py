"""Command-line front end.

Three subcommands: ``run`` executes a full session and writes transcript and
report files, ``analyze`` prints the exact single-round joint distribution
and security numbers for one variant/attack pair, ``table1`` prints and
verifies the eight-row recovery table for three parties.

``analyze`` prints each payload's table straight from the one affine form,
block by block: 1,024 lines doubled from one over the form's basis in
reduced echelon form, then each later block as those XOR one line's
pattern.  Every figure and basis is computed before the first write.

Exit codes, kept by ``piped`` for the subcommands and the scripts alike:
0 success, 1 recovery-table mismatch or stdout closed by its reader (e.g.
piped into ``head``), 2 usage or validation error, 3 register capacity
exceeded.  Nothing is written to stderr on success or when stdout is
closed.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from functools import reduce

import numpy as np

from .attacks import (
    AttackModel,
    RecordTable,
    conditional_detection_rate,
    eve_mutual_information,
    exact_table,
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


_BLOCK_BITS = 10  # a table's lines are rendered, and written, 2**10 = 1,024 at a time


def _clear(code: int, vector: int) -> int:  # the code without the vector's highest bit
    return min(code, code ^ vector)


def _table_chunks(table: RecordTable, payload: int) -> Iterator[str]:
    """One payload's table rows as ``analyze`` prints them below its heading, block by block.

    Lines run in ascending (alice_a, alice_A, signs, eve), each
    ``  alice_a=%d alice_A=%d signs=%s eve=%s  p=%.8f``.  A line's key, its
    record's code with the Bell bits moved below the readout bits, ascends in
    line order; the keys are the least base's XOR the span of the bases'
    differences and the vectors, a basis put in reduced echelon form before
    this returns, so binary counting over it lists them in order.  A key's
    bits change its line by XOR (1 on a digit, 6 between "+" and "-", the
    Bell bits on the eve digit), so the first 2**_BLOCK_BITS lines are doubled
    from the offset's, and each block is those XOR its high vectors' pattern.
    """
    width, tapped, p = table.width, table.tapped, f"{table.p:.8f}"

    def key(code: int) -> int:  # a Python int, so any width prints
        return (code & (1 << width) - 1) << 2 | code >> width

    def line(key: int) -> bytes:
        bits, eve = format(key >> 2, f"0{width}b"), key & 3 if tapped else "-"
        signs = bits[2:].replace("0", "+").replace("1", "-")
        return f"  alice_a={bits[0]} alice_A={bits[1]} signs={signs} eve={eve}  p={p}\n".encode()

    def pattern(key: int, count: int) -> np.ndarray:  # XOR turning key 0's line into key's, tiled
        xor = int.from_bytes(line(key), "big") ^ int.from_bytes(zero, "big")
        return np.frombuffer(xor.to_bytes(len(zero), "big") * count, np.uint8).reshape(count, -1)

    # RecordTable's vectors are reduced and no base holds their highest bits: reduce the rest
    bases, pivots, zero = table.bases_of(payload), [], line(0)
    for base in bases[1:]:
        if difference := reduce(_clear, pivots, key(base ^ bases[0])):
            pivots = [_clear(pivot, difference) for pivot in pivots] + [difference]
    basis = sorted([reduce(_clear, pivots, key(vector)) for vector in table.vectors] + pivots)
    offset, low, shifts = reduce(_clear, pivots, key(bases[0])), basis[:_BLOCK_BITS], [0]
    for vector in basis[_BLOCK_BITS:]:  # each block's combination of the high vectors
        shifts += [shift ^ vector for shift in shifts]
    rows = np.empty((1 << len(low), len(zero)), dtype=np.uint8)
    rows[0] = np.frombuffer(line(offset), dtype=np.uint8)
    for i, vector in enumerate(low):
        np.bitwise_xor(rows[: 1 << i], pattern(vector, 1 << i), out=rows[1 << i : 2 << i])
    # each block decoded from its array's buffer, with no bytes copy
    return (str(rows ^ pattern(shift, len(rows)), "ascii") for shift in shifts)


def cmd_analyze(args) -> int:
    variant = _parse_variant(args)
    attack = AttackModel(_ATTACK_NAMES[args.attack], args.target_receiver)
    # every figure and basis is computed before the first write, so a failure leaves stdout empty
    table = exact_table(attack, variant)
    rate = conditional_detection_rate(table, args.condition_bell)
    info = eve_mutual_information(table)
    payloads = (0, 1) if args.payload is None else (args.payload,)
    tables = [(payload, _table_chunks(table, payload)) for payload in payloads]
    positions = ",".join(str(p) for p in sorted(variant.hadamard_positions)) or "none"
    target = f" target={attack.resolve_target(args.parties)}" if attack.active else ""
    condition = ""
    if args.condition_bell is not None:
        condition = f"  (conditioned on Bell outcome {args.condition_bell})"
    write = sys.stdout.write
    write(
        f"variant={variant.name} (hadamard positions: {positions}) "
        f"parties={args.parties} attack={attack.kind}{target}\n"
    )
    # each block is rendered just before it is written, so one block's text is alive at a time
    for payload, chunks in tables:
        write(f"payload {payload} joint distribution:\n")
        for chunk in chunks:
            write(chunk)
    write(f"detection_rate = {rate:.8f}{condition}\n")
    write(f"eve_mutual_information = {info:.8f} bits\n")
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
    """``command(*args)``'s exit code; 1 once stdout's reader is gone, quietly, and 3 or
    2 after one ``error:`` line for a capacity or a validation or file error."""
    try:
        code = command(*args)
        # a closed stdout must surface here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so caught before the errors below
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
    except RegisterCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = {"run": cmd_run, "analyze": cmd_analyze, "table1": cmd_table1}[args.command]
    return piped(command, args)


if __name__ == "__main__":
    sys.exit(main())
