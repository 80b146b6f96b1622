"""Closed-form checks on every command's output.

Each check returns a list of problems; an empty list means the command
passed.  The checks hold for any seed and never call into `ghzqss`, so a
traced run does not see them and a broken program cannot vouch for itself.
The output bytes are also compared with reference digests recorded from a
known-good commit: `analyze` output at any seed, session files at the
reference seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Family-wise false-alarm rate of the binomial checks over one benchmark
# run, split evenly (Bonferroni) over at most MAX_CHECKS_PER_RUN checks.
FAMILY_ALPHA = 1e-9
MAX_CHECKS_PER_RUN = 100_000
CHECK_ALPHA = FAMILY_ALPHA / MAX_CHECKS_PER_RUN

# `analyze` prints probabilities with 8 decimals, so each printed value is
# within half a unit in the last place of the exact one.
PRINT_HALF_ULP = 5e-9
SUM_ATOL = 1e-9

TRANSCRIPT_NAME = "transcript.jsonl"
REPORT_NAME = "report.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parity(alice_a: int, signs) -> int:
    bit = alice_a
    for s in signs:
        bit ^= s
    return bit & 1


def expected_check_error_rate(attack: str, parties: int) -> float:
    """Check-round error rate averaged over the uniform variant draw.

    Intercept-resend on the default target (the last receiver) is caught
    with probability 1/2 on exactly two of the n+1 variants; the collective
    attacks are caught with probability 1/2 on every variant.
    """
    if attack == "none":
        return 0.0
    if attack == "intercept-resend":
        return 1.0 / (parties + 1)
    return 0.5


def expected_detection_rate(attack: str, parties: int, variant: int) -> float:
    """Single-check-round detection rate of one standard variant."""
    if attack == "none":
        return 0.0
    if attack == "intercept-resend":
        return 0.5 if variant in (2, parties) else 0.0
    return 0.5


def binomial_interval(m: int, p: float, alpha: float) -> tuple[int, int]:
    """Acceptance region [lo, hi] for Binomial(m, p) with tail mass <= alpha/2 each side."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return m, m
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(
            math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * log_p + (m - k) * log_q
        )
        for k in range(m + 1)
    ]
    lo, below = 0, 0.0
    while lo < m and below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = m, 0.0
    while hi > 0 and above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def check_run(cmd, rc, stdout: str, stderr: str, out_dir: str, reference: dict | None) -> list[str]:
    """Check one `ghzqss run` session from its exit code, stdout and files."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    problems = []
    if stderr:
        problems.append("stderr not empty on success")
    try:
        with open(os.path.join(out_dir, TRANSCRIPT_NAME), "rb") as fh:
            transcript_bytes = fh.read()
        with open(os.path.join(out_dir, REPORT_NAME), "rb") as fh:
            report_bytes = fh.read()
    except OSError as exc:
        return problems + [f"missing output: {exc}"]
    if reference is not None:
        if sha256(transcript_bytes) != reference["transcript"]:
            problems.append("transcript digest differs from the reference")
        if sha256(report_bytes) != reference["report"]:
            problems.append("report digest differs from the reference")
    try:
        report = json.loads(report_bytes)
        records = [json.loads(line) for line in transcript_bytes.decode().splitlines()]
    except (ValueError, UnicodeDecodeError) as exc:
        return problems + [f"unreadable output: {exc}"]

    config = report.get("config", {})
    if (config.get("n"), config.get("rounds"), config.get("message")) != (
        cmd.parties, cmd.rounds, cmd.message
    ):
        problems.append("report config does not match the command")
    if [r.get("round_index") for r in records] != list(range(cmd.rounds)):
        return problems + ["transcript does not hold one record per round in order"]

    num_checks = errors = 0
    message_bits = []
    try:
        for r in records:
            signs = [{"+": 0, "-": 1}[c] for c in r["receiver_signs"]]
            if len(signs) != cmd.parties - 1:
                raise ValueError("wrong sign count")
            if (r["eve_record"] is None) != (cmd.attack == "none"):
                raise ValueError("attacker record present without an attack or missing")
            bit = parity(r["alice_a"], signs)
            if r["role"] == "check":
                num_checks += 1
                errors += bit != r["payload_bit"]
            elif r["role"] == "message":
                message_bits.append(str(bit))
            else:
                raise ValueError(f"unknown role {r['role']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"malformed transcript record: {exc}"]

    if num_checks != math.ceil(cmd.rounds / 2):
        problems.append(f"{num_checks} check rounds, expected {math.ceil(cmd.rounds / 2)}")
    rate = errors / num_checks if num_checks else float("nan")
    if report.get("check_error_rate") != rate:
        problems.append("report check_error_rate disagrees with the transcript")
    detected = rate > 0.0  # the commands use the default abort threshold of 0
    if report.get("detected") is not detected:
        problems.append("report verdict disagrees with the check error rate")

    if detected:
        recovered, ber = None, None
    else:
        recovered = "".join(message_bits[: len(cmd.message)])
        wrong = sum(a != b for a, b in zip(recovered, cmd.message))
        ber = wrong / len(cmd.message) if cmd.message else 0.0
    if report.get("recovered_message") != recovered or report.get("message_bit_error_rate") != ber:
        problems.append("report recovery disagrees with the transcript")
    ber_text = "n/a" if ber is None else f"{ber:.6f}"
    summary = f"detected={str(detected).lower()} check_error_rate={rate:.6f} message_ber={ber_text}"
    if stdout != summary + "\n":
        problems.append("summary line disagrees with the report")

    if cmd.attack == "none":
        if detected or recovered != cmd.message:
            problems.append("clean session did not recover the message exactly")
    else:
        rate_expected = expected_check_error_rate(cmd.attack, cmd.parties)
        lo, hi = binomial_interval(num_checks, rate_expected, CHECK_ALPHA)
        if not lo <= errors <= hi:
            problems.append(f"{errors} check errors of {num_checks} outside [{lo}, {hi}]")

    mi = report.get("eve_mutual_information")
    if cmd.exact:
        if not isinstance(mi, float) or abs(mi) > SUM_ATOL:
            problems.append(f"eve_mutual_information = {mi!r}, expected 0")
    elif mi is not None:
        problems.append("sample-mode report carries eve_mutual_information")
    return problems


def check_analyze(cmd, rc, stdout: str, stderr: str, reference: str | None) -> list[str]:
    """Check one `ghzqss analyze` command from its exit code and stdout."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    problems = []
    if stderr:
        problems.append("stderr not empty on success")
    if reference is not None and sha256(stdout.encode()) != reference:
        problems.append("stdout digest differs from the reference")
    lines = stdout.splitlines()
    if not lines or f"parties={cmd.parties} " not in lines[0]:
        return problems + ["missing or wrong header line"]

    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    payload = None
    rate = info = None
    try:
        for line in lines[1:]:
            if line.startswith("payload "):
                payload = int(line.split()[1])
                sums[payload], counts[payload] = 0.0, 0
            elif line.startswith("  alice_a="):
                sums[payload] += float(line.rsplit("p=", 1)[1])
                counts[payload] += 1
            elif line.startswith("detection_rate = "):
                rate = float(line.split()[2])
            elif line.startswith("eve_mutual_information = "):
                info = float(line.split()[2])
            else:
                raise ValueError(f"unexpected line {line[:80]!r}")
    except (IndexError, KeyError, ValueError) as exc:
        return problems + [f"unparsable output: {exc}"]

    if sorted(sums) != [0, 1]:
        problems.append("expected one table per payload")
    for p, total in sums.items():
        tolerance = SUM_ATOL + PRINT_HALF_ULP * counts[p]
        if abs(total - 1.0) > tolerance:
            problems.append(f"payload {p} table sums to {total!r}, not 1 within {tolerance:g}")
    expected = expected_detection_rate(cmd.attack, cmd.parties, cmd.variant)
    if rate is None or abs(rate - expected) > PRINT_HALF_ULP:
        problems.append(f"detection_rate = {rate!r}, expected {expected}")
    if info is None or abs(info) > PRINT_HALF_ULP:
        problems.append(f"eve_mutual_information = {info!r}, expected 0")
    return problems
