"""Empirical detection rates versus the exact oracle.

Runs sampled sessions under each attack and compares the measured check
error rate with the variant-averaged rate from exact enumeration, reporting
the deviation in standard errors.
"""

import argparse
import math

from ghzqss.attacks import ATTACK_KINDS, AttackModel, averaged_detection_rate
from ghzqss.cli import piped
from ghzqss.protocol import check_round_count
from ghzqss.session import SessionConfig, run_session


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parties", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=4000)
    parser.add_argument("--check-fraction", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--abort-threshold", type=float, default=0.05)
    args = parser.parse_args()

    checks = check_round_count(args.rounds, args.check_fraction)
    print(
        f"{args.rounds} rounds, {checks} checks, seed {args.seed}, "
        f"abort threshold {args.abort_threshold}"
    )
    print(f"{'attack':>22}  {'exact':>7}  {'measured':>8}  {'sigma':>6}  detected")
    for kind in ATTACK_KINDS:
        attack = AttackModel(kind)
        expected = averaged_detection_rate(attack, args.parties)
        config = SessionConfig(
            n=args.parties,
            rounds=args.rounds,
            check_fraction=args.check_fraction,
            attack=attack,
            seed=args.seed,
            abort_threshold=args.abort_threshold,
        )
        report = run_session(config).report
        if expected in (0.0, 1.0):
            sigma_text = "   n/a"
            agreement = report.check_error_rate == expected
        else:
            se = math.sqrt(expected * (1 - expected) / checks)
            sigmas = abs(report.check_error_rate - expected) / se
            sigma_text = f"{sigmas:6.2f}"
            agreement = sigmas <= 3
        flag = "" if agreement else "  <-- outside 3 standard errors"
        print(
            f"{kind:>22}  {expected:7.4f}  {report.check_error_rate:8.4f}  "
            f"{sigma_text}  {str(report.detected).lower()}{flag}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(piped(main))
