"""Exact security table for every attack/variant pair.

Prints, per attack kind and carrier variant: the single-round detection
probability, the attacker's mutual information about a uniform payload, and
the attacker's Bell-record distribution.  Everything here is enumerated
exactly; nothing is sampled, and each (attack, variant) pair runs the oracle
once per payload bit.
"""

import argparse

from ghzqss.attacks import (
    ATTACK_KINDS,
    AttackModel,
    conditional_detection_rate,
    eve_mutual_information,
    eve_record_distribution,
    exact_tables,
)
from ghzqss.cli import piped
from ghzqss.protocol import standard_variants


def format_distribution(dist):
    parts = []
    for key in sorted(dist, key=str):
        label = "none" if key is None else str(key)
        parts.append(f"{label}:{dist[key]:.4f}")
    return "{" + ", ".join(parts) + "}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parties", type=int, default=3)
    args = parser.parse_args()

    variants = standard_variants(args.parties)
    tables = {}
    for kind in ATTACK_KINDS[1:]:
        attack = AttackModel(kind)
        print(f"== {kind} (target receiver {attack.resolve_target(args.parties)}) ==")
        print(f"{'variant':>8}  {'detection':>9}  {'eve_info':>8}  bell record")
        rates = []
        for variant in variants:
            pair = tables[kind, variant] = exact_tables(attack, variant)
            rates.append(conditional_detection_rate(pair))
            info = eve_mutual_information(pair)
            dist = eve_record_distribution(pair[0])
            print(
                f"{variant.name:>8}  {rates[-1]:9.6f}  {info:8.6f}  {format_distribution(dist)}"
            )
        # the same mean, in the same order, as attacks.averaged_detection_rate
        print(f"variant-averaged detection rate: {sum(rates) / len(rates):.6f}")
        print()

    print("conditioned intercept rates (by the attacker's Bell outcome):")
    for vidx in (2, 3):
        variant = variants[vidx - 1]
        pair = tables["intercept_resend_bell", variant]
        for bell in sorted(eve_record_distribution(pair[0])):
            rate = conditional_detection_rate(pair, bell)
            print(f"  {variant.name} | bell={bell}: {rate:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(piped(main))
