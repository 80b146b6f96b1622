"""Exact security table for every attack/variant pair.

Prints, per attack kind and carrier variant: the single-round detection
probability, the attacker's mutual information about a uniform payload, and
the attacker's Bell-record distribution, then each attack's rate averaged
over the variants (as ``attacks.averaged_detection_rate`` averages it, from
the tables already built).  Everything here is enumerated exactly; nothing is
sampled.
"""

import argparse

from ghzqss.attacks import (
    ATTACK_KINDS,
    AttackModel,
    conditional_detection_rate,
    eve_mutual_information,
    eve_record_distribution,
    exact_table,
    validate_round,
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
    attacks = [AttackModel(kind) for kind in ATTACK_KINDS[1:]]
    for attack in attacks:
        validate_round(args.parties, attack)  # before the first print, as in analyze
    tables = {}
    for attack in attacks:
        kind = attack.kind
        print(f"== {kind} (target receiver {attack.resolve_target(args.parties)}) ==")
        print(f"{'variant':>8}  {'detection':>9}  {'eve_info':>8}  bell record")
        rates = []
        for variant in variants:
            table = tables[kind, variant] = exact_table(attack, variant)
            rates.append(conditional_detection_rate(table))
            info = eve_mutual_information(table)
            dist = eve_record_distribution(table)
            print(f"{variant.name:>8}  {rates[-1]:9.6f}  {info:8.6f}  {format_distribution(dist)}")
        print(f"variant-averaged detection rate: {sum(rates) / len(rates):.6f}")
        print()

    print("conditioned intercept rates (by the attacker's Bell outcome):")
    for vidx in (2, 3):
        variant = variants[vidx - 1]
        table = tables["intercept_resend_bell", variant]
        for bell in sorted(eve_record_distribution(table)):
            rate = conditional_detection_rate(table, bell)
            print(f"  {variant.name} | bell={bell}: {rate:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(piped(main))
