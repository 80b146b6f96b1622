"""The scalar session planner: the reference ``protocol.plan_sequences`` is pinned to.

It draws round by round, one ``Generator.integers`` call per bounded
draw, and returns one ``RoundPlan`` per round.  ``plan_columns`` turns its
plans into the (masks, check, payloads) columns the package returns.
``scalar_schedule`` is the same kind of reference for
``protocol.announcement_schedule``: one dict entry per check round.
"""

import numpy as np

from ghzqss.protocol import RoundPlan, StateVariant, check_message, standard_variants


def random_variant(n, rng, all_subsets=False):
    if all_subsets:
        mask = int(rng.integers(0, 1 << (n - 1)))
        positions = {p for p in range(2, n + 1) if (mask >> (p - 2)) & 1}
        return StateVariant(n, positions)
    return standard_variants(n)[int(rng.integers(1, n + 2)) - 1]


def scalar_plan(num_rounds, check_fraction, message, n, rng, all_subsets=False):
    """Roles, payloads and variants of ``num_rounds`` rounds, drawn one round at a time."""
    num_check = check_message(message, num_rounds, check_fraction)
    check_rounds = set(int(i) for i in rng.permutation(num_rounds)[:num_check])
    plans = []
    cursor = 0
    for i in range(num_rounds):
        variant = random_variant(n, rng, all_subsets)
        if i in check_rounds:
            role, payload = "check", int(rng.integers(2))
        else:
            role = "message"
            if cursor < len(message):
                payload = int(message[cursor])
                cursor += 1
            else:
                payload = int(rng.integers(2))
        plans.append(RoundPlan(i, variant, role, payload))
    return plans


def scalar_schedule(check_indices, n, rng):
    """Each check round's receiver order, keyed by round index, drawn one round at a time."""
    indices = sorted(int(i) for i in check_indices)
    schedule = {}
    if n == 3:
        shuffled = rng.permutation(len(indices))
        bob_first = {indices[j] for j in shuffled[: len(indices) // 2]}
        for i in indices:
            schedule[i] = (2, 3) if i in bob_first else (3, 2)
    else:
        for i in indices:
            order = rng.permutation(n - 1) + 2
            schedule[i] = tuple(int(r) for r in order)
    return schedule


def plan_columns(plans):
    """The plans as (masks, check, payloads) lists."""
    return (
        [p.variant.mask for p in plans],
        [p.role == "check" for p in plans],
        [p.payload_bit for p in plans],
    )


def round_plans(n, masks, check, payloads):
    """The columns as one ``RoundPlan`` per round."""
    columns = (np.asarray(column).tolist() for column in (masks, check, payloads))
    return [
        RoundPlan(i, StateVariant.from_mask(n, mask), "check" if role else "message", payload)
        for i, (mask, role, payload) in enumerate(zip(*columns))
    ]
