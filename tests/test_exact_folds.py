"""The oracle's tables and the security folds, bit for bit against per-record loops.

The references below walk one record at a time and add in table order, the
way a plain Python loop does.  The package's oracle and folds must give
exactly the same records in the same order, and exactly the same floats
(compared with ``==``): the full-precision mutual information lands in
``report.json``, and ``analyze`` prints only 8 decimals, so no other test
would see a last-ulp drift.
"""

import math

import numpy as np
import pytest

from ghzqss import attacks
from ghzqss.attacks import (
    ATTACK_KINDS,
    AttackModel,
    RecordTable,
    conditional_detection_rate,
    eve_mutual_information,
    eve_record_distribution,
    exact_tables,
)
from ghzqss.protocol import recover_secret, standard_variants
from ghzqss.statevec import bell_projections, outcome_distribution
from records import distribution_dict, table_dict

CASES = [
    (n, vidx, kind)
    for n in (3, 4, 5, 6)
    for vidx in range(1, n + 2)
    for kind in ATTACK_KINDS
] + [(9, vidx, kind) for vidx in range(1, 11) for kind in ATTACK_KINDS[1:]]


def reference_table(variant, payload_bit, attack):
    """The oracle as one loop over Bell branches and readout outcomes."""
    state, tap = attacks._round_prefix(variant, payload_bit, attack)
    branches = [(None, 1.0, state)]
    if tap is not None:
        qubits, finish = tap
        branches = [
            (eve, p, finish(post))
            for eve, p, post in bell_projections(state, *qubits)
            if post is not None
        ]
    table = {}
    readout = attacks._readout(variant.n)
    for eve, weight, branch in branches:
        dist = distribution_dict(outcome_distribution(branch, readout), len(readout))
        for bits, p in dist.items():
            key = (bits[0], bits[1], bits[2:], eve)
            table[key] = table.get(key, 0.0) + weight * p
    return table


def reference_detection_rate(tables, condition=None):
    wrong = 0.0
    total = 0.0
    for payload in (0, 1):
        for (alice_a, _alice_A, signs, eve), p in tables[payload].items():
            if condition is not None and eve != condition:
                continue
            total += 0.5 * p
            if recover_secret(alice_a, signs) != payload:
                wrong += 0.5 * p
    if total == 0.0:
        raise ValueError("conditioning event has zero probability")
    return wrong / total


def reference_record_distribution(table):
    out = {}
    for (_a, _big_a, _signs, eve), p in table.items():
        out[eve] = out.get(eve, 0.0) + p
    return out


def reference_mutual_information(tables):
    if all(eve is None for table in tables.values() for (*_, eve) in table):
        return 0.0
    joint = {}
    for payload in (0, 1):
        for (_a, _big_a, signs, eve), p in tables[payload].items():
            key = ((eve, signs[0]), payload)
            joint[key] = joint.get(key, 0.0) + 0.5 * p
    obs_marginal = {}
    for (obs, _payload), p in joint.items():
        obs_marginal[obs] = obs_marginal.get(obs, 0.0) + p
    info = 0.0
    for (obs, _payload), p in joint.items():
        if p > 0.0:
            info += p * math.log2(p / (obs_marginal[obs] * 0.5))
    return max(info, 0.0)


def outcome(fn, *args):
    """``fn``'s value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_equal_to_the_loops(tables, reference):
    """Tables and folds equal the dicts and the loops over them, float for float."""
    for payload in (0, 1):
        assert list(table_dict(tables[payload]).items()) == list(reference[payload].items())
        for column in (tables[payload].index, tables[payload].eve, tables[payload].p):
            with pytest.raises(ValueError):
                column[0] = 0
        assert list(eve_record_distribution(tables[payload]).items()) == list(
            reference_record_distribution(reference[payload]).items()
        )
    # -1 is no Bell outcome, so conditioning on it must fail like any impossible one
    for condition in (None, -1, 0, 1, 2, 3):
        assert outcome(conditional_detection_rate, tables, condition) == outcome(
            reference_detection_rate, reference, condition
        )
    assert eve_mutual_information(tables) == reference_mutual_information(reference)


@pytest.mark.parametrize("n,vidx,kind", CASES, ids=str)
def test_oracle_and_folds_equal_the_per_record_loops(n, vidx, kind):
    attack = AttackModel(kind)
    variant = standard_variants(n)[vidx - 1]
    reference = {payload: reference_table(variant, payload, attack) for payload in (0, 1)}
    assert_equal_to_the_loops(exact_tables(attack, variant), reference)


def random_tables(rng, width=5):
    """A random pair of tables with every record live, and the same pair as dicts.

    The protocol's own tables give the attacker exactly zero information,
    so only tables like these make the information sum's order show.
    """
    tables, dicts = {}, {}
    for payload in (0, 1):
        eves = np.sort(rng.choice(4, size=rng.integers(1, 5), replace=False))
        blocks = [
            np.sort(rng.choice(1 << width, size=rng.integers(1, 12), replace=False))
            for _ in eves
        ]
        index = np.concatenate(blocks)
        eve = np.concatenate([np.full(block.size, e) for block, e in zip(blocks, eves)])
        p = rng.random(index.size)
        tables[payload] = RecordTable(width, index, eve, p / p.sum())
        dicts[payload] = {}
        for i, e, q in zip(index.tolist(), eve.tolist(), tables[payload].p.tolist()):
            bits = tuple(int(c) for c in format(i, f"0{width}b"))
            dicts[payload][bits[0], bits[1], bits[2:], e] = q
    return tables, dicts


@pytest.mark.parametrize("seed", range(40))
def test_folds_equal_the_per_record_loops_on_random_tables(seed):
    assert_equal_to_the_loops(*random_tables(np.random.default_rng(seed)))


def test_an_impossible_condition_raises_in_both():
    # no record of an unattacked round carries a Bell outcome
    tables = exact_tables(AttackModel(), standard_variants(3)[0])
    dicts = {payload: table_dict(table) for payload, table in tables.items()}
    for fold, pair in ((conditional_detection_rate, tables), (reference_detection_rate, dicts)):
        with pytest.raises(ValueError, match="zero probability"):
            fold(pair, 0)
