"""The oracle's tables and the security folds, bit for bit against per-record loops.

The references below walk one record at a time, from the dense oracle's
tables (``tests/reference.py``) as dicts, and add in table order, the way
a plain Python loop does.  The package's oracle and folds, which read
the affine form in closed form, must give exactly the same records in
the same order, and exactly the same floats (compared with ``==``): the
full-precision mutual information lands in ``report.json``, and
``analyze`` prints only 8 decimals, so no other test would see a last-ulp
drift.
"""

import dataclasses
import math

import numpy as np
import pytest

from ghzqss.attacks import (
    ATTACK_KINDS,
    AttackModel,
    conditional_detection_rate,
    eve_mutual_information,
    eve_record_distribution,
    exact_table,
)
from ghzqss.protocol import recover_secret, standard_variants
from records import random_form, table_dict
from reference import dense_round_analysis

CASES = [
    (n, vidx, kind)
    for n in (3, 4, 5, 6)
    for vidx in range(1, n + 2)
    for kind in ATTACK_KINDS
] + [(9, vidx, kind) for vidx in range(1, 11) for kind in ATTACK_KINDS[1:]]


def reference_table(variant, payload_bit, attack):
    """The dense oracle's table as {record: probability}, in table order."""
    return table_dict(dense_round_analysis(variant, payload_bit, attack))


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


def assert_equal_to_the_loops(table, reference):
    """A table's payloads and its folds equal the dicts and the loops over them, float for float."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.frame = 0
    for payload in (0, 1):
        assert list(table_dict(table, payload).items()) == list(reference[payload].items())
        assert list(eve_record_distribution(table).items()) == list(
            reference_record_distribution(reference[payload]).items()
        )
    # -1 is no Bell outcome, so conditioning on it must fail like any impossible one
    for condition in (None, -1, 0, 1, 2, 3):
        assert outcome(conditional_detection_rate, table, condition) == outcome(
            reference_detection_rate, reference, condition
        )
    assert eve_mutual_information(table) == reference_mutual_information(reference)


@pytest.mark.parametrize("n,vidx,kind", CASES, ids=str)
def test_oracle_and_folds_equal_the_per_record_loops(n, vidx, kind):
    attack = AttackModel(kind)
    variant = standard_variants(n)[vidx - 1]
    reference = {payload: reference_table(variant, payload, attack) for payload in (0, 1)}
    assert_equal_to_the_loops(exact_table(attack, variant), reference)


def random_table(rng, width=5):
    """A random tapped form with a random frame, and its two payloads as dicts.

    Payload 1's records are payload 0's with the frame XORed in, as the
    oracle's are, so each information term is 0 or its cell's mass.  Only
    forms with non-zero information are kept, i.e. forms whose frame flips
    the attacker's own sign: the protocol's own tables give him exactly zero.
    """
    while True:
        table = random_form(rng, width, True, int(rng.integers(width + 1)), int(rng.integers(3)))
        dicts = {payload: table_dict(table, payload) for payload in (0, 1)}
        if reference_mutual_information(dicts) > 0.0:
            return table, dicts


@pytest.mark.parametrize("seed", range(40))
def test_folds_equal_the_per_record_loops_on_random_tables(seed):
    # ten forms each, both payloads of each
    rng = np.random.default_rng(seed)
    for _ in range(10):
        assert_equal_to_the_loops(*random_table(rng))


def test_folds_equal_the_per_record_loops_on_every_drawn_form():
    # every form kept, tapped and untapped, widths 3 to 7: both branches of
    # each closed form, zero and one bit of information, rates at and off one half
    rng = np.random.default_rng(2024)
    info, rates = set(), set()
    for _ in range(400):
        table = random_form(rng, int(rng.integers(3, 8)), bool(rng.integers(2)))
        assert_equal_to_the_loops(table, {payload: table_dict(table, payload) for payload in (0, 1)})
        info.add(eve_mutual_information(table))
        rates.add(conditional_detection_rate(table))
    assert info == {0.0, 1.0}
    assert 0.5 in rates and {0.0, 1.0} <= rates


def test_an_impossible_condition_raises_in_both():
    # no record of an unattacked round carries a Bell outcome
    table = exact_table(AttackModel(), standard_variants(3)[0])
    dicts = {payload: table_dict(table, payload) for payload in (0, 1)}
    for fold, tables in ((conditional_detection_rate, table), (reference_detection_rate, dicts)):
        with pytest.raises(ValueError, match="zero probability"):
            fold(tables, 0)
