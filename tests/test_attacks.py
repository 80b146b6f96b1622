"""Attack physics against the exact single-round oracle.

Every numeric constant in this file was frozen from exact_round_analysis
runs (exact enumeration, no sampling) before the tests were written; the
tests guard those values as regressions.
"""

import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqss.attacks import (
    ATTACK_KINDS,
    AttackModel,
    averaged_detection_rate,
    class_tables,
    conditional_detection_rate,
    draws_per_round,
    eve_mutual_information,
    eve_record_distribution,
    exact_round_analysis,
    exact_table,
    route_rounds,
    run_round,
    tap_collective,
    tapped_positions,
)
from ghzqss.protocol import (
    RoundPlan,
    StateVariant,
    plan_sequences,
    prepare_variant,
    receiver_correction,
    recover_secret,
    standard_variants,
)
from ghzqss import attacks, session, statevec
from ghzqss.cli import _table_chunks
from ghzqss.session import SessionConfig
from ghzqss.statevec import RegisterCapacityError, outcome_distribution
from records import (
    assert_same_table,
    distribution_dict,
    expand,
    random_form,
    record_counts,
    row_records,
    table_dict,
)
from reference import dense_round_analysis

RT2 = math.sqrt(2.0)

INTERCEPT = AttackModel("intercept_resend_bell")
CNOT = AttackModel("collective_cnot")
HCNOT = AttackModel("collective_h_cnot")

V = {k: StateVariant.from_index(3, k) for k in (1, 2, 3, 4)}

# per-variant single-round detection rates at n=3, uniform payload
DETECTION_RATES = {
    "intercept_resend_bell": (0.0, 0.5, 0.5, 0.0),
    "collective_cnot": (0.5, 0.5, 0.5, 0.5),
    "collective_h_cnot": (0.5, 0.5, 0.5, 0.5),
}

# attacker Bell-record distributions at n=3, identical for both payloads
BELL_DISTRIBUTIONS = {
    ("intercept_resend_bell", 1): {0: 0.5, 1: 0.5},
    ("intercept_resend_bell", 2): {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    ("intercept_resend_bell", 3): {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    ("intercept_resend_bell", 4): {0: 0.5, 2: 0.5},
    ("collective_cnot", 1): {0: 0.5, 1: 0.5},
    ("collective_cnot", 2): {0: 0.5, 1: 0.5},
    ("collective_cnot", 3): {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    ("collective_cnot", 4): {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    ("collective_h_cnot", 1): {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    ("collective_h_cnot", 2): {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    ("collective_h_cnot", 3): {0: 0.5, 1: 0.5},
    ("collective_h_cnot", 4): {0: 0.5, 1: 0.5},
}

# collapsed three-qubit states after the intercept tap on the psi2 carrier
# (Bell measurement on qubits 1 and 2), one per Bell outcome, p = 1/4 each
PSI2_TAP_STATES = {
    0: np.array([1, 0, 0, 1, -1, 0, 0, -1]) / 2.0,
    1: np.array([1, 0, 0, -1, 1, 0, 0, -1]) / 2.0,
    2: np.array([0, 1, 1, 0, 0, 1, 1, 0]) / 2.0,
    3: np.array([0, -1, 1, 0, 0, 1, -1, 0]) / 2.0,
}


class ReplayRng:
    """Feeds a recorded list of uniforms to code expecting a Generator."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


# --------------------------------------------------------------- attack model


def test_attack_model_validation():
    with pytest.raises(ValueError):
        AttackModel("jamming")
    assert not AttackModel().active
    assert AttackModel("collective_cnot").collective
    assert not AttackModel("intercept_resend_bell").collective


def test_resolve_target():
    assert AttackModel("collective_cnot").resolve_target(5) == 5
    assert AttackModel("collective_cnot", 3).resolve_target(5) == 3
    with pytest.raises(ValueError):
        AttackModel("collective_cnot", 6).resolve_target(5)
    with pytest.raises(ValueError):
        AttackModel("intercept_resend_bell", 2).resolve_target(3)
    assert AttackModel("collective_cnot", 2).resolve_target(3) == 2


def test_draws_per_round():
    assert draws_per_round(AttackModel(), 3) == 4
    assert draws_per_round(INTERCEPT, 3) == 5
    assert draws_per_round(CNOT, 4) == 6


# ------------------------------------------------------------------- the taps


@pytest.mark.parametrize("bell", range(4))
def test_intercept_tap_collapse_on_psi2(bell):
    state = prepare_variant(V[2])
    u = 0.25 * bell + 0.1  # lands inside outcome `bell` of the uniform quartiles
    outcome, post = statevec.measure_bell(state, 1, 2, u)
    assert outcome.value == bell
    np.testing.assert_allclose(post.amps, PSI2_TAP_STATES[bell], atol=1e-12)


def test_collective_cnot_tap_extends_ghz():
    tapped = tap_collective(prepare_variant(V[1]), 2, with_hadamard=False)
    expected = np.zeros(16)
    expected[0b0000] = expected[0b1111] = 1 / RT2
    np.testing.assert_allclose(tapped.amps, expected, atol=1e-12)


def test_collective_h_cnot_tap_on_psi3():
    # sandwich H-CNOT-H copies the X arm: (|00+0> + |11-1>)/sqrt2
    tapped = tap_collective(prepare_variant(V[3]), 2, with_hadamard=True)
    expected = np.zeros(16)
    expected[0b0000] = expected[0b0010] = 0.5
    expected[0b1101], expected[0b1111] = 0.5, -0.5
    np.testing.assert_allclose(tapped.amps, expected, atol=1e-12)
    # the receiver's own correction then turns it into the clean 4-GHZ
    fixed = receiver_correction(tapped, V[3])
    ghz4 = np.zeros(16)
    ghz4[0] = ghz4[15] = 1 / RT2
    np.testing.assert_allclose(fixed.amps, ghz4, atol=1e-12)


def test_collective_cnot_is_z_transparent():
    # without variant Hadamards or encoding, the legitimate Z statistics are
    # untouched by the probe: the tap commutes with the Z-branch structure
    plan = [(0, "Z"), (1, "Z"), (2, "Z")]
    clean = distribution_dict(outcome_distribution(prepare_variant(V[1]), plan), len(plan))
    tapped = distribution_dict(
        outcome_distribution(tap_collective(prepare_variant(V[1]), 2, False), plan), len(plan)
    )
    assert tapped.keys() == clean.keys()
    for bits, p in clean.items():
        assert tapped[bits] == pytest.approx(p, abs=1e-12)


# ------------------------------------------------------------- exact analysis


def test_exact_analysis_clean_round_is_uniform_on_support():
    table = table_dict(exact_round_analysis(V[1], 0, AttackModel()))
    assert len(table) == 8
    for (a, _big, signs, eve), p in table.items():
        assert eve is None
        assert p == pytest.approx(0.125)
        assert recover_secret(a, signs) == 0


@pytest.mark.parametrize("kind", ATTACK_KINDS[1:])
@pytest.mark.parametrize("vidx", (1, 2, 3, 4))
@pytest.mark.parametrize("payload", (0, 1))
def test_exact_analysis_is_a_distribution(kind, vidx, payload):
    table = table_dict(exact_round_analysis(V[vidx], payload, AttackModel(kind)))
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0 for p in table.values())


@pytest.mark.parametrize("n", range(3, 10))
def test_tableau_oracle_equals_the_dense_reference(n):
    # every attack, both payloads, every standard variant and three random
    # subset masks; every valid target up to n = 6, the default one above
    masks = np.random.default_rng(n).integers(1 << (n - 1), size=3).tolist()
    variants = [*standard_variants(n), *(StateVariant.from_mask(n, mask) for mask in masks)]
    for kind in ATTACK_KINDS:
        first = 2 + (kind == "intercept_resend_bell")
        for target in range(first, n + 1) if n <= 6 else (None,):
            attack = AttackModel(kind, target)
            for variant in variants:
                for payload in (0, 1):
                    assert_same_table(
                        exact_round_analysis(variant, payload, attack),
                        dense_round_analysis(variant, payload, attack),
                    )


@pytest.mark.parametrize("kind", ATTACK_KINDS)
@pytest.mark.parametrize("n", (12, 14))
def test_tableau_oracle_equals_the_dense_reference_all_hadamard(n, kind):
    # the largest tables: every receiver holds an X-basis arm
    variant, attack = StateVariant.from_index(n, n + 1), AttackModel(kind)
    for payload in (0, 1):
        assert_same_table(
            exact_round_analysis(variant, payload, attack),
            dense_round_analysis(variant, payload, attack),
        )


@pytest.mark.parametrize("kind", ATTACK_KINDS)
@pytest.mark.parametrize("n", range(3, 10))
def test_oracle_forms_keep_the_affine_invariants(n, kind):
    # the rules route_rounds and the folds read a form by: ascending,
    # distinct bases, one per live Bell record, under either payload; each
    # readout vector's highest bit, its draw's column, is held by no other
    # vector, no base and the frame; the frame holds no Bell bit either
    masks = np.random.default_rng(n).integers(1 << (n - 1), size=3).tolist()
    variants = [*standard_variants(n), *(StateVariant.from_mask(n, mask) for mask in masks)]
    attack = AttackModel(kind)
    for variant in variants:
        table = exact_table(attack, variant)
        assert table.tapped == attack.active
        assert 0 <= table.frame < 1 << table.width, variant
        for payload in (0, 1):
            bases = table.bases_of(payload)
            assert list(bases) == sorted(set(bases))
            assert len(bases) in ((1, 2, 4) if table.tapped else (1,))
            for i, vector in enumerate(table.vectors):
                assert 0 < vector < 1 << table.width
                top = 1 << vector.bit_length() - 1
                others = table.vectors[:i] + table.vectors[i + 1 :] + bases + (table.frame,)
                assert not any(other & top for other in others), variant


def test_oracle_peak_memory_stays_within_three_tables():
    # the oracle keeps the affine form, so at n=14 the collective-CNOT table
    # of the all-Hadamard variant (2^17 records per payload) is built in
    # under 64 KiB; ``analyze`` prints a payload straight from the form in
    # 1,024-line blocks, peaking at a few blocks (the first block's rows, a
    # block's pattern, its rows and their decoded text), not at the table
    tracemalloc.start()
    try:
        table = exact_table(CNOT, StateVariant.from_index(14, 15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 10
    tracemalloc.start()
    try:
        [chunks] = _table_chunks(table, (0,))
        lines = [chunk.count("\n") for chunk in chunks]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == [1024] * 128
    assert peak <= 5 * 1024 * len("  alice_a=0 alice_A=0 signs=+++++++++++++ eve=0  p=0.00000763\n")


def test_exact_analysis_validation():
    with pytest.raises(ValueError):
        exact_round_analysis(V[1], 2, AttackModel())
    with pytest.raises(RegisterCapacityError):
        exact_round_analysis(StateVariant.from_index(23, 1), 0, AttackModel("collective_cnot"))


@pytest.mark.parametrize("kind,rates", sorted(DETECTION_RATES.items()))
def test_detection_rates_per_variant(kind, rates):
    attack = AttackModel(kind)
    for vidx, expected in zip((1, 2, 3, 4), rates):
        assert conditional_detection_rate(exact_table(attack, V[vidx])) == pytest.approx(
            expected, abs=1e-10
        )


def test_averaged_detection_rates():
    assert averaged_detection_rate(AttackModel(), 3) == pytest.approx(0.0, abs=1e-12)
    assert averaged_detection_rate(INTERCEPT, 3) == pytest.approx(0.25, abs=1e-10)
    assert averaged_detection_rate(CNOT, 3) == pytest.approx(0.5, abs=1e-10)
    assert averaged_detection_rate(HCNOT, 3) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("kind", ATTACK_KINDS[1:])
@pytest.mark.parametrize("n", range(3, 13))
def test_exact_rates_are_dyadic(kind, n):
    # every round is Clifford and statevec reports dyadic probabilities
    # exactly, so each variant's rate is exactly 0 or 1/2 and the averages
    # are 1/(n+1) for intercept-resend (1/2 on the two variants that give
    # one of receiver 2 and the target an X arm) and 1/2 for the
    # collective attacks
    attack = AttackModel(kind)
    rates = []
    for variant in standard_variants(n):
        table = exact_table(attack, variant)
        rates.append(Fraction(conditional_detection_rate(table)))
        assert set(eve_record_distribution(table).values()) <= {0.25, 0.5, 1.0}
    assert set(rates) <= {Fraction(0), Fraction(1, 2)}
    if attack.collective:
        assert averaged_detection_rate(attack, n) == 0.5
    else:
        assert [index for index, rate in enumerate(rates, 1) if rate] == [2, n]  # psi_2, psi_n
        assert averaged_detection_rate(attack, n) == 1 / (n + 1)


# tables per session, one per class of the standard variants, at any n
CLASS_COUNTS = {"none": 1, "intercept_resend_bell": 4, "collective_cnot": 2, "collective_h_cnot": 2}


@pytest.mark.parametrize("n", range(3, 10))
def test_every_mask_shares_its_tapped_class_table(n):
    # a variant's arm on a receiver the attack leaves alone meets its
    # correction with no gate between them, so every mask's table == the
    # table of its tapped bits, and each such class holds a standard
    # variant: class_tables keys one table per class, in standard order
    targets = (2, 3, 9) if n == 9 else range(2, n + 1)
    attacks_here = [AttackModel()] + [
        AttackModel(kind, target)
        for kind in ATTACK_KINDS[1:] for target in targets
        if kind != "intercept_resend_bell" or target != 2
    ]
    for attack in attacks_here:
        target = attack.resolve_target(n)
        tapped = tapped_positions(attack, n)
        assert tapped == attack.active * (1 << target - 2 | (attack.kind == "intercept_resend_bell"))
        classes = list(dict.fromkeys(v.mask & tapped for v in standard_variants(n)))
        assert len(classes) == CLASS_COUNTS[attack.kind]
        tables = class_tables(attack, n)
        assert list(tables) == classes
        for mask in range(1 << n - 1):  # every member of every class, each key among them
            table = exact_table(attack, StateVariant.from_mask(n, mask))
            assert table == tables[mask & tapped], (attack, mask)


@pytest.mark.parametrize("n", range(3, 8))
def test_all_subsets_detection_rates_average_a_quarter_and_a_half(n):
    # over all 2^(n-1) masks, one of the two intercepted arms is X on half of them
    for attack, expected in ((INTERCEPT, 0.25), (CNOT, 0.5), (HCNOT, 0.5)):
        rates = [
            conditional_detection_rate(exact_table(attack, StateVariant.from_mask(n, mask)))
            for mask in range(1 << n - 1)
        ]
        assert sum(rates) / len(rates) == expected


def test_conditioned_intercept_rates():
    psi2, psi3 = exact_table(INTERCEPT, V[2]), exact_table(INTERCEPT, V[3])
    assert conditional_detection_rate(psi2, 0) == pytest.approx(0.5, abs=1e-10)
    assert conditional_detection_rate(psi3, 0) == pytest.approx(0.5, abs=1e-10)
    assert conditional_detection_rate(psi2, 1) == pytest.approx(0.5, abs=1e-10)


def test_conditioning_on_impossible_outcome_raises():
    # the psi1 intercept record never reads 3, and a clean round has none
    with pytest.raises(ValueError):
        conditional_detection_rate(exact_table(INTERCEPT, V[1]), 3)
    with pytest.raises(ValueError):
        conditional_detection_rate(exact_table(AttackModel(), V[1]), 0)


@pytest.mark.parametrize("key,expected", sorted(BELL_DISTRIBUTIONS.items()))
def test_eve_record_distributions(key, expected):
    kind, vidx = key
    for payload in (0, 1):
        dist = eve_record_distribution(exact_round_analysis(V[vidx], payload, AttackModel(kind)))
        assert set(dist) == set(expected)
        for bell, p in expected.items():
            assert dist[bell] == pytest.approx(p, abs=1e-10)


def test_clean_round_has_no_record():
    table = exact_round_analysis(V[1], 0, AttackModel())
    assert eve_record_distribution(table) == pytest.approx({None: 1.0})


@pytest.mark.parametrize("n", range(3, 9))
def test_standard_tables_carry_exactly_zero_information(n):
    # in every standard table a vector holds the attacker's own sign, a fresh
    # random readout, and no frame holds it: the fold is exactly 0.0, for
    # every attack, every valid target and every standard variant
    for kind in ATTACK_KINDS:
        for target in range(2 + (kind == "intercept_resend_bell"), n + 1):
            attack = AttackModel(kind, target)
            for variant in standard_variants(n):
                assert eve_mutual_information(exact_table(attack, variant)) == 0.0, (kind, target)


@pytest.mark.parametrize(
    "kind,vidx", [("collective_cnot", 1), ("collective_cnot", 2), ("collective_h_cnot", 3), ("collective_h_cnot", 4)]
)
def test_matched_collective_key_identity(kind, vidx):
    # on a matched tap the target receiver's sign, the sender's a bit and the
    # attacker's Bell phase always XOR to the payload; the attacker's own
    # announced sign is independent noise
    attack = AttackModel(kind)
    for payload in (0, 1):
        table = table_dict(exact_round_analysis(V[vidx], payload, attack))
        own = {0: 0.0, 1: 0.0}
        for (a, _big, signs, eve), p in table.items():
            assert a ^ eve ^ signs[-1] == payload
            own[signs[0]] += p
        assert own[0] == pytest.approx(0.5, abs=1e-10)


# ------------------------------------------------------------ sampling parity


def test_run_round_clean_and_deterministic():
    plan = RoundPlan(3, V[2], "message", 1)
    out1 = run_round(plan, AttackModel(), np.random.default_rng(77))
    out2 = run_round(plan, AttackModel(), np.random.default_rng(77))
    assert out1 == out2
    (alice_a, _alice_A, *signs), eve = out1
    assert eve == -1
    assert recover_secret(alice_a, signs) == 1


def test_run_round_attack_records():
    plan = RoundPlan(5, V[2], "check", 0)
    for attack in (INTERCEPT, CNOT):
        _bits, eve = run_round(plan, attack, np.random.default_rng(1))
        assert eve in range(4)


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_run_round_consumes_exactly_the_declared_draws(kind):
    attack = AttackModel(kind)
    draws = [0.3] * draws_per_round(attack, 3)
    rng = ReplayRng(draws)
    run_round(RoundPlan(0, V[4], "check", 0), attack, rng)
    assert rng.draws == []


def replayed_record(variant, payload, attack, row):
    bits, eve = run_round(RoundPlan(0, variant, "check", payload), attack, ReplayRng(row))
    return row_records([bits], [eve])[0]


def routed_records(variant, payloads, attack, us):
    """Each row's record from one sampler call on the variant's table, in row order."""
    payloads = np.broadcast_to(payloads, len(us))
    return row_records(*route_rounds(exact_table(attack, variant), payloads, us))


@pytest.mark.parametrize("kind", ATTACK_KINDS)
@pytest.mark.parametrize("vidx", (1, 2, 3, 4))
def test_bulk_sampler_replays_run_round_exactly(kind, vidx):
    # one call samples a mixed payload column, as a session's variant does
    attack = AttackModel(kind)
    variant = V[vidx]
    rng = np.random.default_rng((kind == "none", vidx))
    us = rng.random((96, draws_per_round(attack, 3)))
    payloads = rng.integers(2, size=96)
    assert set(payloads.tolist()) == {0, 1}
    expected = [replayed_record(variant, int(p), attack, row) for p, row in zip(payloads, us)]
    assert routed_records(variant, payloads, attack, us) == expected


# 0, the dyadic cumulative branch probabilities of n=3 rounds (many computed
# thresholds equal them exactly, so draws tie), and the largest double below 1
BOUNDARY_DRAWS = (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(ATTACK_KINDS),
    vidx=st.sampled_from((1, 2, 3, 4)),
    payload=st.sampled_from((0, 1)),
    data=st.data(),
)
def test_bulk_sampler_resolves_boundary_draws_like_run_round(kind, vidx, payload, data):
    attack = AttackModel(kind)
    variant = V[vidx]
    width = draws_per_round(attack, 3)
    draw = st.lists(st.sampled_from(BOUNDARY_DRAWS), min_size=width, max_size=width)
    us = np.array(data.draw(st.lists(draw, min_size=1, max_size=8)))
    expected = [replayed_record(variant, payload, attack, row) for row in us]
    assert routed_records(variant, payload, attack, us) == expected


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_every_boundary_row_lands_on_a_possible_record(kind):
    # every row of BOUNDARY_DRAWS^width, for each variant and payload: a
    # draw at or above a rounded p(0) when p(1) is exactly 0 must still
    # pick the live outcome, never a dead one
    attack = AttackModel(kind)
    width = draws_per_round(attack, 3)
    us = np.array(list(itertools.product(BOUNDARY_DRAWS, repeat=width)))
    # run_round is replayed on every 25th row whose sender `a` draw is
    # 1 - 2^-53, the draw a rounded p(0) can fall below
    a_column = 1 if attack.active else 0
    replayed = np.flatnonzero(us[:, a_column] == BOUNDARY_DRAWS[-1])[::25]
    for vidx in (1, 2, 3, 4):
        for payload in (0, 1):
            exact = table_dict(exact_round_analysis(V[vidx], payload, attack))
            records = routed_records(V[vidx], payload, attack, us)
            assert set(records) <= set(exact)
            for i in replayed:
                assert replayed_record(V[vidx], payload, attack, us[i]) == records[i]


def test_bulk_sampler_matches_exact_distribution():
    # one seeded smoke check; the full 32-combination sweep runs in acceptance
    n = 20_000
    us = np.random.default_rng(314).random((n, draws_per_round(INTERCEPT, 3)))
    table = exact_table(INTERCEPT, V[2])
    counts = record_counts(*route_rounds(table, np.ones(n, dtype=np.int64), us))
    exact = table_dict(table, 1)
    assert set(counts) <= set(exact)
    for key, p in exact.items():
        se = math.sqrt(n * p * (1 - p))
        assert abs(counts.get(key, 0) - n * p) <= 3 * se


def test_bulk_sampler_shape_validation():
    # a tapped table needs its Bell draw in front of the readout's
    clean, payloads = exact_table(AttackModel(), V[1]), np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError):
        route_rounds(exact_table(INTERCEPT, V[1]), payloads, np.zeros((10, 4)))
    with pytest.raises(ValueError):
        route_rounds(clean, np.zeros(40, dtype=np.int64), np.zeros(40))
    with pytest.raises(ValueError):
        route_rounds(clean, payloads, np.zeros((10, 5)))
    # one payload bit per row of draws, as a flat column
    assert route_rounds(clean, payloads, np.zeros((10, 4)))[0].shape == (10, 4)
    for column in (payloads[:9], np.zeros(11, dtype=np.int64), payloads[:, None]):
        with pytest.raises(ValueError):
            route_rounds(clean, column, np.zeros((10, 4)))


@pytest.mark.parametrize("mode", ("sample", "exact"))
@pytest.mark.parametrize("kind", ATTACK_KINDS)
@pytest.mark.parametrize("n", (3, 5, 8))
def test_mixed_rows_replay_run_round_exactly(kind, n, mode):
    # a session's rows of every variant, standard or not, and payload,
    # sampled as it samples them, against each round simulated alone from
    # its own stream; every session folds every standard variant's pair
    attack = AttackModel(kind)
    rng = np.random.default_rng((n, ATTACK_KINDS.index(kind)))
    variants = [standard_variants(n)[i] for i in rng.integers(n + 1, size=120)]
    variants += [StateVariant.from_mask(n, m) for m in rng.integers(1 << n - 1, size=40).tolist()]
    payloads = rng.integers(2, size=160)
    config = SessionConfig(n=n, attack=attack, seed=n, mode=mode)
    expected = [
        run_round(RoundPlan(i, variant, "check", int(payload)), attack, session._stream(n, i))
        for i, (variant, payload) in enumerate(zip(variants, payloads))
    ]
    masks = [variant.mask for variant in variants]
    bits, eves, infos = session._run_rounds(masks, payloads, config)
    assert row_records(bits, eves) == row_records(*zip(*expected))
    assert infos == [eve_mutual_information(exact_table(attack, v)) for v in standard_variants(n)]


@pytest.mark.parametrize("all_subsets", (False, True), ids=("standard", "all-subsets"))
@pytest.mark.parametrize("mode", ("sample", "exact"))
@pytest.mark.parametrize("kind", ATTACK_KINDS)
@pytest.mark.parametrize("n,rounds", ((3, 80), (5, 80), (5, 6)))
def test_class_tables_are_built_once_and_freed(kind, n, rounds, mode, all_subsets, monkeypatch):
    # one tableau run and one sampler call per class, from the
    # class's first standard variant, in index order: 1, 4, 2 and 2 tables,
    # whatever the mode, the planner or the masks planned (6 rounds plan at
    # most half of the standard ones).  No table is alive after the session
    attack = AttackModel(kind)
    tapped = tapped_positions(attack, n)
    firsts = {}
    for variant in standard_variants(n):
        firsts.setdefault(variant.mask & tapped, variant.mask)
    built, runs, alive, sampled = [], [], [], []
    oracle, tableau, sampler = attacks.exact_table, attacks.Tableau, attacks.route_rounds

    def counted(attack, variant):
        built.append(variant.mask)
        table = oracle(attack, variant)
        alive.append(weakref.ref(table))
        return table

    def counted_tableau(k):
        runs.append(k)
        return tableau(k)

    def counted_sampler(table, payloads, uniforms):
        # the mask that built this very table: the session builds them all before routing
        mask, = (mask for mask, ref in zip(built, alive) if ref() is table)
        sampled.append((mask, len(payloads)))
        return sampler(table, payloads, uniforms)

    monkeypatch.setattr(attacks, "exact_table", counted)
    monkeypatch.setattr(session, "route_rounds", counted_sampler)
    monkeypatch.setattr(attacks, "Tableau", counted_tableau)
    rng = np.random.default_rng((n, ATTACK_KINDS.index(kind), 1))
    if all_subsets:
        masks = rng.integers(1 << n - 1, size=rounds).tolist()
    else:
        masks = [standard_variants(n)[i].mask for i in rng.integers(n + 1, size=rounds)]
    payloads = rng.integers(2, size=rounds)
    session._run_rounds(masks, payloads, SessionConfig(n=n, attack=attack, mode=mode))
    assert built == list(firsts.values()) and len(built) == CLASS_COUNTS[kind]
    assert len(runs) == len(built)
    classes = [mask & tapped for mask in masks]
    assert sampled == [(mask, classes.count(mask & tapped)) for mask in built]
    assert len(alive) == len(built) and all(ref() is None for ref in alive)


def spec_sample(table, payload, row):
    """One row's (index, eve), read off the payload's records one at a time:
    the Bell draw takes the first live outcome whose running total exceeds
    it, else the last; each readout takes outcome 0 iff its draw lies below
    the node's p(0), the nearest double to the exact ratio of the node's masses."""
    index, eve = expand(table, payload)
    records = list(zip(index.tolist(), eve.tolist(), [Fraction(table.p)] * index.size))
    draws = list(row)
    if table.tapped:
        masses = [sum(p for _i, e, p in records if e == eve) for eve in range(4)]
        live = [eve for eve in range(4) if masses[eve] > 0]
        total, picked = Fraction(0), live[-1]
        for eve in live:
            total += masses[eve]
            if draws[0] < total:
                picked = eve
                break
        records = [r for r in records if r[1] == picked]
        draws = draws[1:]
    for bit in range(table.width - 1, -1, -1):
        mass = sum(p for _i, _e, p in records)
        zero = sum(p for i, _e, p in records if not i >> bit & 1)
        value = int(draws[-1 - bit] >= float(zero / mass))
        records = [r for r in records if (r[0] >> bit & 1) == value]
    ((index, eve, _p),) = records
    return index, eve


# every running total of 1, 2 or 4 equally likely Bell records, the draw
# just below 1/2 and the largest double below 1
SAMPLER_DRAWS = (0.0, 0.25, 0.5, 0.75, 0.5 - 2.0**-53, 1.0 - 2.0**-53)


@pytest.mark.parametrize("tapped", (False, True), ids=("untapped", "tapped"))
@pytest.mark.parametrize("width", range(2, 7))
def test_affine_sampler_follows_the_threshold_rule(width, tapped):
    # random forms, not only this package's rounds: random rank, offset and
    # frame, Bell rank 0, 1 or 2 (a parity that reads the phase slot
    # included), so dead Bell records and determinate readouts of every
    # kind, under a mixed payload column
    rng = np.random.default_rng((width, tapped))
    for _ in range(12):
        table = random_form(rng, width, tapped)
        columns = width + tapped
        us = np.where(
            rng.random((160, columns)) < 0.3,
            rng.choice(SAMPLER_DRAWS, size=(160, columns)),
            rng.random((160, columns)),
        )
        payloads = rng.integers(2, size=160)
        bits, eve = route_rounds(table, payloads, us)
        index = bits @ (1 << np.arange(width - 1, -1, -1))
        expected = [spec_sample(table, int(p), row) for p, row in zip(payloads, us)]
        assert list(zip(index.tolist(), eve.tolist())) == expected


def run_rounds_growth(masks, payloads, config):
    """Bytes ``session._run_rounds`` allocates above where it starts, at its peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        session._run_rounds(masks, payloads, config)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_session_sampler_memory_stays_bounded():
    # the sampler reads each class's form, never its records, so a
    # 500-round n=9 session's rounds allocate at most 1 MiB above where
    # they start (numpy buffers included)
    config = SessionConfig(
        n=9, rounds=500, attack=AttackModel("collective_h_cnot"), mode="exact"
    )
    masks, _check, payloads = plan_sequences(
        config.rounds, config.check_fraction, config.message, config.n, session._stream(0, -1)
    )
    assert run_rounds_growth(masks, payloads, config) <= 1 << 20


def test_session_sampler_memory_stays_bounded_on_the_largest_table():
    # 200 rounds of the all-Hadamard collective-CNOT variant at n=14, whose
    # table holds 2^17 records per payload, are sampled from the form alone
    config = SessionConfig(n=14, rounds=200, attack=CNOT)
    masks = [StateVariant.from_index(14, 15).mask] * config.rounds
    payloads = np.random.default_rng(14).integers(2, size=config.rounds)
    assert run_rounds_growth(masks, payloads, config) <= 1 << 20
