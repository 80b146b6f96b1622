"""Protocol mechanics: variants, carriers, encoding, recovery, planning."""

import itertools
import math
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqss.protocol import (
    RoundPlan,
    StateVariant,
    announcement_schedule,
    check_message,
    check_round_count,
    encode_round,
    measure_round,
    plan_sequences,
    prepare_variant,
    receiver_correction,
    recover_secret,
    standard_variants,
)
from ghzqss.session import _stream
from planner import plan_columns, scalar_plan, scalar_schedule
from ghzqss.statevec import outcome_distribution, state_from_amplitudes, z_projections
from records import distribution_dict
from states import receiver_parity_state

RT2 = math.sqrt(2.0)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / RT2
MINUS = np.array([1.0, -1.0]) / RT2

# post-encoding joint states for three parties, derived by gate algebra from
# the encoding circuit (work qubit |+/->, CNOT onto a1, Hadamard); amplitude
# index order is (work, a1, receiver2, receiver3) with qubit 0 most significant
PHI_DOUBLE_PRIME_0 = np.array([1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, -1, -1, 0, 0, 1]) / (2 * RT2)
PHI_DOUBLE_PRIME_1 = np.array([1, 0, 0, -1, -1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1]) / (2 * RT2)

RECOVERY_ROWS = (
    (0, (0, 0), 0),
    (0, (0, 1), 1),
    (0, (1, 0), 1),
    (0, (1, 1), 0),
    (1, (0, 0), 1),
    (1, (0, 1), 0),
    (1, (1, 0), 0),
    (1, (1, 1), 1),
)


def kron_all(factors):
    return reduce(np.kron, factors)


def ghz_amps(n):
    amps = np.zeros(1 << n)
    amps[0] = amps[-1] = 1 / RT2
    return amps


# -------------------------------------------------------------------- variants


def test_variant_validation():
    with pytest.raises(ValueError):
        StateVariant(2, frozenset())
    with pytest.raises(ValueError):
        StateVariant(3, frozenset({1}))  # the sender never holds an X arm
    with pytest.raises(ValueError):
        StateVariant(3, frozenset({4}))
    # positions are integers, Python's or numpy's, never rounded or parsed
    for bad, shown in (({2.9}, "[2.9]"), ({3.5}, "[3.5]"), ({"3"}, "['3']")):
        with pytest.raises(ValueError, match=re.escape(f"hadamard positions {shown} are not")):
            StateVariant(4, bad)
    assert StateVariant(4, {np.int64(3)}) == StateVariant(4, {3})


def test_variant_indexing_and_names():
    assert StateVariant.from_index(3, 1).hadamard_positions == frozenset()
    assert StateVariant.from_index(3, 3).hadamard_positions == {3}
    assert StateVariant.from_index(3, 4).hadamard_positions == {2, 3}
    names = [v.name for v in standard_variants(3)]
    assert names == ["psi1", "psi2", "psi3", "psi4"]
    assert [v.name for v in standard_variants(4)] == ["Psi1", "Psi2", "Psi3", "Psi4", "Psi5"]
    assert all(v.index is not None for v in standard_variants(6))
    with pytest.raises(ValueError):
        StateVariant.from_index(3, 5)
    with pytest.raises(ValueError):
        StateVariant.from_index(3, 0)


def test_nonstandard_variant_naming():
    v = StateVariant(5, {2, 4})
    assert v.index is None
    assert v.name == "h2,4"


def test_standard_variant_count():
    for n in range(3, 9):
        family = standard_variants(n)
        assert len(family) == n + 1
        assert len({v.hadamard_positions for v in family}) == n + 1


# -------------------------------------------------------------------- carriers


def test_prepare_psi1_is_ghz():
    np.testing.assert_allclose(prepare_variant(StateVariant.from_index(3, 1)).amps, ghz_amps(3), atol=1e-15)


def test_prepare_psi2_amplitudes():
    # (|0>|+>|0> + |1>|->|1>)/sqrt2 spelled out in the computational basis
    expected = np.array([1, 0, 1, 0, 0, 1, 0, -1]) / 2.0
    np.testing.assert_allclose(prepare_variant(StateVariant.from_index(3, 2)).amps, expected, atol=1e-15)


def test_prepare_psi3_amplitudes():
    expected = np.array([1, 1, 0, 0, 0, 0, 1, -1]) / 2.0
    np.testing.assert_allclose(prepare_variant(StateVariant.from_index(3, 3)).amps, expected, atol=1e-15)


def test_prepare_psi4_amplitudes():
    expected = np.array([1, 1, 1, 1, 1, -1, -1, 1]) / (2 * RT2)
    np.testing.assert_allclose(prepare_variant(StateVariant.from_index(3, 4)).amps, expected, atol=1e-15)


def test_prepare_matches_direct_tensor_construction():
    # independent construction: branch tensors written out literally
    v = StateVariant(5, {4})
    expected = (kron_all([KET0, KET0, KET0, PLUS, KET0]) + kron_all([KET1, KET1, KET1, MINUS, KET1])) / RT2
    np.testing.assert_allclose(prepare_variant(v).amps, expected, atol=1e-15)


def kron_carrier(variant):
    """The carrier as two left-to-right chains of ``np.kron``, one per branch."""
    branch0 = [KET0]
    branch1 = [KET1]
    for party in range(2, variant.n + 1):
        x_arm = party in variant.hadamard_positions
        branch0.append(PLUS if x_arm else KET0)
        branch1.append(MINUS if x_arm else KET1)
    return (reduce(np.kron, branch0) + reduce(np.kron, branch1)) * (1.0 / RT2)


def test_prepare_equals_the_kron_chain_bit_for_bit():
    # every receiver subset at n=3..8, and the standard variants up to n=13
    variants = [
        StateVariant(n, subset)
        for n in range(3, 9)
        for k in range(n)
        for subset in itertools.combinations(range(2, n + 1), k)
    ] + [v for n in range(9, 14) for v in standard_variants(n)]
    assert len(variants) == 312
    for v in variants:
        assert np.array_equal(prepare_variant(v).amps, kron_carrier(v)), v


@pytest.mark.parametrize("n", range(3, 9))
def test_correction_restores_canonical_ghz(n):
    for variant in standard_variants(n):
        fixed = receiver_correction(prepare_variant(variant), variant)
        np.testing.assert_allclose(fixed.amps, ghz_amps(n), atol=1e-12)


def test_correction_requires_enough_qubits():
    v = StateVariant.from_index(4, 2)
    with pytest.raises(ValueError):
        receiver_correction(prepare_variant(StateVariant.from_index(3, 1)), v)


# -------------------------------------------------------------------- encoding


def test_encode_round_amplitudes_match_gate_algebra():
    ghz = state_from_amplitudes(ghz_amps(3))
    np.testing.assert_allclose(encode_round(ghz, 0).amps, PHI_DOUBLE_PRIME_0, atol=1e-12)
    np.testing.assert_allclose(encode_round(ghz, 1).amps, PHI_DOUBLE_PRIME_1, atol=1e-12)
    with pytest.raises(ValueError):
        encode_round(ghz, 2)


def test_encoded_state_is_variant_independent():
    for v in standard_variants(3):
        enc = encode_round(receiver_correction(prepare_variant(v), v), 1)
        np.testing.assert_allclose(enc.amps, PHI_DOUBLE_PRIME_1, atol=1e-12)


@pytest.mark.parametrize("payload", (0, 1))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_receivers_hold_parity_state_conditioned_on_a(payload, n):
    # project the sender's two Z readouts; whatever (a, A) came out, the
    # receivers jointly hold the parity carrier for payload xor a
    encoded = encode_round(state_from_amplitudes(ghz_amps(n)), payload)
    for a_val, _pa, after_a in z_projections(encoded, 0):
        if after_a is None:
            continue
        for _big, _pb, after_big in z_projections(after_a, 1):
            if after_big is None:
                continue
            block = after_big.amps.reshape(4, -1)
            sub = block[(a_val << 1) | _big]
            expected = receiver_parity_state(n - 1, payload ^ a_val).amps
            overlap = abs(np.vdot(expected, sub))
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_alice_second_readout_carries_no_payload_information():
    # the A readout marginal is uniform and independent of the payload
    for payload in (0, 1):
        encoded = encode_round(state_from_amplitudes(ghz_amps(3)), payload)
        probs = {v: p for v, p, _s in z_projections(encoded, 1)}
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)


# -------------------------------------------------------------------- recovery


@pytest.mark.parametrize("alice_a,signs,secret", RECOVERY_ROWS)
def test_recovery_table_rows(alice_a, signs, secret):
    assert recover_secret(alice_a, signs) == secret


@given(st.integers(0, 1), st.lists(st.integers(0, 1), min_size=1, max_size=7))
def test_recovery_is_xor_of_all_inputs(alice_a, signs):
    expected = alice_a
    for s in signs:
        expected ^= s
    assert recover_secret(alice_a, signs) == expected


def test_recovery_on_columns_leaves_its_inputs_unchanged():
    # the session recovers every round at once from views into one bits array
    bits = np.array([[0, 0, 1, 0], [1, 1, 1, 1]])
    assert recover_secret(bits[:, 0], bits[:, 2:].T).tolist() == [1, 1]
    assert bits.tolist() == [[0, 0, 1, 0], [1, 1, 1, 1]]


# -------------------------------------------------------------------- planning


def test_check_round_count():
    assert check_round_count(10, 0.5) == 5
    assert check_round_count(10, 0.2) == 2  # 10 * 0.2 is 2.0000000000000004
    assert check_round_count(10, 0.95) == 10
    assert check_round_count(3, 0.01) == 1
    with pytest.raises(ValueError):
        check_round_count(0, 0.5)
    with pytest.raises(ValueError):
        check_round_count(10, 0.0)
    with pytest.raises(ValueError):
        check_round_count(10, 1.0)


def standard_masks(n):
    return [v.mask for v in standard_variants(n)]


def test_plan_sequences_roles_and_payloads():
    rng = np.random.default_rng(5)
    masks, check, payloads = plan_sequences(10, 0.5, "101", 3, rng)
    assert masks.shape == check.shape == payloads.shape == (10,)
    assert check.sum() == 5
    assert payloads[~check][:3].tolist() == [1, 0, 1]
    assert set(payloads.tolist()) <= {0, 1}
    assert set(masks.tolist()) <= set(standard_masks(3))


def test_plan_sequences_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        plan_sequences(10, 0.5, "10102", 3, rng)
    with pytest.raises(ValueError):
        plan_sequences(10, 0.5, "101010", 3, rng)  # 6 bits, 5 slots
    with pytest.raises(ValueError):
        plan_sequences(0, 0.5, "", 3, rng)


@pytest.mark.parametrize("message", ["012", "0 1", "0\n", "\u0661\u0660", "\uff11"])
def test_check_message_refuses_any_character_but_ascii_0_and_1(message):
    # whitespace, Arabic-Indic digits and a full-width one are digits or blanks to str methods
    with pytest.raises(ValueError, match="^message must be a string of 0s and 1s$"):
        check_message(message, 10, 0.5)


@pytest.mark.parametrize("message", ["", "0101"])
def test_check_message_accepts_0_1_text_and_returns_the_check_count(message):
    assert check_message(message, 10, 0.5) == 5


def test_plan_sequences_all_subsets_mode():
    rng = np.random.default_rng(11)
    masks, _check, _payloads = plan_sequences(400, 0.5, "", 4, rng, all_subsets=True)
    assert set(masks.tolist()) == set(range(8))  # every subset of {2,3,4} shows up in 400 draws


def test_planning_is_deterministic_per_seed():
    a = plan_sequences(40, 0.3, "1100", 4, np.random.default_rng(123))
    b = plan_sequences(40, 0.3, "1100", 4, np.random.default_rng(123))
    assert all((x == y).all() for x, y in zip(a, b))


def test_variant_frequencies_are_uniform():
    # 1e5 draws, each of the 4 variants within 3 standard errors of 1/4
    trials = 100_000
    masks, _check, _payloads = plan_sequences(trials, 0.5, "", 3, np.random.default_rng(2024))
    counts = np.bincount(np.searchsorted(standard_masks(3), masks), minlength=4)
    se = math.sqrt(0.25 * 0.75 / trials)
    assert (abs(counts / trials - 0.25) < 3 * se).all()


def test_variant_masks_round_trip():
    # bit p-2 of a mask stands for Hadamard position p
    for n in (3, 4, 9):
        expected = [0] + [1 << (k - 2) for k in range(2, n + 1)] + [(1 << (n - 1)) - 1]
        assert standard_masks(n) == expected
        for variant in standard_variants(n):
            assert StateVariant.from_mask(n, variant.mask) == variant
    assert StateVariant.from_mask(5, 0b1010).hadamard_positions == {3, 5}
    with pytest.raises(ValueError):
        StateVariant.from_mask(3, 0b100)  # position 4 of a three-party round


def assert_plans_match(num_rounds, check_fraction, message, n, seed, all_subsets):
    """The column planner gives the scalar planner's plan and leaves its generator state."""
    rng, reference = _stream(seed, -1), _stream(seed, -1)
    columns = plan_sequences(num_rounds, check_fraction, message, n, rng, all_subsets)
    plans = scalar_plan(num_rounds, check_fraction, message, n, reference, all_subsets)
    assert [column.tolist() for column in columns] == list(plan_columns(plans))
    assert rng.bit_generator.state == reference.bit_generator.state
    # announcement_schedule draws next, from that state
    assert rng.random(3).tolist() == reference.random(3).tolist()


PLANNER_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


@pytest.mark.parametrize("all_subsets", (False, True))
@pytest.mark.parametrize("n", range(3, 25))
def test_planner_matches_scalar_reference(n, all_subsets):
    # message lengths 0, 1 and the full message capacity
    rounds, check_fraction = 45, 0.3
    capacity = rounds - check_round_count(rounds, check_fraction)
    for seed in PLANNER_SEEDS:
        for length in (0, 1, capacity):
            message = "".join("10"[(seed + n + k * k) % 3 == 0] for k in range(length))
            assert_plans_match(rounds, check_fraction, message, n, seed, all_subsets)
    for seed in PLANNER_SEEDS:  # one round, the smallest session
        assert_plans_match(1, 0.5, "", n, seed, all_subsets)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(3, 24),
    rounds=st.integers(1, 120),
    check_fraction=st.sampled_from((0.05, 0.25, 0.5, 0.9)),
    all_subsets=st.booleans(),
    data=st.data(),
)
def test_planner_sweep_matches_scalar_reference(seed, n, rounds, check_fraction, all_subsets, data):
    capacity = rounds - check_round_count(rounds, check_fraction)
    message = data.draw(st.text("01", max_size=capacity))
    assert_plans_match(rounds, check_fraction, message, n, seed, all_subsets)


def with_buffered_word(seed, word):
    """A generator whose next 32-bit word is ``word``, or a fresh one for None."""
    rng = np.random.default_rng(seed)
    if word is not None:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, word
        rng.bit_generator.state = state
    return rng


# bounds where numpy's bounded draw rejects a word with probability about 1/2
# and 1/4, beside bounds that never (2, 2^23) or almost never (3, 25) reject
REJECTING_BOUNDS = (2**31 + 1, 3 * 2**30)


@pytest.mark.parametrize("word", (None, 0, 2**31, 2**32 - 1), ids=("fresh", "w0", "w2^31", "wmax"))
@pytest.mark.parametrize("bound", REJECTING_BOUNDS)
def test_bounded_draws_in_one_call_match_scalar_integers(bound, word):
    # plan_sequences draws its bounds in one broadcast call; its own bounds
    # practically never reject, so the rejection path is pinned here
    mixed = [bound] * 40 + [2, 3, bound, 25, 2**23, bound] * 10 + [2]
    for seed, bounds in itertools.product(range(6), (mixed, [], [5])):
        rng, reference = with_buffered_word(seed, word), with_buffered_word(seed, word)
        draws = rng.integers(np.array(bounds, dtype=np.int64))
        assert draws.tolist() == [int(reference.integers(b)) for b in bounds]
        assert rng.bit_generator.state == reference.bit_generator.state
        if bounds is mixed:  # it took more words than it has draws: some were rejected
            plain = with_buffered_word(seed, word)
            plain.bit_generator.random_raw((len(bounds) - (word is not None) + 1) // 2)
            assert plain.bit_generator.state["state"] != rng.bit_generator.state["state"]


def test_announcement_schedule_three_parties():
    rng = np.random.default_rng(9)
    orders = announcement_schedule(10, 3, rng)
    assert orders.shape == (10, 2)
    assert all(o in ([2, 3], [3, 2]) for o in orders.tolist())
    assert orders.tolist().count([2, 3]) == 10 // 2


def test_announcement_schedule_more_parties():
    rng = np.random.default_rng(9)
    orders = announcement_schedule(3, 5, rng)
    assert orders.shape == (3, 4)
    for order in orders.tolist():
        assert sorted(order) == [2, 3, 4, 5]


@pytest.mark.parametrize("num_check", (0, 1, 2, 7, 50))
@pytest.mark.parametrize("n", range(3, 9))
def test_announcement_schedule_matches_scalar_reference(n, num_check):
    # row k is the k-th check round's order in the dict the scalar loop
    # builds, and the generator ends where the loop leaves it; the
    # planner's integers call may leave half a word buffered, so both starts
    indices = [3 * k + 1 for k in reversed(range(num_check))]
    for seed, buffered in itertools.product(PLANNER_SEEDS, (False, True)):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            rng.integers(5), reference.integers(5)
        orders = announcement_schedule(num_check, n, rng)
        schedule = scalar_schedule(indices, n, reference)
        assert orders.shape == (num_check, n - 1) and orders.dtype.kind == "i"
        assert orders.tolist() == [list(schedule[i]) for i in sorted(schedule)]
        assert rng.bit_generator.state == reference.bit_generator.state


def test_measure_round_consumes_one_draw_per_readout():
    class CountingRng:
        def __init__(self):
            self.calls = 0

        def random(self):
            self.calls += 1
            return 0.3

    encoded = encode_round(state_from_amplitudes(ghz_amps(4)), 0)
    rng = CountingRng()
    alice_a, _alice_A, *signs = measure_round(encoded, 4, rng)
    assert rng.calls == 5  # two sender readouts plus three receivers
    assert len(signs) == 3
    assert recover_secret(alice_a, signs) == 0


# ------------------------------------------------------------- parity carrier


@pytest.mark.parametrize("parity", (0, 1))
def test_receiver_parity_state_structure(parity):
    state = receiver_parity_state(4, parity)
    assert state.amps[0] == pytest.approx(1 / RT2)
    assert state.amps[-1] == pytest.approx((-1) ** parity / RT2)
    assert np.count_nonzero(state.amps) == 2


@pytest.mark.parametrize("parity", (0, 1))
def test_receiver_parity_state_x_expansion(parity):
    state = receiver_parity_state(3, parity)
    dist = distribution_dict(outcome_distribution(state, [(0, "X"), (1, "X"), (2, "X")]), 3)
    live = {bits for bits, p in dist.items() if p > 1e-12}
    assert len(live) == 4  # 2^(receivers-1) equal-weight terms
    assert all(sum(bits) % 2 == parity for bits in live)
    assert all(dist[bits] == pytest.approx(0.25) for bits in live)


def test_receiver_parity_state_validation():
    with pytest.raises(ValueError):
        receiver_parity_state(0, 0)
    with pytest.raises(ValueError):
        receiver_parity_state(2, 2)


def test_round_plan_is_hashable_and_frozen():
    plan = RoundPlan(0, StateVariant.from_index(3, 1), "check", 0)
    assert hash(plan) == hash(RoundPlan(0, StateVariant.from_index(3, 1), "check", 0))
    with pytest.raises(AttributeError):
        plan.payload_bit = 1
