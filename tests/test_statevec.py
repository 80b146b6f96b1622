"""Engine-level tests: gates, collapse rules, enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzqss.statevec import (
    MAX_QUBITS,
    MeasOutcome,
    NormalizationError,
    RegisterCapacityError,
    StateVector,
    _branches,
    _choose,
    append_ancilla,
    apply_cnot,
    apply_hadamard,
    basis_state,
    bell_projections,
    measure_bell,
    measure_x,
    measure_z,
    outcome_distribution,
    state_from_amplitudes,
    x_projections,
    z_projections,
)
from records import distribution_dict

RT2 = math.sqrt(2.0)

# the four Bell states in index order, built directly from amplitudes so the
# measurement convention is checked against an independent construction
BELL_STATES = (
    np.array([1, 0, 0, 1]) / RT2,
    np.array([1, 0, 0, -1]) / RT2,
    np.array([0, 1, 1, 0]) / RT2,
    np.array([0, 1, -1, 0]) / RT2,
)


@st.composite
def states(draw, max_qubits=5):
    n = draw(st.integers(1, max_qubits))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    return StateVector(n, v)


def assert_amps(state, expected, atol=1e-12):
    np.testing.assert_allclose(state.amps, np.asarray(expected, dtype=complex), atol=atol)


# ---------------------------------------------------------------- construction


def test_qubit0_is_most_significant():
    st2 = basis_state(2, 2)  # |10>
    assert st2.amps[2] == 1.0
    dist = distribution_dict(outcome_distribution(st2, [(0, "Z"), (1, "Z")]), 2)
    assert dist[(1, 0)] == pytest.approx(1.0)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        basis_state(0, 0)
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(RegisterCapacityError):
        basis_state(MAX_QUBITS + 1, 0)


def test_state_from_amplitudes_validation():
    # not a power of two, whatever the shape: 3 entries, a scalar, none
    for bad in ([1.0, 0.0, 0.0], 1.0, []):
        with pytest.raises(ValueError, match="length must be a power of two"):
            state_from_amplitudes(bad)
    with pytest.raises(ValueError):
        state_from_amplitudes([1.0, 1.0])  # norm 2
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong shape
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="need at least one qubit"):
        StateVector(0, np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 0), complex(0, np.nan)])
def test_state_vector_refuses_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        StateVector(1, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        StateVector(2, np.array([0.5, 0.5, 0.5, bad]))


def test_state_vector_norm_tolerance():
    with pytest.raises(ValueError, match="is not 1"):
        StateVector(1, np.array([math.sqrt(1.0 + 1e-9), 0.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="is not 1"):
        StateVector(1, np.array([1e200, 0.0]))  # finite, but norm^2 overflows to inf
    StateVector(1, np.array([math.sqrt(1.0 + 5e-11), 0.0]))  # within NORM_ATOL


def test_append_ancilla_positions():
    plus = state_from_amplitudes([1 / RT2, 1 / RT2])
    one = basis_state(1, 1)
    front = append_ancilla(one, plus, "front")  # |+>|1>
    assert_amps(front, [0, 1 / RT2, 0, 1 / RT2])
    back = append_ancilla(one, plus, "back")  # |1>|+>
    assert_amps(back, [0, 0, 1 / RT2, 1 / RT2])
    with pytest.raises(ValueError):
        append_ancilla(one, plus, "middle")


def test_append_ancilla_capacity():
    big = basis_state(MAX_QUBITS - 1, 0)
    with pytest.raises(RegisterCapacityError):
        append_ancilla(big, basis_state(2, 0), "back")


# ---------------------------------------------------------------------- gates


def test_hadamard_on_each_basis_ket():
    assert_amps(apply_hadamard(basis_state(1, 0), 0), [1 / RT2, 1 / RT2])
    assert_amps(apply_hadamard(basis_state(1, 1), 0), [1 / RT2, -1 / RT2])
    # qubit 1 of |10> -> |1+>
    assert_amps(apply_hadamard(basis_state(2, 2), 1), [0, 0, 1 / RT2, 1 / RT2])


def test_cnot_permutes_basis():
    assert_amps(apply_cnot(basis_state(2, 2), 0, 1), [0, 0, 0, 1])  # |10> -> |11>
    assert_amps(apply_cnot(basis_state(2, 1), 0, 1), [0, 1, 0, 0])  # |01> fixed
    assert_amps(apply_cnot(basis_state(2, 1), 1, 0), [0, 0, 0, 1])  # reversed roles
    with pytest.raises(ValueError):
        apply_cnot(basis_state(2, 0), 1, 1)


def random_state(rng, k):
    v = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return StateVector(k, v / np.linalg.norm(v))


def test_cnot_equals_the_basis_permutation_exactly():
    # restated: amplitude i comes from i with the target bit flipped when the
    # control bit of i is 1, so the gate moves amplitudes and computes none
    rng = np.random.default_rng(20261018)
    for k in range(2, 6):
        for control, target in itertools.permutations(range(k), 2):
            state = random_state(rng, k)
            cbit, tbit = 1 << (k - 1 - control), 1 << (k - 1 - target)
            source = [i ^ tbit if i & cbit else i for i in range(1 << k)]
            out = apply_cnot(state, control, target)
            assert (out.amps == state.amps[source]).all()


def test_hadamard_equals_its_float_expression_exactly():
    rng = np.random.default_rng(20261019)
    for k in range(1, 6):
        state = random_state(rng, k)
        for q in range(k):
            qbit = 1 << (k - 1 - q)
            expected = [
                (state.amps[i & ~qbit] + (-1 if i & qbit else 1) * state.amps[i | qbit])
                * (1.0 / math.sqrt(2.0))
                for i in range(1 << k)
            ]
            assert (apply_hadamard(state, q).amps == np.array(expected)).all()


def test_hadamard_cancels_amplitudes_exactly():
    # |+> -> |0>: the two equal halves cancel to exactly 0 on |1>
    plus = apply_hadamard(basis_state(1, 0), 0)
    back = apply_hadamard(plus, 0)
    assert back.amps[1] == 0.0


@given(states())
@settings(deadline=None)
def test_hadamard_is_an_involution(state):
    q = state.num_qubits - 1
    twice = apply_hadamard(apply_hadamard(state, q), q)
    np.testing.assert_allclose(twice.amps, state.amps, atol=1e-9)


@given(states(max_qubits=4), st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None)
def test_cnot_is_self_inverse(state, control, target):
    control %= state.num_qubits
    target %= state.num_qubits
    if control == target:
        return
    twice = apply_cnot(apply_cnot(state, control, target), control, target)
    np.testing.assert_allclose(twice.amps, state.amps, atol=1e-12)


@given(states())
@settings(deadline=None)
def test_gates_preserve_norm(state):
    q = state.num_qubits - 1
    for out in (apply_hadamard(state, q), apply_cnot(state, 0, q) if q else state):
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


# --------------------------------------------------------------- measurements


def test_threshold_rule_on_plus_state():
    plus = apply_hadamard(basis_state(1, 0), 0)
    outcome, post = measure_z(plus, 0, 0.3)
    assert (outcome.value, outcome.probability) == (0, pytest.approx(0.5))
    assert_amps(post, [1, 0])
    outcome, post = measure_z(plus, 0, 0.5)  # not strictly below p0
    assert outcome.value == 1
    assert_amps(post, [0, 1])
    assert measure_z(plus, 0, 0.49999)[0].value == 0


def test_measure_z_on_deterministic_state():
    outcome, post = measure_z(basis_state(2, 3), 1, 0.999999)
    assert outcome == MeasOutcome("Z", 1, pytest.approx(1.0))
    assert_amps(post, [0, 0, 0, 1])


def test_measure_z_never_picks_a_dead_outcome():
    # the float p(0) = 1 - 2^-52 is reported on the grid as exactly 1 and
    # p(1) is exactly 0; the draw at the top of [0, 1) must still land on
    # the only live outcome
    rounded = StateVector(1, np.array([1.0 - 2.0**-53, 0.0]))
    u = 1.0 - 2.0**-53
    assert [p for _v, p, _post in z_projections(rounded, 0)] == [1.0, 0.0]
    # p(1) = 1e-34 is a nonzero residue that rounds to 0: just as impossible
    residue = StateVector(1, np.array([1.0, 1e-17]))
    for state in (rounded, residue):
        outcome, post = measure_z(state, 0, u)
        assert outcome.value == 0
        assert_amps(post, [1, 0])
        probs, _collapse = _branches(state, "Z", (0,))
        assert _choose(probs, np.array([u, 0.0])).tolist() == [0, 0]
        assert z_projections(state, 0)[1][2] is None
        assert distribution_dict(outcome_distribution(state, [(0, "Z")]), 1).keys() == {(0,)}


def test_threshold_rule_refuses_a_row_without_a_live_outcome():
    # every sample needs a live outcome: an all-zero row, shared or a sample's own, has none
    with pytest.raises(NormalizationError, match="no outcome has positive probability"):
        _choose([0.0, 0.0], np.array([0.5]))
    with pytest.raises(NormalizationError, match="no outcome has positive probability"):
        _choose(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([0.5, 0.5]))


def test_every_live_outcome_can_be_collapsed_onto():
    # p(1) = 5e-15 rounds to 2^-48, so the outcome is live: the threshold
    # rule may pick it and the collapse must then succeed
    state = StateVector(1, np.array([math.sqrt(1.0 - 5e-15), math.sqrt(5e-15)]))
    u = 1.0 - 2.0**-53
    outcome, post = measure_z(state, 0, u)
    assert outcome.value == 1
    assert_amps(post, [0, 1])
    (_v0, _p0, zero), (_v1, _p1, one) = z_projections(state, 0)
    assert_amps(zero, [1, 0])
    assert_amps(one, [0, 1])
    probs, collapse = _branches(state, "Z", (0,))
    assert _choose(probs, np.array([u])).tolist() == [1]
    assert_amps(collapse(1), [0, 1])


def test_z_projections_mark_impossible_branches():
    branches = z_projections(basis_state(1, 0), 0)
    assert branches[0][1] == pytest.approx(1.0)
    assert branches[1][1] == pytest.approx(0.0)
    assert branches[1][2] is None


def test_measure_x_values():
    minus = state_from_amplitudes([1 / RT2, -1 / RT2])
    outcome, post = measure_x(minus, 0, 0.999999)
    assert (outcome.basis, outcome.value) == ("X", 1)
    assert_amps(post, [1 / RT2, -1 / RT2])


@given(states(), st.floats(0.0, 1.0, exclude_max=True))
@settings(deadline=None)
def test_measure_x_equals_rotated_measure_z(state, u):
    q = 0
    direct, post = measure_x(state, q, u)
    rotated = apply_hadamard(state, q)
    via_z, collapsed = measure_z(rotated, q, u)
    assert direct.value == via_z.value
    assert direct.probability == pytest.approx(via_z.probability)
    np.testing.assert_allclose(post.amps, apply_hadamard(collapsed, q).amps, atol=1e-9)


@given(states())
@settings(deadline=None)
def test_born_completeness(state):
    for q in range(state.num_qubits):
        assert sum(p for _v, p, _s in z_projections(state, q)) == pytest.approx(1.0)
        assert sum(p for _v, p, _s in x_projections(state, q)) == pytest.approx(1.0)
    if state.num_qubits >= 2:
        assert sum(p for _i, p, _s in bell_projections(state, 0, 1)) == pytest.approx(1.0)


# ------------------------------------------------------------- Bell machinery


@pytest.mark.parametrize("index", range(4))
def test_bell_states_measure_to_their_index(index):
    state = state_from_amplitudes(BELL_STATES[index])
    outcome, post = measure_bell(state, 0, 1, 0.7)
    assert outcome == MeasOutcome("Bell", index, pytest.approx(1.0))
    assert_amps(post, BELL_STATES[index])


def test_bell_projection_of_01():
    # |01> = (psi+ + psi-)/sqrt2: outcomes 2 and 3, half each
    probs = {i: p for i, p, _s in bell_projections(basis_state(2, 1), 0, 1)}
    assert probs == pytest.approx({0: 0.0, 1: 0.0, 2: 0.5, 3: 0.5})


def test_bell_index_packs_phase_plus_twice_parity():
    # outcome index must equal phase + 2*parity for every Bell state
    for index, amps in enumerate(BELL_STATES):
        parity = int(np.flatnonzero(np.abs(amps) > 0.5)[0] in (1, 2))
        phase = int(amps[np.flatnonzero(np.abs(amps) > 0.5)[1]].real < 0)
        assert index == phase + 2 * parity


def test_bell_collapse_resynthesizes_the_pair():
    ghz = state_from_amplitudes(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / RT2)
    outcome, post = measure_bell(ghz, 1, 2, 0.25)  # first half -> phi+
    assert outcome.value == 0
    # qubit 0 decouples as |+>, qubits (1,2) hold phi+
    expected = np.kron(np.array([1, 1]) / RT2, BELL_STATES[0])
    assert_amps(post, expected)
    outcome, post = measure_bell(ghz, 1, 2, 0.75)
    assert outcome.value == 1
    assert_amps(post, np.kron(np.array([1, -1]) / RT2, BELL_STATES[1]))


def test_bell_cumulative_walk_skips_impossible_outcomes():
    # |01> has zero weight on outcomes 0/1; u=0.2 must land on outcome 2
    outcome, _post = measure_bell(basis_state(2, 1), 0, 1, 0.2)
    assert outcome.value == 2
    outcome, _post = measure_bell(basis_state(2, 1), 0, 1, 0.999999)
    assert outcome.value == 3


def test_bell_measure_validation():
    with pytest.raises(ValueError):
        measure_bell(basis_state(2, 0), 1, 1, 0.5)
    with pytest.raises(ValueError):
        bell_projections(basis_state(2, 0), 0, 2)


@given(
    states(max_qubits=4),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6),
    st.data(),
)
@settings(deadline=None)
def test_choose_matches_scalar_measurements(state, samples, data):
    k = state.num_qubits
    basis = data.draw(st.sampled_from(("Z", "X", "Bell") if k > 1 else ("Z", "X")))
    qubits = tuple(data.draw(st.permutations(range(k)))[: 2 if basis == "Bell" else 1])
    scalar = {"Z": measure_z, "X": measure_x, "Bell": measure_bell}[basis]
    probs, collapse = _branches(state, basis, qubits)
    picked = _choose(probs, np.array(samples)).tolist()
    assert len(picked) == len(samples)
    for u, value in zip(samples, picked):
        outcome, expected = scalar(state, *qubits, u)
        assert outcome.value == value
        np.testing.assert_array_equal(collapse(value).amps, expected.amps)


# The measurement rule restated from its documentation, independently of the
# engine: the basis vectors of each measurement in outcome order (over the
# measured qubits, first qubit most significant), and the threshold walk.
SPEC_BASES = {
    "Z": np.eye(2),
    "X": np.array([[1, 1], [1, -1]]) / RT2,
    "Bell": np.array(BELL_STATES),
}

# outcomes at or below this probability are dead
SPEC_DEAD = 1e-15

# 0, dyadic thresholds and the largest double below 1
BOUNDARY_DRAWS = (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53)


def spec_branches(state, basis, qubits):
    """(probability, normalized post-state or None) per outcome, by projection."""
    k = state.num_qubits
    moved = np.moveaxis(state.amps.reshape([2] * k), qubits, range(len(qubits)))
    rows = moved.reshape(1 << len(qubits), -1)
    out = []
    for vec in SPEC_BASES[basis]:
        rest = vec.conj() @ rows
        p = float(np.vdot(rest, rest).real)
        post = None
        if p > SPEC_DEAD:
            projected = np.outer(vec, rest / math.sqrt(p)).reshape([2] * k)
            post = np.moveaxis(projected, range(len(qubits)), qubits).reshape(-1)
        out.append((p, post))
    return out


def spec_choose(probs, u):
    """Walk the live outcomes in order; the first whose running total
    exceeds u wins, else the last live outcome."""
    live = [v for v, p in enumerate(probs) if p > SPEC_DEAD]
    total = 0.0
    for v in live:
        total += probs[v]
        if u < total:
            return v
    return live[-1]


@st.composite
def sparse_states(draw, max_qubits=4):
    # random states, often with amplitudes zeroed so some branches are dead
    state = draw(states(max_qubits))
    size = state.amps.size
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    if mask.any() and not mask.all():
        amps = np.where(mask, 0.0, state.amps)
        state = StateVector(state.num_qubits, amps / np.linalg.norm(amps))
    return state


@given(sparse_states(), st.data())
@example(StateVector(1, np.array([1.0 - 2.0**-53, 0.0])), None)
@example(StateVector(1, np.array([1.0, 1e-17])), None)
@settings(deadline=None)
def test_choose_follows_the_spec(state, data):
    k = state.num_qubits
    # the dead-branch cases: p(1) = 0 or a residue of 1e-34, the sample at
    # the top of [0, 1)
    if data is None:
        basis, qubits, samples = "Z", (0,), [1.0 - 2.0**-53, 0.5]
    else:
        basis = data.draw(st.sampled_from(("Z", "X", "Bell") if k > 1 else ("Z", "X")))
        qubits = tuple(data.draw(st.permutations(range(k)))[: 2 if basis == "Bell" else 1])
    projections = {"Z": z_projections, "X": x_projections, "Bell": bell_projections}[basis]
    probs = [p for _v, p, _post in projections(state, *qubits)]
    spec = spec_branches(state, basis, qubits)
    np.testing.assert_allclose(probs, [p for p, _post in spec], atol=1e-12)
    if data is not None:
        # uniforms, fixed boundary draws, and the engine's own running totals
        # of live probabilities, where ties with the threshold are exact
        totals = list(itertools.accumulate(p for p in probs if p > SPEC_DEAD))
        sample = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from(BOUNDARY_DRAWS),
            st.sampled_from([t for t in totals if t < 1.0] or [0.0]),
        )
        samples = data.draw(st.lists(sample, min_size=1, max_size=8))
    branch_probs, collapse = _branches(state, basis, qubits)
    picked = _choose(branch_probs, np.array(samples)).tolist()
    for value in set(picked):
        np.testing.assert_allclose(collapse(value).amps, spec[value][1], atol=1e-9)
    assert picked == [spec_choose(probs, u) for u in samples]


def ghz_with_hadamards(k, positions):
    amps = np.zeros(1 << k, dtype=complex)
    amps[0] = amps[-1] = 1 / RT2
    state = StateVector(k, amps)
    for q in positions:
        state = apply_hadamard(state, q)
    return state


@pytest.mark.parametrize("k", range(3, 12))
def test_branches_report_grid_probabilities(k):
    # every reported p is a multiple of 2^-48 within 2^-49 of the outcome's
    # weight over the total weight, and an outcome is collapsed onto iff
    # its p is not 0; a Clifford state's readouts come out exactly dyadic
    rng = np.random.default_rng(k)
    for d in range(k):
        amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        amps[rng.random(1 << k) < 0.5] = 0.0  # some branches die
        amps[rng.integers(1 << k)] = 1.0
        residue = np.zeros(1 << k, dtype=complex)  # 1 - 2^-53 next to a 1e-17 residue
        residue[0], residue[1 << (k - 1 - d)] = 1.0 - 2.0**-53, 1e-17
        random = StateVector(k, amps / np.linalg.norm(amps))
        for state in (random, StateVector(k, residue)):
            for basis, qubits in (("Z", (d,)), ("X", (d,)), ("Bell", (d, (d + 1) % k))):
                probs, collapse = _branches(state, basis, qubits)
                rotated = state if basis == "Z" else apply_hadamard(state, d)
                if basis == "Bell":
                    rotated = apply_hadamard(apply_cnot(state, *qubits), d)
                weights = [
                    sum(abs(a) ** 2 for i, a in enumerate(rotated.amps) if all(
                        (i >> (k - 1 - q) & 1) == (value >> bit & 1)
                        for bit, q in enumerate(qubits)
                    ))
                    for value in range(1 << len(qubits))
                ]
                for value, (p, w) in enumerate(zip(probs, weights)):
                    assert (p * 2**48).is_integer()
                    assert abs(p - w / sum(weights)) <= 2.0**-49 + 1e-15
                    if p == 0.0:
                        with pytest.raises(NormalizationError):
                            collapse(value)
                    else:
                        collapse(value)
        clifford = ghz_with_hadamards(k, np.flatnonzero(rng.random(k) < 0.5).tolist())
        for basis in ("Z", "X"):
            probs, _collapse = _branches(clifford, basis, (d,))
            assert set(probs) <= {0.0, 0.5, 1.0} and sum(probs) == 1.0
        probs, _collapse = _branches(clifford, "Bell", (d, (d + 1) % k))
        assert set(probs) <= {0.0, 0.25, 0.5, 1.0} and sum(probs) == 1.0


def test_choose_skips_impossible_outcomes_and_branches_validate():
    probs, _collapse = _branches(basis_state(2, 1), "Bell", (0, 1))
    assert _choose(probs, np.array([0.2, 0.999999, 0.3])).tolist() == [2, 3, 2]
    with pytest.raises(ValueError):
        _branches(basis_state(2, 0), "Y", (0,))
    with pytest.raises(ValueError):
        _branches(basis_state(2, 0), "Bell", (1, 1))
    with pytest.raises(ValueError):
        _branches(basis_state(2, 0), "Z", (2,))


def test_bell_reversed_qubit_order():
    # swapping q1/q2 swaps which qubit supplies the phase bit; psi- flips sign
    state = state_from_amplitudes(BELL_STATES[3])
    outcome, _post = measure_bell(state, 1, 0, 0.9)
    assert outcome.value == 3
    outcome, _post = measure_bell(state_from_amplitudes(BELL_STATES[2]), 1, 0, 0.9)
    assert outcome.value == 2


# ----------------------------------------------------------------- enumeration


def test_outcome_distribution_ghz_z_plan():
    ghz = state_from_amplitudes(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / RT2)
    dist = distribution_dict(outcome_distribution(ghz, [(0, "Z"), (1, "Z"), (2, "Z")]), 3)
    # only live outcomes are listed
    assert dist.keys() == {(0, 0, 0), (1, 1, 1)}
    assert dist[(0, 0, 0)] == pytest.approx(0.5)
    assert dist[(1, 1, 1)] == pytest.approx(0.5)


def test_outcome_distribution_x_entries_and_plan_order():
    # |+->: X-plan is deterministic, and keys follow plan order not qubit order
    state = state_from_amplitudes(np.array([1, -1, 1, -1]) / 2.0)
    dist = distribution_dict(outcome_distribution(state, [(1, "X"), (0, "X")]), 2)
    assert dist[(1, 0)] == pytest.approx(1.0)


def test_outcome_distribution_ghz_x_parity():
    # X x X x X stabilizes the GHZ state: only even-parity sign patterns
    ghz = state_from_amplitudes(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / RT2)
    dist = distribution_dict(outcome_distribution(ghz, [(0, "X"), (1, "X"), (2, "X")]), 3)
    assert dist.keys() == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    for p in dist.values():
        assert p == pytest.approx(0.25, abs=1e-12)


def test_outcome_distribution_validation():
    with pytest.raises(ValueError):
        outcome_distribution(basis_state(2, 0), [(0, "Z"), (0, "X")])
    with pytest.raises(ValueError):
        outcome_distribution(basis_state(2, 0), [(0, "Y")])


@given(states(max_qubits=4))
@settings(deadline=None)
def test_outcome_distribution_sums_to_one(state):
    plan = [(q, "X" if q % 2 else "Z") for q in range(state.num_qubits)]
    dist = distribution_dict(outcome_distribution(state, plan), len(plan))
    assert sum(dist.values()) == pytest.approx(1.0)


def test_projection_guard_raises_on_dead_branch():
    from ghzqss.statevec import _project_z

    # zero weight, and a residue of norm^2 1e-16, which rounds to 0
    for amps in (basis_state(1, 0).amps, np.array([1.0, 1e-8], dtype=complex)):
        with pytest.raises(NormalizationError):
            _project_z(amps, 0, 1)


def test_sampled_frequencies_track_probabilities():
    # one frozen seed, 1e5 draws on a fixed 3-qubit state, 3 standard errors
    rng = np.random.default_rng(20260817)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, v / np.linalg.norm(v))
    p0 = z_projections(state, 1)[0][1]
    n = 100_000
    us = np.random.default_rng(42).random(n)
    probs, _collapse = _branches(state, "Z", (1,))
    outcomes = _choose(probs, us)
    # the scalar path gives the same outcomes, checked on a prefix
    assert [measure_z(state, 1, u)[0].value for u in us[:2000]] == list(outcomes[:2000])
    hits = int(np.count_nonzero(outcomes == 0))
    se = math.sqrt(p0 * (1 - p0) / n)
    assert abs(hits / n - p0) < 3 * se
