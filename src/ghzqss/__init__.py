"""Simulator for (n,n)-threshold quantum secret sharing over GHZ carriers.

The package splits into a small dense state-vector engine (``statevec``),
the protocol round mechanics (``protocol``), eavesdropping models with an
exact single-round oracle (``attacks``), session orchestration with
transcript/report output (``session``), and a command-line front end
(``cli``).
"""

from .attacks import (
    ATTACK_KINDS,
    AttackModel,
    averaged_detection_rate,
    conditional_detection_rate,
    eve_mutual_information,
    eve_record_distribution,
    exact_round_analysis,
    exact_tables,
    route_rounds,
    run_round,
    tap_collective,
)
from .protocol import (
    RoundOutcome,
    RoundPlan,
    StateVariant,
    Transcript,
    announcement_schedule,
    check_round_count,
    encode_round,
    measure_round,
    plan_sequences,
    prepare_variant,
    receiver_correction,
    receiver_parity_state,
    recover_secret,
    standard_variants,
)
from .session import (
    SessionConfig,
    SessionReport,
    SessionResult,
    eavesdrop_check,
    run_session,
    write_outputs,
)
from .statevec import (
    MAX_QUBITS,
    MeasOutcome,
    NormalizationError,
    RegisterCapacityError,
    StateVector,
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

__version__ = "0.1.0"
