"""Entangled-qudit anonymous voting: simulator and verification harness."""

from .errors import ConfigurationError
from .qstate import (
    INVALID,
    CorrelatedState,
    DensityMatrix,
    LocalUnitary,
    ProjectorSet,
    PureState,
    apply_local,
    inner,
    measure_computational,
    measure_projective,
    reduced_density,
    tensor,
)
from .ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    cast_vote_db,
    decode_db,
    decode_tb,
    draw_secrets,
    phase_vote_unitary,
    prepare_db_ballot,
    prepare_tb_ballot,
    shift_unitary,
    voting_qudit_state,
)
from .protocols import (
    RunResult,
    Transcript,
    classical_dining,
    classical_modular_vote,
    run_db_vote,
    run_secure_vote,
    run_survey,
    run_tb_vote,
)
from .adversary import (
    AttackReport,
    collusion_attack_tb,
    detect_inconsistent_results,
    detect_subset_correlation,
    detect_symmetry,
    mismatched_voting_states,
    multi_vote_plain,
    phase_estimate_attack,
    authority_product_ballot,
)
from .verify import (
    PrivacyReport,
    QubitSchemeParams,
    ansatz_check,
    check_privacy,
    check_reduced_identity,
    qubit_nogo_search,
    qutrit_solution_check,
)

__version__ = "0.1.0"
