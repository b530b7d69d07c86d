"""Acceptance suite: one test per criterion, pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; any assertion failure marks that criterion as failed.
"""

import time
from itertools import combinations, product
from pathlib import Path

import numpy as np
from scipy.stats import chisquare

from qvote import rng as rngmod
from qvote.adversary import (
    CHEATING,
    CLEAN,
    authority_product_ballot,
    collusion_attack_tb,
    detect_subset_correlation,
    detect_symmetry,
    multi_vote_plain,
    phase_estimate_attack,
)
from qvote.ballots import (
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    cast_vote_db,
    draw_secrets,
    prepare_db_ballot,
    voting_qudit_state,
)
from qvote.cli import main as cli_main
from qvote.protocols import (
    classical_dining,
    classical_modular_vote,
    dining_announcements,
    run_db_vote,
    run_secure_vote,
    run_tb_vote,
)
from qvote.qstate import CorrelatedState, inner, reduced_density, tensor
from qvote.verify import check_privacy, qubit_nogo_search, qutrit_solution_check

import reference

SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"

DB_SWEEP = [(d, n) for d in (3, 5, 8) for n in (2, 3, 4) if d > n]


def _pass(number: int, name: str):
    print(f"\n[acceptance] criterion {number:02d} ({name}): PASS")


def vote_vectors(n):
    return list(product([Vote.YES, Vote.NO], repeat=n))


def weight(votes):
    return sum(1 for v in votes if v is Vote.YES)


def test_criterion_01_db_tally_correctness():
    start = time.monotonic()
    for d, n in DB_SWEEP:
        config = BallotConfig(d, n, Scheme.DB)
        for votes in vote_vectors(n):
            result = run_db_vote(config, list(votes), rngmod.stream(101, 1))
            w = weight(votes)
            assert result.m == w
            # outcome probability, not just the sampled outcome
            state = prepare_db_ballot(d, n)
            for site, v in enumerate(votes):
                state = cast_vote_db(state, site, v)
            c = np.exp(2j * np.pi * w * np.arange(d) / d) / np.sqrt(d)
            expected = CorrelatedState(d, n, c).to_pure()
            prob = abs(inner(expected, state)) ** 2
            assert abs(prob - 1) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _pass(1, f"DB decodes the yes count exactly, {elapsed:.1f}s")


def test_criterion_02_privacy_conditions():
    for d, n in DB_SWEEP:
        report = check_privacy("DB", d, n, tolerance=1e-10)
        assert report.passed
        assert report.worst_same_tally_deviation <= 1e-10
        assert report.worst_cross_tally_overlap <= 1e-10
        report = check_privacy("TB", d, n, tolerance=1e-10)
        assert report.passed
    _pass(2, "overlap conditions hold across the exhaustive sweep")


def test_criterion_03_intermediate_privacy():
    d, n = 5, 4
    # Distributed ballot: single sites are exactly maximally mixed at
    # every stage; larger strict subsets reveal nothing about the votes
    # (their reduced density never depends on who voted what).
    subset_reference: dict = {}
    for votes in vote_vectors(n):
        stages = [prepare_db_ballot(d, n)]
        for site, v in enumerate(votes):
            stages.append(cast_vote_db(stages[-1], site, v))
        for state in stages:
            for site in range(n):
                rho = reduced_density(state, [site])
                assert np.max(np.abs(rho.mat - np.eye(d) / d)) <= 1e-10
            for size in (2, 3):
                for sites in combinations(range(n), size):
                    rho = reduced_density(state, list(sites))
                    if sites in subset_reference:
                        assert np.max(np.abs(rho.mat - subset_reference[sites])) <= 1e-10
                    else:
                        subset_reference[sites] = rho.mat
    config = BallotConfig(d, n, Scheme.TB)
    for votes in vote_vectors(n):
        stages = []
        reference.tb_vote(config, list(votes), rngmod.stream(104, 1),
                          stage_hook=lambda label, s: stages.append(s))
        assert len(stages) == n + 1
        for state in stages:
            for site in (0, 1):
                rho = reduced_density(state, [site])
                assert np.max(np.abs(rho.mat - np.eye(d) / d)) <= 1e-10
    _pass(3, "intermediate states leak nothing: sites mixed, subsets vote-blind")


def test_criterion_04_tb_qutrit_mapping():
    config = BallotConfig(3, 2, Scheme.TB)
    expected = {"NN": "refusal", "YN": "undecided", "NY": "undecided", "YY": "acceptance"}
    for votes, label in expected.items():
        for seed in range(10):
            result = run_tb_vote(config, votes, rngmod.stream(seed, 1))
            assert result.statistics["label"] == label
    _pass(4, "two-voter travelling ballot maps onto refusal/undecided/acceptance")


def test_criterion_05_secure_decoding():
    master = rngmod.stream(105, rngmod.AUTHORITY)
    checked = 0
    while checked < 100:
        d = int(master.choice([7, 11, 13]))
        n = int(master.integers(1, 5))
        secrets = draw_secrets(d, n, master)
        config = BallotConfig(d, n, Scheme.SECURE, secrets=secrets)
        votes = [Vote.YES if master.random() < 0.5 else Vote.NO for _ in range(n)]
        result = run_secure_vote(config, votes, master, repetitions=3)
        w = sum(1 for v in votes if v is Vote.YES)
        assert result.m == w, "no false cheat detection and exact recovery"
        expected_p = (w * (secrets.l_y - secrets.l_n)) % d
        assert result.p == [expected_p] * 3
        checked += 1
    _pass(5, "100 random anti-reuse configs decode p and m exactly")


def test_criterion_06_collusion_attack():
    config = BallotConfig(5, 4, Scheme.TB)
    report = collusion_attack_tb(config, "NYNY", (0, 3), 1000, rngmod.stream(106, 2))
    counts = report.inferred_secrets["in_between_yes_counts"]
    assert counts == [1] * 1000
    hist = [report.outcome_histogram.get(m, 0) for m in range(5)]
    assert sum(hist) == 1000
    stat, pvalue = chisquare(hist)
    assert pvalue >= 0.01
    _pass(6, f"collusion count exact 1000/1000; phase decode uniform (p={pvalue:.3f})")


def test_criterion_07_multi_vote_modulo():
    config = BallotConfig(5, 3, Scheme.DB)
    for votes in product("YN", repeat=3):
        w = sum(1 for v in votes if v == "Y")
        for extra in range(10):
            result = multi_vote_plain(config, votes, 0, extra, np.random.default_rng(0))
            assert result.m == (w + extra) % 5
    _pass(7, "plain-DB multi-voting lands on (tally + extra) mod d")


def test_criterion_08_forgery_detection_rate(forgery_fixture):
    d = forgery_fixture["d"]
    reps = forgery_fixture["repetitions"]
    trials = 10_000
    config1 = BallotConfig(d, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
    report1 = phase_estimate_attack(config1, 0, forgery_fixture["error_scale"], trials,
                                    rngmod.stream(0, rngmod.TRIAL), repetitions=reps)
    oracle = forgery_fixture["detection_rate"]
    assert abs(report1.detection_rate - oracle) <= 0.03
    config3 = BallotConfig(d, 3, Scheme.SECURE, secrets=SecureSecrets(3, 0, 0.2))
    report3 = phase_estimate_attack(config3, 0, forgery_fixture["error_scale"], trials,
                                    rngmod.stream(0, rngmod.TRIAL), repetitions=reps)
    assert report1.detection_rate >= report3.detection_rate
    _pass(8, f"detection rate {report1.detection_rate:.4f} vs oracle {oracle:.4f}; "
             f"unit difference no worse than 3")


def test_criterion_09_qubit_nogo(nogo_fixture):
    eps0 = nogo_fixture["epsilon0"]
    assert eps0 > 0
    start = time.monotonic()
    minimum, _ = qubit_nogo_search(200, 500, rngmod.stream(7, rngmod.TRIAL))
    elapsed = time.monotonic() - start
    assert minimum >= eps0
    assert qutrit_solution_check() <= 1e-12
    assert elapsed < 60
    _pass(9, f"qubit floor {minimum:.6f} >= {eps0:.3f}, qutrit zero, {elapsed:.1f}s")


def test_criterion_10_classical_baselines():
    pairs = [(0, 1), (0, 2), (1, 2)]
    for bits in product([0, 1], repeat=3):
        coins = dict(zip(pairs, bits))
        for payer in (None, 0, 1, 2):
            parity = sum(dining_announcements(3, payer, coins)) % 2
            assert parity == (0 if payer is None else 1)
    rng = rngmod.stream(110, 4)
    for _ in range(1000):
        payer = int(rng.integers(0, 7)) if rng.random() < 0.5 else None
        assert classical_dining(7, payer, rng).nsa_paid == (payer is None)
    for votes in product([0, 1], repeat=4):
        for _ in range(30):
            assert classical_modular_vote(list(votes), rng) == sum(votes)
    _pass(10, "dining cryptographers and modular vote exact")


def test_criterion_11_malicious_authority():
    config = BallotConfig(5, 3, Scheme.DB)
    report = authority_product_ballot(config, "YNY", rngmod.stream(111, 2), trials=300)
    for acc in report.inferred_secrets["per_voter_accuracy"]:
        assert abs(acc - 1.0) <= 1e-10

    honest = prepare_db_ballot(5, 2)
    forged = tensor(voting_qudit_state(5, 0.0), voting_qudit_state(5, 0.0))
    rng = rngmod.stream(112, 2)
    flagged = sum(detect_subset_correlation(forged, [0, 1], g, trials=10) == CHEATING
                  for g in rng.spawn(500))
    assert flagged >= 499
    clean = sum(detect_subset_correlation(honest, [0, 1], g, trials=10) == CLEAN
                for g in rng.spawn(500))
    assert clean == 500

    a = voting_qudit_state(5, 0.9)
    b = voting_qudit_state(5, 0.9 + 2 * np.pi / 5)
    # per-comparison failure rate is (1 - |<a|b>|^2)/2 = 1/2 exactly
    assert abs(inner(a, b)) <= 1e-12
    detected = sum(detect_symmetry([a, b], g, comparisons=7) == CHEATING
                   for g in rngmod.stream(113, 2).spawn(10_000))
    assert detected / 10_000 >= 0.99
    _pass(11, f"votes read off product ballots; detectors at "
              f"{flagged}/500, {clean}/500, {detected / 10_000:.4f}")


def test_criterion_12_deterministic_artifacts(tmp_path):
    cases = [
        ("db_honest.json", 0),
        ("secure_honest.json", 0),
        ("survey_euros.json", 0),
        ("tb_collusion.json", 0),
        ("secure_phase_attack.json", 1),
        ("invalid_dimension.json", 2),
    ]
    for name, expected_code in cases:
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}"
            code = cli_main(["run", "--config", str(SCENARIOS / name), "--out", str(out)])
            assert code == expected_code
            if expected_code != 2:
                files = sorted(out.glob("*"))
                assert len(files) == 2
                outputs.append([f.read_bytes() for f in files])
        if expected_code != 2:
            assert outputs[0] == outputs[1]
    _pass(12, "fixture scenarios rerun byte-identically at every exit code")
