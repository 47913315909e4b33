"""Greedy search behavior, determinism, and the exhaustive oracle."""

import math

import numpy as np
import pytest

from helpers import random_1q_target, sequence_product
from pqc_forge.gates import ALPHABET, GateKind, rx, unitary
from pqc_forge.greedy import (
    GreedyParams,
    exhaustive_oracle,
    param_gate_transform,
)
from pqc_forge.matrix import DistanceMetric, distance

QUARTER_BAND_BOUND = 1 - math.cos(math.pi / 8)  # best single gate off-grid


def best_over_seeds(target, seeds=range(10), **kw):
    return min(
        (param_gate_transform(target, GreedyParams(seed=s, **kw)) for s in seeds),
        key=lambda r: (round(r.final_dist, 12), len(r.sequence)),
    )


def test_identity_target_any_seed():
    for seed in range(10):
        res = param_gate_transform(rx(0.0), GreedyParams(seed=seed))
        assert res.final_dist <= 1e-12
        assert distance(rx(0.0), sequence_product(res.sequence)) <= 1e-12


def test_rx_pi_best_over_seeds():
    res = best_over_seeds(rx(math.pi))
    assert res.final_dist <= 1e-9


def test_rx_half_pi_single_sx():
    res = best_over_seeds(rx(math.pi / 2))
    assert res.final_dist <= 1e-9
    assert res.sequence == (GateKind.SX,)


def test_rx_quarter_pi_hits_single_gate_bound():
    # the exact h·t·h word needs a non-improving prefix, so the greedy
    # settles at the one-gate bound 1 - cos(pi/8)
    for seed in range(10):
        res = param_gate_transform(rx(math.pi / 4), GreedyParams(seed=seed))
        assert res.final_dist <= QUARTER_BAND_BOUND + 1e-9


def test_determinism():
    t = rx(1.1)
    p = GreedyParams(seed=7)
    assert param_gate_transform(t, p) == param_gate_transform(t, p)
    assert param_gate_transform(t, p, seed_key=(7, 3)) == param_gate_transform(
        t, p, seed_key=(7, 3)
    )


def test_final_dist_matches_sequence_product():
    rng = np.random.default_rng(17)
    for i in range(40):
        t = random_1q_target(rng)
        res = param_gate_transform(t, GreedyParams(seed=i))
        assert abs(res.final_dist - distance(t, sequence_product(res.sequence))) <= 1e-12


def test_no_consecutive_identical_gates():
    rng = np.random.default_rng(19)
    for i in range(40):
        res = param_gate_transform(random_1q_target(rng), GreedyParams(seed=i))
        for a, b in zip(res.sequence, res.sequence[1:]):
            assert a is not b


def test_accepted_steps_strictly_decrease():
    rng = np.random.default_rng(23)
    for i in range(30):
        t = random_1q_target(rng)
        res = param_gate_transform(t, GreedyParams(seed=i))
        assert len(res.sequence) <= 20
        # each accepted gate beat the word before it, starting from the empty word
        prefix_dists = [
            distance(t, sequence_product(res.sequence[:n])) for n in range(len(res.sequence) + 1)
        ]
        for before, after in zip(prefix_dists, prefix_dists[1:]):
            assert after < before


def test_restarts_never_hurt():
    rng = np.random.default_rng(29)
    for i in range(20):
        t = random_1q_target(rng)
        one = param_gate_transform(t, GreedyParams(seed=i, restarts=1))
        many = param_gate_transform(t, GreedyParams(seed=i, restarts=8))
        assert many.final_dist <= one.final_dist + 1e-15


def test_alphabet_closure():
    # every alphabet gate is recoverable exactly, with a one-gate sequence
    for kind in ALPHABET:
        res = best_over_seeds(unitary(kind), seeds=range(30))
        assert res.final_dist <= 1e-12
        assert len(res.sequence) <= 1


def test_param_validation():
    with pytest.raises(ValueError, match="top_k"):
        GreedyParams(top_k=12)
    with pytest.raises(ValueError, match="iterations"):
        GreedyParams(iterations=0)
    with pytest.raises(ValueError, match="restarts"):
        GreedyParams(restarts=0)
    with pytest.raises(ValueError, match="2x2"):
        param_gate_transform(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        param_gate_transform(np.diag([1.0, 2.0]).astype(complex))


def test_oracle_quarter_turn_grid_is_exact():
    for k in range(9):
        word, dist_k = exhaustive_oracle(rx(k * math.pi / 4), max_len=4)
        assert dist_k <= 1e-9
        assert distance(rx(k * math.pi / 4), sequence_product(word)) <= 1e-9


def test_oracle_identity_short_forms():
    word, d = exhaustive_oracle(np.eye(2, dtype=complex), max_len=1)
    assert d <= 1e-12
    assert word in ((), (GateKind.ID,))


def test_oracle_literal_metric():
    # literal-real must pick a representative with the right global phase
    word, d = exhaustive_oracle(unitary(GateKind.X), max_len=2, metric=DistanceMetric.LITERAL_REAL)
    assert d <= 1e-12
    assert np.max(np.abs(sequence_product(word) - unitary(GateKind.X))) < 1e-9


def test_oracle_lower_bounds_greedy():
    rng = np.random.default_rng(31)
    for i in range(40):
        t = random_1q_target(rng)
        res = param_gate_transform(t, GreedyParams(seed=i))
        _, oracle_dist = exhaustive_oracle(t, max_len=4)
        # the oracle can only be beaten by longer-than-4 greedy sequences
        if len(res.sequence) <= 4:
            assert res.final_dist >= oracle_dist - 1e-12


def test_oracle_rejects_bad_args():
    with pytest.raises(ValueError, match="max_len"):
        exhaustive_oracle(np.eye(2, dtype=complex), max_len=6)
    with pytest.raises(ValueError, match="2x2"):
        exhaustive_oracle(np.eye(4, dtype=complex))
