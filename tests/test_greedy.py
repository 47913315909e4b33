"""Greedy search behavior, determinism, and the exhaustive oracle."""

import math

import numpy as np
import pytest

from helpers import random_1q_target, reference_walk, sequence_product
from pqc_forge import greedy
from pqc_forge.gates import ALPHABET, GateKind, rx, unitary
from pqc_forge.greedy import (
    _ALPHABET_ROWS,
    _ALPHABET_STACK,
    BLOCK_ROWS,
    GreedyParams,
    exhaustive_oracle,
    param_gate_transform,
    transform_batch,
)
from pqc_forge.matrix import DistanceMetric, distance, distances

QUARTER_BAND_BOUND = 1 - math.cos(math.pi / 8)  # best single gate off-grid

P, L = DistanceMetric.PHASE_INVARIANT, DistanceMetric.LITERAL_REAL
KINDS = {"rx": GateKind.RX, "ry": GateKind.RY, "rz": GateKind.RZ, "r": GateKind.R3}

# Words and exact distances of the per-restart, per-candidate search this
# kernel replaced; any changed search decision fails this table.
PINNED = [
    # gate, angles, metric, top_k, restarts, iterations, seed key, word, final_dist.hex()
    ("rx", (1.2,), P, 4, 8, 20, None, "sx", "0x1.18c612b7389e0p-6"),
    ("rx", (1.2,), L, 4, 8, 20, None, "", "0x1.65b670ede93acp-3"),
    ("ry", (1.7,), P, 1, 1, 20, 0, "y", "0x1.fd60b2ee5fdf4p-3"),
    ("ry", (1.7,), L, 1, 1, 20, 0, "", "0x1.5c2d60d20d1cap-2"),
    ("rz", (-2.2,), P, 11, 8, 20, 5, "sdg tdg", "0x1.8f83419e50d00p-9"),
    ("rz", (-2.2,), L, 11, 8, 20, 5, "tdg", "0x1.30e34eae7a6ccp-2"),
    ("rx", (2.9,), P, 11, 1, 20, (7, 3), "sxdg x sx", "0x1.dd8fb92de1200p-8"),
    ("rx", (2.9,), L, 1, 8, 20, (7, 3), "sx tdg", "0x1.4ffd5711ce8b4p-2"),
    ("r", (1.4, 2.1, -0.7), P, 4, 8, 20, (0, 12, 1), "sx t", "0x1.48e760bae6460p-5"),
    ("r", (1.4, 2.1, -0.7), L, 4, 8, 20, (0, 12, 1), "sx", "0x1.8f72bdce176f0p-2"),
    ("r", (-2.5, 0.2, 3.0), P, 1, 8, 20, (3, 14, 2), "t", "0x1.ef1a07e75af40p-7"),
    ("r", (-2.5, 1.2, 3.0), L, 11, 1, 20, (3, 14, 2), "", "0x1.9a42753050658p-3"),
    ("r", (1.9, -1.3, 0.05), P, 11, 8, 30, (11, 0, 0), "sxdg s", "0x1.7f708cfe4d800p-6"),
    ("r", (1.9, -1.3, 0.05), L, 1, 1, 30, (11, 0, 0), "t sxdg t", "0x1.afc961405f160p-4"),
    ("ry", (-1.9,), P, 4, 1, 5, 9, "y", "0x1.7e200306f6644p-3"),
    ("rz", (0.01,), P, 4, 8, 20, 2, "", "0x1.a36df56da0000p-17"),
    ("rx", (3.1,), P, 6, 3, 12, (1, 2), "sxdg x sx", "0x1.c57ab78498000p-13"),
    ("r", (0.7, 2.4, -1.6), P, 2, 5, 25, (42, 7, 2), "x t", "0x1.17dfee4528bf8p-4"),
    ("r", (0.7, 2.4, -1.6), L, 7, 8, 25, (42, 7, 2), "tdg sx", "0x1.3d7ce31e71f88p-3"),
    ("ry", (2.2,), P, 4, 8, 20, (4,), "y", "0x1.bd9d59e94e640p-4"),
]


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


@pytest.mark.parametrize(
    "gate, angles, metric, top_k, restarts, iterations, key, word, dist_hex", PINNED
)
def test_pinned_searches(gate, angles, metric, top_k, restarts, iterations, key, word, dist_hex):
    params = GreedyParams(iterations, top_k, metric, seed=0, restarts=restarts)
    res = param_gate_transform(unitary(KINDS[gate], angles), params, seed_key=key)
    assert " ".join(res.mnemonics()) == word
    assert res.final_dist.hex() == dist_hex


@pytest.mark.parametrize("metric", [P, L])
@pytest.mark.parametrize("restarts", range(1, 9))
def test_batch_equals_one_target_calls(metric, restarts):
    # more targets than one block holds, mixed kinds, repeated seed keys
    rng = np.random.default_rng(restarts)
    n = BLOCK_ROWS // restarts + 3
    exact = [unitary(kind) for kind in ALPHABET] + [rx(math.pi)]
    targets, keys = [], []
    for i in range(n):
        targets.append(random_1q_target(rng) if i % 3 else exact[i % len(exact)])
        keys.append([None, i % 4, (i % 2, 5), (1, i % 3, 2)][i % 4])
    params = GreedyParams(iterations=12, top_k=3, metric=metric, seed=4, restarts=restarts)
    batch = transform_batch(targets, params, keys)
    assert len(batch) == n
    for target, key, got in zip(targets, keys, batch):
        one = param_gate_transform(target, params, seed_key=key)
        assert got.sequence == one.sequence
        assert got.final_dist.hex() == one.final_dist.hex()


def test_alphabet_rows_product_is_the_per_candidate_product():
    # the kernel's one (22, 2) @ (2, 2) product per row against the one
    # (2, 2) @ (2, 2) product per candidate it replaced
    rng = np.random.default_rng(20)
    stacks = [np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)) for n in (1, 7, 128)]
    for _ in range(20):
        n = int(rng.integers(1, 301))
        z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        stacks.append(np.linalg.qr(z)[0])
        words = [rng.integers(len(ALPHABET), size=rng.integers(1, 13)) for _ in range(n)]
        stacks.append(np.stack([sequence_product(ALPHABET[i] for i in w) for w in words]))
    for acc in stacks:
        want = _ALPHABET_STACK @ acc[:, None]
        got = (_ALPHABET_ROWS @ acc).reshape(len(acc), len(ALPHABET), 2, 2)
        assert np.array_equal(got, want)


def reference_targets(rng, n):
    """Random unitaries, exact alphabet words, the identity and rotations
    so close to it that no gate improves on the empty word."""
    targets = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            targets.append(np.linalg.qr(z)[0])
        elif kind == 1:
            word = rng.integers(len(ALPHABET), size=rng.integers(1, 7))
            targets.append(sequence_product(ALPHABET[w] for w in word))
        elif kind == 2:
            targets.append(np.eye(2, dtype=complex))
        else:
            gate = (GateKind.RX, GateKind.RY, GateKind.RZ)[i % 3]
            targets.append(unitary(gate, (float(rng.uniform(-1e-3, 1e-3)),)))
    return targets


@pytest.mark.parametrize("metric", [P, L])
@pytest.mark.parametrize("top_k", [1, 11])
@pytest.mark.parametrize("restarts", [1, 10])
@pytest.mark.parametrize("iterations", [1, 30])
def test_batch_equals_the_full_rescore_walk(metric, top_k, restarts, iterations):
    # more targets than one block holds, repeated seed keys
    rng = np.random.default_rng([top_k, restarts, iterations])
    targets = reference_targets(rng, BLOCK_ROWS + 12)
    keys = [[None, i % 5, (i % 3, 7)][i % 3] for i in range(len(targets))]
    params = GreedyParams(iterations, top_k, metric, seed=2, restarts=restarts)
    want, _ = reference_walk(targets, keys, params)
    got = transform_batch(targets, params, keys)
    assert [r.sequence for r in got] == [r.sequence for r in want]
    assert [r.final_dist.hex() for r in got] == [r.final_dist.hex() for r in want]


def test_a_step_rescores_only_the_rows_that_accepted(monkeypatch):
    rng = np.random.default_rng(21)
    targets = reference_targets(rng, 24)
    keys = list(range(len(targets)))
    params = GreedyParams(iterations=20, top_k=4, restarts=8)
    _, taken = reference_walk(targets, keys, params)
    scored = []

    def counting(u, vs, metric):
        if vs.ndim == 4:  # a candidate stack, not the empty sequence's (2, 2)
            scored.append(len(vs))
        return distances(u, vs, metric)

    monkeypatch.setattr(greedy, "distances", counting)
    transform_batch(targets, params, keys)
    # every row at step 0, then each row after each step it accepted in
    assert sum(scored) == len(taken) + int((taken[:, :-1] >= 0).sum())


def test_batch_of_no_targets_is_empty():
    assert transform_batch([]) == []
    assert transform_batch([], GreedyParams(restarts=3), []) == []


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
    with pytest.raises(ValueError, match="not unitary"):
        transform_batch([rx(0.3), np.diag([1.0, 2.0]).astype(complex)])
    with pytest.raises(ValueError, match="2 targets but 1 seed keys"):
        transform_batch([rx(0.3), rx(0.4)], seed_keys=[1])


def test_params_reject_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        GreedyParams(seed=-1)
    assert GreedyParams(seed=0).seed == 0


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


def test_oracle_word_ignores_global_phase():
    # words that tie up to phase must not be told apart by rounding noise
    rng = np.random.default_rng(0)
    for i in range(200):
        if i % 2:
            picks = rng.integers(len(ALPHABET), size=int(rng.integers(1, 4)))
            u = sequence_product([ALPHABET[j] for j in picks])
        else:
            u = random_1q_target(rng)
        word, _ = exhaustive_oracle(u, max_len=3)
        assert exhaustive_oracle(np.exp(0.37j) * u, max_len=3)[0] == word


def test_oracle_rejects_bad_args():
    with pytest.raises(ValueError, match="max_len"):
        exhaustive_oracle(np.eye(2, dtype=complex), max_len=6)
    with pytest.raises(ValueError, match="2x2"):
        exhaustive_oracle(np.eye(4, dtype=complex))
