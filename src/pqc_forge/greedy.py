"""Greedy approximation of a 2×2 unitary by fixed single-qubit gates.

A search runs ``restarts`` independent greedy walks per target. The one
kernel, ``transform_batch``, stacks the walks of many targets as rows,
target by target, in blocks of at most ``BLOCK_ROWS`` rows that never
split a target's restarts; ``param_gate_transform`` is its one-target
case. One step multiplies every alphabet gate onto every row's accepted
product and scores the (rows, 11, 2, 2) stack of candidates against each
row's target in one ``matrix.distances`` call. A row's arithmetic does
not depend on the rows beside it, so a target gets the same result in
any stack, down to the last bit. In each row the previously appended gate
keeps the 1000 sentinel, so it can never win; the scores are sorted
ascending (ties by alphabet position), a draw picks uniformly from the
best ``top_k``, and the pick is appended only when it strictly improves
on the row's best distance so far. The best distance starts at the empty
sequence's own distance, so the identity is always a candidate answer: a
rotation close to identity comes back as an empty sequence, and nothing
ever gets appended unless it genuinely beats doing nothing. The prev-gate
exclusion and the randomized draw exist to break the x·x / s·s†·s·s†
identity loops a pure argmin would fall into.

The randomized draw makes single walks fall into occasional dead ends
(an accepted mediocre gate whose only improving successor is excluded as
``prev``), so the search returns the target's best row, ranked by
distance then sequence length.

Each row draws once per step from its own numpy PCG64 stream. Row 0 is
keyed by the caller's seed key (``GreedyParams.seed`` or a composite key,
so per-gate streams in a circuit pass are independent of execution
order); row r appends r to it. Identical inputs give identical outputs,
full stop; that determinism-under-seed is the reproducibility contract.

``exhaustive_oracle`` is the independent check: brute force over every
alphabet word up to a length cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import ALPHABET, GateKind, unitary
from .matrix import DistanceMetric, check_unitary, distance, distances

UNSCORED = 1000.0
RANK_ATOL = 1e-12  # distances closer than this are a tie; shorter wins
# Rows of one kernel step; a target's restarts always share a block. On
# sel8-sweep, 128 rows ran as fast as 256 and raised peak RSS half as much.
BLOCK_ROWS = 128

_ALPHABET_STACK = np.stack([unitary(kind) for kind in ALPHABET])  # (11, 2, 2)


@dataclass(frozen=True)
class GreedyParams:
    iterations: int = 20
    top_k: int = 4
    metric: DistanceMetric = DistanceMetric.PHASE_INVARIANT
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 1 <= self.top_k <= len(ALPHABET):
            raise ValueError(f"top_k must be in 1..{len(ALPHABET)}, got {self.top_k}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class GreedyResult:
    sequence: tuple[GateKind, ...]
    final_dist: float

    def mnemonics(self) -> list[str]:
        return [kind.value for kind in self.sequence]


def param_gate_transform(
    target: np.ndarray,
    params: GreedyParams = GreedyParams(),
    seed_key=None,
) -> GreedyResult:
    """Approximate ``target`` (2×2 unitary) by a fixed-gate sequence.

    Runs ``params.restarts`` independent walks, one stack row each, and
    returns the one with the smallest distance (shorter sequence wins
    ties). ``seed_key`` overrides the random stream key (any int or tuple
    of ints); it defaults to ``params.seed``. Callers doing many searches
    pass a composite key such as ``(seed, op_index)`` so that results do
    not depend on search order, and search them in one
    ``transform_batch`` call.
    """
    return transform_batch([target], params, [seed_key])[0]


def transform_batch(
    targets,
    params: GreedyParams = GreedyParams(),
    seed_keys=None,
) -> list[GreedyResult]:
    """``param_gate_transform`` of each target, searched as rows of one stack.

    ``seed_keys`` gives one stream key per target; a missing list or a
    None key stands for ``params.seed``. Each result is exactly the one
    that target gets on its own: a row's arithmetic does not depend on
    the rows beside it.
    """
    targets = list(targets)
    keys = [None] * len(targets) if seed_keys is None else list(seed_keys)
    if len(keys) != len(targets):
        raise ValueError(f"{len(targets)} targets but {len(keys)} seed keys")
    keys = [params.seed if key is None else key for key in keys]
    for target in targets:
        if target.shape != (2, 2):
            raise ValueError(f"target must be 2x2, got {target.shape}")
        check_unitary(target, atol=1e-9)
    per_block = max(1, BLOCK_ROWS // params.restarts)
    results: list[GreedyResult] = []
    for lo in range(0, len(targets), per_block):
        hi = lo + per_block
        results += _walk(np.stack(targets[lo:hi]), keys[lo:hi], params)
    return results


def _walk(targets: np.ndarray, keys: list, params: GreedyParams) -> list[GreedyResult]:
    """Every restart of every target as one row; the best row per target."""
    n_restarts = params.restarts
    streams = [
        np.random.default_rng(key if r == 0 else _key_tuple(key) + (r,))
        for key in keys
        for r in range(n_restarts)
    ]
    draws = np.stack([rng.integers(params.top_k, size=params.iterations) for rng in streams])

    n = len(streams)
    rows = np.arange(n)
    row_targets = np.repeat(targets, n_restarts, axis=0)[:, None]  # (n, 1, 2, 2)
    eye = np.eye(2, dtype=complex)
    acc = np.broadcast_to(eye, (n, 2, 2))  # product of each row's accepted sequence
    best = np.repeat(distances(targets, eye, params.metric), n_restarts)  # empty sequence
    prev = np.full(n, -1)
    taken = np.full((n, params.iterations), -1)  # accepted alphabet index per step
    for step in range(params.iterations):
        trials = _ALPHABET_STACK @ acc[:, None]  # (n, 11, 2, 2)
        scores = distances(row_targets, trials, params.metric)
        has_prev = prev >= 0
        scores[has_prev, prev[has_prev]] = UNSCORED  # would invite x·x = id style cancellation
        # ascending by score, ties by alphabet position (keeps runs reproducible)
        order = np.argsort(scores, axis=1, kind="stable")
        pick = order[rows, draws[:, step]]
        score = scores[rows, pick]
        took = score < best
        prev[took] = taken[took, step] = pick[took]
        best[took] = score[took]
        acc = np.where(took[:, None, None], trials[rows, pick], acc)

    results = []
    for target_taken, target_best in zip(
        taken.reshape(len(keys), n_restarts, -1), best.reshape(len(keys), n_restarts)
    ):
        winner = None
        for picks, dist in zip(target_taken, target_best):
            result = GreedyResult(tuple(ALPHABET[i] for i in picks if i >= 0), float(dist))
            if winner is None or _outranks(result, winner):
                winner = result
        results.append(winner)
    return results


def _key_tuple(key) -> tuple:
    return tuple(key) if isinstance(key, tuple) else (key,)


def _outranks(a: "GreedyResult", b: "GreedyResult") -> bool:
    """Smaller distance wins; ties within RANK_ATOL go to the shorter word."""
    if a.final_dist < b.final_dist - RANK_ATOL:
        return True
    return a.final_dist <= b.final_dist + RANK_ATOL and len(a.sequence) < len(b.sequence)


def exhaustive_oracle(
    target: np.ndarray,
    max_len: int = 4,
    metric: DistanceMetric = DistanceMetric.PHASE_INVARIANT,
) -> tuple[tuple[GateKind, ...], float]:
    """Globally best alphabet word of length <= max_len for ``target``.

    Pure brute force (11^max_len products), vectorized; max_len is capped
    at 5 to keep it instant. Distances within RANK_ATOL tie: within a
    length the first such word in enumeration order wins, and a longer
    word wins only by more than RANK_ATOL. So the word does not turn on
    rounding noise, such as a global phase on ``target``.
    """
    if target.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got {target.shape}")
    if not 0 <= max_len <= 5:
        raise ValueError(f"max_len must be in 0..5, got {max_len}")

    n = len(ALPHABET)
    best_word: tuple[GateKind, ...] = ()
    best_dist = distance(target, np.eye(2, dtype=complex), metric)

    products = np.eye(2, dtype=complex)[None]  # (1, 2, 2): the empty word
    for length in range(1, max_len + 1):
        # append each alphabet gate to each existing product (circuit order)
        products = np.einsum("gij,mjk->gmik", _ALPHABET_STACK, products).reshape(-1, 2, 2)
        dists = distances(target, products, metric)
        low = dists.min()
        if low < best_dist - RANK_ATOL:
            m = int(np.argmax(dists <= low + RANK_ATOL))
            best_dist = float(dists[m])
            # base-11 decode; the least significant digit is the first-applied
            # gate, so reading digits LSB-first gives circuit order directly
            digits = []
            rest = m
            for _ in range(length):
                digits.append(rest % n)
                rest //= n
            best_word = tuple(ALPHABET[d] for d in digits)
    return best_word, best_dist
