"""Greedy approximation of a 2×2 unitary by fixed single-qubit gates.

A search runs ``restarts`` independent greedy walks as the rows of one
stack. One step multiplies every alphabet gate onto every row's accepted
product and scores the (restarts, 11, 2, 2) stack of candidates in one
``matrix.distances`` call. In each row the previously appended gate
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
``prev``), so the search returns the best row, ranked by distance then
sequence length.

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
    not depend on search order.
    """
    if target.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got {target.shape}")
    check_unitary(target, atol=1e-9)
    base = params.seed if seed_key is None else seed_key
    base_tuple = tuple(base) if isinstance(base, tuple) else (base,)
    n = params.restarts
    streams = [np.random.default_rng(base if r == 0 else base_tuple + (r,)) for r in range(n)]
    draws = np.stack([rng.integers(params.top_k, size=params.iterations) for rng in streams])

    rows = np.arange(n)
    eye = np.eye(2, dtype=complex)
    acc = np.broadcast_to(eye, (n, 2, 2))  # product of each row's accepted sequence
    best = np.full(n, distance(target, eye, params.metric))  # empty sequence baseline
    prev = np.full(n, -1)
    taken = np.full((n, params.iterations), -1)  # accepted alphabet index per step
    for step in range(params.iterations):
        trials = _ALPHABET_STACK @ acc[:, None]  # (n, 11, 2, 2)
        scores = distances(target, trials, params.metric)
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

    winner = None
    for picks, dist in zip(taken, best):
        result = GreedyResult(tuple(ALPHABET[i] for i in picks if i >= 0), float(dist))
        if winner is None or _outranks(result, winner):
            winner = result
    return winner


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
