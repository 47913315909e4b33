"""Greedy approximation of a 2×2 unitary by fixed single-qubit gates.

One search step scores every alphabet gate (except the previously
appended one) by the distance the sequence would have after appending
it, sorts the scores ascending, draws uniformly from the best ``top_k``
candidates, and appends the draw only when it strictly improves on the
best distance so far. The best distance starts at the empty sequence's
own distance, so the identity is always a candidate answer: a rotation
close to identity comes back as an empty sequence, and nothing ever
gets appended unless it genuinely beats doing nothing. Unscored entries
keep the 1000 sentinel, so they can never win. The prev-gate exclusion
and the randomized draw exist to break the x·x / s·s†·s·s† identity
loops a pure argmin would fall into.

The randomized draw makes single runs fall into occasional dead ends
(an accepted mediocre gate whose only improving successor is excluded as
``prev``), so a search runs ``restarts`` independent streams and keeps
the best result, ranked by distance then sequence length. Restart 0 uses
the caller's seed key unchanged; restart r appends r to it.

Randomness comes from numpy's PCG64 generator seeded from
``GreedyParams.seed`` (optionally a composite key, so per-gate streams in
a circuit pass are independent of execution order). Identical inputs give
identical outputs, full stop; that determinism-under-seed is the
reproducibility contract.

``exhaustive_oracle`` is the independent check: brute force over every
alphabet word up to a length cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import ALPHABET, GateKind, unitary
from .matrix import DistanceMetric, check_unitary, distance

UNSCORED = 1000.0
RANK_ATOL = 1e-12  # distances closer than this are a tie; shorter wins

_ALPHABET_MATS = tuple(unitary(kind) for kind in ALPHABET)


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

    Runs ``params.restarts`` independent searches and returns the one
    with the smallest distance (shorter sequence wins ties). ``seed_key``
    overrides the random stream key (any int or tuple of ints); it
    defaults to ``params.seed``. Callers doing many searches pass a
    composite key such as ``(seed, op_index)`` so that results do not
    depend on search order.
    """
    if target.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got {target.shape}")
    check_unitary(target, atol=1e-9)
    base = params.seed if seed_key is None else seed_key
    base_tuple = tuple(base) if isinstance(base, tuple) else (base,)

    best = None
    for r in range(params.restarts):
        key = base if r == 0 else base_tuple + (r,)
        result = _single_search(target, params, key)
        if best is None or _outranks(result, best):
            best = result
    return best


def _outranks(a: "GreedyResult", b: "GreedyResult") -> bool:
    """Smaller distance wins; ties within RANK_ATOL go to the shorter word."""
    if a.final_dist < b.final_dist - RANK_ATOL:
        return True
    return a.final_dist <= b.final_dist + RANK_ATOL and len(a.sequence) < len(b.sequence)


def _single_search(target: np.ndarray, params: GreedyParams, seed_key) -> GreedyResult:
    rng = np.random.default_rng(seed_key)
    acc = np.eye(2, dtype=complex)  # product of the accepted sequence
    sequence: list[GateKind] = []
    final_dist = distance(target, acc, params.metric)  # empty sequence baseline
    prev: GateKind | None = None

    for _ in range(params.iterations):
        scores = [UNSCORED] * len(ALPHABET)
        for idx, kind in enumerate(ALPHABET):
            if kind is prev:
                continue  # would invite x·x = id style cancellation
            trial = _ALPHABET_MATS[idx] @ acc
            scores[idx] = distance(target, trial, params.metric)
        # ascending by score, ties by alphabet position (keeps runs reproducible)
        order = sorted(range(len(ALPHABET)), key=lambda i: (scores[i], i))
        top = order[: params.top_k]
        pick = top[int(rng.integers(len(top)))]
        if scores[pick] < final_dist:
            prev = ALPHABET[pick]
            final_dist = scores[pick]
            sequence.append(prev)
            acc = _ALPHABET_MATS[pick] @ acc

    return GreedyResult(tuple(sequence), final_dist)


def exhaustive_oracle(
    target: np.ndarray,
    max_len: int = 4,
    metric: DistanceMetric = DistanceMetric.PHASE_INVARIANT,
) -> tuple[tuple[GateKind, ...], float]:
    """Globally best alphabet word of length <= max_len for ``target``.

    Pure brute force (11^max_len products), vectorized; max_len is capped
    at 5 to keep it instant. Ties go to the shortest word, resolved
    deterministically within a length, so repeat calls agree exactly.
    """
    if target.shape != (2, 2):
        raise ValueError(f"target must be 2x2, got {target.shape}")
    if not 0 <= max_len <= 5:
        raise ValueError(f"max_len must be in 0..5, got {max_len}")

    alpha = np.stack(_ALPHABET_MATS)  # (11, 2, 2)
    n = len(ALPHABET)
    best_word: tuple[GateKind, ...] = ()
    best_dist = distance(target, np.eye(2, dtype=complex), metric)

    products = np.eye(2, dtype=complex)[None]  # (1, 2, 2): the empty word
    for length in range(1, max_len + 1):
        # append each alphabet gate to each existing product (circuit order)
        products = np.einsum("gij,mjk->gmik", alpha, products).reshape(-1, 2, 2)
        overlaps = np.einsum("mij,ij->m", products.conj(), target)
        if metric is DistanceMetric.LITERAL_REAL:
            dists = 1.0 - overlaps.real / 2.0
        else:
            dists = 1.0 - np.abs(overlaps) / 2.0
        m = int(np.argmin(dists))
        if dists[m] < best_dist - 1e-15:
            best_dist = max(0.0, float(dists[m]))
            # base-11 decode; the least significant digit is the first-applied
            # gate, so reading digits LSB-first gives circuit order directly
            digits = []
            rest = m
            for _ in range(length):
                digits.append(rest % n)
                rest //= n
            best_word = tuple(ALPHABET[d] for d in digits)
    return best_word, best_dist
