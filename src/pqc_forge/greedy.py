"""Greedy approximation of a 2×2 unitary by fixed single-qubit gates.

A search runs ``restarts`` independent greedy walks per target. The one
kernel, ``transform_batch``, stacks the walks of many targets as rows,
target by target, in blocks of at most ``BLOCK_ROWS`` rows that never
split a target's restarts; ``param_gate_transform`` is its one-target
case. Scoring a row forms its 11 candidates as one (22, 2)·(2, 2)
product, the alphabet's stacked rows times the row's accepted product,
and scores the (rows, 11, 2, 2) stack against each row's target in one
``matrix.distances`` call. That product gives the bits of one
(2, 2)·(2, 2) product per candidate: the column-major BLAS sees the same
M = 2 and K = 2 in both and differs only in N, so it accumulates every
entry the same way. A row's arithmetic does not depend on the rows
beside it, so a target gets the same result in any stack, down to the
last bit. In each row the previously appended gate keeps the 1000
sentinel, so it can never win; the scores are sorted ascending (ties by
alphabet position), a draw picks uniformly from the best ``top_k``, and
the pick is appended only when it strictly improves
on the row's best distance so far. The best distance starts at the empty
sequence's own distance, so the identity is always a candidate answer: a
rotation close to identity comes back as an empty sequence, and nothing
ever gets appended unless it genuinely beats doing nothing. The prev-gate
exclusion and the randomized draw exist to break the x·x / s·s†·s·s†
identity loops a pure argmin would fall into.

A row's scores depend only on its target, its accepted product and its
previous gate, and those change only when the row accepts. So each row
keeps the alphabet indices and scores of its sorted best ``top_k``
candidates, not their products; a step reads every row's draw against
them, and only the rows that accepted in the step before are scored
again (at the first step, every row). An accepting row forms its new
product as one (2, 2)·(2, 2) product: the bits its candidate was scored
with. Scoring a row is the same arithmetic whichever rows share its
stack, so every word and distance is the one full rescoring gives.

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
# Rows of one kernel step; a target's restarts always share a block.
# Medians of 3 bench/run.py runs (10 s each, 2 cores, 1 BLAS thread):
#   rows                    128    256    512   1280   (128 rows, full rescore)
#   sel8-sweep run_s ms     71.3   92.8   61.8   59.5   95.1
#   sel8-sweep peak RSS MB  41.3   41.7   42.6   44.5   41.5
# 512 and 1280 rows put peak RSS 2.6% and 7% above the full rescore's,
# and 256 rows were no faster, so 128 stays.
BLOCK_ROWS = 128

_ALPHABET_STACK = np.stack([unitary(kind) for kind in ALPHABET])  # (11, 2, 2)
_ALPHABET_ROWS = _ALPHABET_STACK.reshape(-1, 2)  # (22, 2): every gate's two rows


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    n_restarts, top_k = params.restarts, params.top_k
    streams = [
        np.random.default_rng(key if r == 0 else _key_tuple(key) + (r,))
        for key in keys
        for r in range(n_restarts)
    ]
    draws = np.stack([rng.integers(top_k, size=params.iterations) for rng in streams])

    n = len(streams)
    rows = np.arange(n)
    eye = np.eye(2, dtype=complex)
    acc = np.repeat(eye[None], n, axis=0)  # product of each row's accepted sequence
    best = np.repeat(distances(targets, eye, params.metric), n_restarts)  # empty sequence
    taken = np.full((n, params.iterations), -1)  # accepted alphabet index per step
    # each row's best top_k candidates, ascending: alphabet index and score
    cand = np.empty((n, top_k), dtype=int)
    cand_score = np.empty((n, top_k))
    moved = rows  # rows whose candidates changed: every row before the first step
    for step in range(params.iterations):
        if moved.size:
            sub = np.arange(len(moved))
            trials = (_ALPHABET_ROWS @ acc[moved]).reshape(len(moved), len(ALPHABET), 2, 2)
            scores = distances(targets[moved // n_restarts, None], trials, params.metric)
            if step:  # every moved row has just appended a gate
                scores[sub, taken[moved, step - 1]] = UNSCORED  # would invite x·x = id
            # ascending by score, ties by alphabet position (keeps runs reproducible)
            order = np.argsort(scores, axis=1, kind="stable")[:, :top_k]
            cand[moved] = order
            cand_score[moved] = scores[sub[:, None], order]
        draw = draws[:, step]
        score = cand_score[rows, draw]
        moved = np.flatnonzero(score < best)
        taken[moved, step] = cand[moved, draw[moved]]
        best[moved] = score[moved]
        acc[moved] = _ALPHABET_STACK[taken[moved, step]] @ acc[moved]

    ranks = list(zip(best.tolist(), (taken >= 0).sum(axis=1).tolist()))
    results = []
    for lo in range(0, n, n_restarts):
        win = lo
        for row in range(lo + 1, lo + n_restarts):
            if _outranks(ranks[row], ranks[win]):
                win = row
        word = tuple(ALPHABET[i] for i in taken[win] if i >= 0)
        results.append(GreedyResult(word, ranks[win][0]))
    return results


def _key_tuple(key) -> tuple:
    return tuple(key) if isinstance(key, tuple) else (key,)


def _outranks(a: tuple[float, int], b: tuple[float, int]) -> bool:
    """Whether (distance, length) ``a`` beats ``b``: the smaller distance
    wins; distances within RANK_ATOL tie, and then the shorter word wins."""
    (dist_a, len_a), (dist_b, len_b) = a, b
    if dist_a < dist_b - RANK_ATOL:
        return True
    return dist_a <= dist_b + RANK_ATOL and len_a < len_b


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
