"""Rollback discipline of the selection-time what-if evaluator.

``SelectionState.speculate``/``rollback`` replaced the per-candidate
``copy()`` in the Section 5 heuristics; a rollback that leaves any residue
would silently change selection sequences (and therefore every Het/OMMOML
makespan).  These tests fuzz the delta evaluator against fresh copies over
seeded random platforms and grids, and pin the scoring loops themselves to
the copy-based semantics they replaced.

``incremental_selection`` inlines the selection-time model into one flat
loop; the speculate/score/rollback loop it replaced lives on here
(:func:`_score`, :func:`_oracle_selection`) as the oracle its sequences
must equal exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.blocks import BlockGrid, ceil_div
from repro.core.chunks import PanelAllocator
from repro.platform.model import Platform, Worker
from repro.schedulers.base import SchedulingError
from repro.schedulers.selection import (
    ALL_VARIANTS,
    SelectionState,
    Variant,
    incremental_selection,
    min_min_selection,
    usable_mus,
)


def _score(state: SelectionState, widx: int, scope: str) -> tuple[float, tuple]:
    """Score of selecting ``widx`` next on ``state`` (higher = better).

    Leaves the speculative assignment applied; the caller must roll back
    the returned token (after any nested look-ahead speculation).
    """
    before = state.port_free
    token, comm_end, _ = state.speculate(widx)
    if scope == "global":
        score = state.total_work / comm_end if comm_end > 0 else float("inf")
    else:
        elapsed = comm_end - before
        score = state.chunk_work(widx) / elapsed if elapsed > 0 else float("inf")
    return score, token


def _oracle_selection(platform: Platform, grid: BlockGrid, variant: Variant) -> list[int]:
    """The scalar speculate/score/rollback selection loop (oracle for the
    flat loop in :func:`incremental_selection`)."""
    mus = usable_mus(platform)
    usable = [i for i, mu in enumerate(mus) if mu >= 1]
    if not usable:
        raise SchedulingError("no worker has enough memory for the overlapped layout")

    state = SelectionState(platform, grid, mus, variant.count_c)

    def candidate_score(widx: int) -> float:
        before = state.port_free
        before_work = state.total_work
        first, token = _score(state, widx, variant.scope)
        if not variant.lookahead:
            state.rollback(token)
            return first
        best_pair = -float("inf")
        for j in usable:
            token2, comm_end2, _ = state.speculate(j)
            if variant.scope == "global":
                pair = state.total_work / comm_end2 if comm_end2 > 0 else float("inf")
            else:
                gained = state.total_work - before_work
                elapsed = comm_end2 - before
                pair = gained / elapsed if elapsed > 0 else float("inf")
            state.rollback(token2)
            best_pair = max(best_pair, pair)
        state.rollback(token)
        return best_pair

    sequence: list[int] = []
    panels = PanelAllocator(grid.s)
    since_grant = [0] * platform.p
    need = [ceil_div(grid.r, mu) if mu >= 1 else 0 for mu in mus]
    while not panels.exhausted:
        best_w = max(usable, key=lambda i: (candidate_score(i), -i))
        sequence.append(best_w)
        state.assign(best_w)
        since_grant[best_w] += 1
        if since_grant[best_w] == need[best_w]:
            since_grant[best_w] = 0
            panels.grant(mus[best_w])
    return sequence


def _state_tuple(state: SelectionState) -> tuple:
    """Exact observable state (no approx: rollback must be bit-perfect)."""
    return (state.port_free, tuple(state.ready), state.total_work)


def _random_platform(rng: random.Random, p: int) -> Platform:
    return Platform(
        [
            Worker(
                i,
                c=rng.choice([0.25, 0.5, 1.0, 1.5, 2.0]),
                w=rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]),
                m=rng.randrange(5, 64),
            )
            for i in range(p)
        ]
    )


def _random_instances(seed: int, n: int):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        platform = _random_platform(rng, rng.randrange(1, 6))
        grid = BlockGrid(
            r=rng.randrange(1, 10), t=rng.randrange(1, 8), s=rng.randrange(1, 14)
        )
        if any(mu >= 1 for mu in usable_mus(platform)):
            out.append((platform, grid))
    return out


@pytest.mark.parametrize("seed", [1, 22, 333])
def test_speculate_rollback_restores_exactly(seed):
    """Fuzz loop: after every candidate scoring the state must equal a fresh
    copy taken before it -- including nested look-ahead speculation."""
    rng = random.Random(seed)
    for platform, grid in _random_instances(seed, 8):
        mus = usable_mus(platform)
        usable = [i for i, mu in enumerate(mus) if mu >= 1]
        state = SelectionState(platform, grid, mus, count_c=bool(seed % 2))
        for _step in range(12):
            for widx in usable:
                snapshot = state.copy()
                before = _state_tuple(state)
                # plain candidate score
                score, token = _score(state, widx, "global")
                state.rollback(token)
                assert _state_tuple(state) == before
                # nested (look-ahead) speculation, rolled back LIFO
                token1, _, _ = state.speculate(widx)
                for j in usable:
                    token2, _, _ = state.speculate(j)
                    state.rollback(token2)
                state.rollback(token1)
                assert _state_tuple(state) == before
                assert _state_tuple(state) == _state_tuple(snapshot)
            # commit one real assignment and keep fuzzing from the new state
            state.assign(rng.choice(usable))


def _copying_score(state, widx, scope):
    """The pre-delta reference scorer: score on a throwaway copy."""
    trial = state.copy()
    before = state.port_free
    comm_end, _ = trial.assign(widx)
    if scope == "global":
        return trial.total_work / comm_end if comm_end > 0 else float("inf")
    elapsed = comm_end - before
    return state.chunk_work(widx) / elapsed if elapsed > 0 else float("inf")


@pytest.mark.parametrize("scope", ["global", "local"])
@pytest.mark.parametrize("seed", [4, 55])
def test_delta_scores_match_copy_scores(scope, seed):
    for platform, grid in _random_instances(seed, 6):
        mus = usable_mus(platform)
        usable = [i for i, mu in enumerate(mus) if mu >= 1]
        state = SelectionState(platform, grid, mus, count_c=True)
        rng = random.Random(seed)
        for _step in range(10):
            for widx in usable:
                expected = _copying_score(state, widx, scope)
                got, token = _score(state, widx, scope)
                state.rollback(token)
                assert got == expected
            state.assign(rng.choice(usable))


@pytest.mark.parametrize("seed", [9, 77])
def test_selection_sequences_unchanged_by_delta_evaluator(seed):
    """End to end: the delta evaluator must produce exactly the sequences a
    copy-per-candidate evaluator would (pinned via a reference
    reimplementation of the min-min loop, and via determinism of the
    variant selections)."""
    for platform, grid in _random_instances(seed, 4):
        # reference min-min with throwaway copies
        mus = usable_mus(platform)
        usable = [i for i, mu in enumerate(mus) if mu >= 1]
        state = SelectionState(platform, grid, mus, count_c=True)
        sequence = []
        panels = PanelAllocator(grid.s)
        since = [0] * platform.p
        need = [ceil_div(grid.r, mu) if mu >= 1 else 0 for mu in mus]
        while not panels.exhausted:
            best_w, best_done = -1, float("inf")
            for i in usable:
                trial = state.copy()
                _, comp_end = trial.assign(i)
                if comp_end < best_done:
                    best_w, best_done = i, comp_end
            sequence.append(best_w)
            state.assign(best_w)
            since[best_w] += 1
            if since[best_w] == need[best_w]:
                since[best_w] = 0
                panels.grant(mus[best_w])
        assert min_min_selection(platform, grid).sequence == sequence

        # all eight Het variants stay deterministic and panel-complete
        for variant in ALL_VARIANTS:
            out1 = incremental_selection(platform, grid, variant)
            out2 = incremental_selection(platform, grid, variant)
            assert out1.sequence == out2.sequence


def test_rollback_requires_lifo_order():
    """Documented contract: tokens are LIFO.  Out-of-order rollback of
    *different* workers composes (disjoint scalars) but port/total state
    comes from the token, so the test pins the intended usage."""
    platform = Platform([Worker(0, 1.0, 1.0, 21), Worker(1, 0.5, 2.0, 32)])
    grid = BlockGrid(r=4, t=3, s=6)
    state = SelectionState(platform, grid, usable_mus(platform), count_c=True)
    before = _state_tuple(state)
    t0, _, _ = state.speculate(0)
    t1, _, _ = state.speculate(1)
    state.rollback(t1)
    state.rollback(t0)
    assert _state_tuple(state) == before


def test_schedulingerror_on_memoryless_platform():
    platform = Platform([Worker(0, 1.0, 1.0, 2)])  # below any mu
    grid = BlockGrid(r=2, t=2, s=2)
    with pytest.raises(SchedulingError):
        min_min_selection(platform, grid)


def _wall_platform(rng: random.Random, p: int) -> Platform:
    """Random platform; unrounded costs make most sums inexact, so an
    operation-order slip changes scores.  Memories range from too small
    to enrol (``mu = 0``) to large chunk sides."""
    return Platform(
        [
            Worker(
                i,
                c=rng.choice([0.25, 0.5, 1.0, 2.0, rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)]),
                w=rng.choice([0.25, 1.0, 4.0, rng.uniform(0.05, 5.0)]),
                m=rng.choice([2, 4, rng.randrange(5, 40), rng.randrange(40, 200)]),
            )
            for i in range(p)
        ]
    )


def _wall_cases():
    rng = random.Random(2024)
    cases = []
    # identical workers: every score ties, so the lowest index must win
    cases.append((Platform([Worker(i, 0.5, 1.0, 30) for i in range(4)]), BlockGrid(r=6, t=3, s=9)))
    # r < mu clipping on every worker (mu = 3 and 6 against r = 2)
    cases.append(
        (Platform([Worker(0, 1.0, 2.0, 21), Worker(1, 0.25, 1.0, 60)]), BlockGrid(r=2, t=4, s=11))
    )
    # a worker excluded for memory (mu = 0) between two usable ones
    plat = Platform([Worker(0, 1.0, 1.0, 30), Worker(1, 0.1, 0.1, 2), Worker(2, 0.5, 3.0, 21)])
    assert usable_mus(plat)[1] == 0
    cases.append((plat, BlockGrid(r=7, t=2, s=10)))
    # p = 1
    cases.append((Platform([Worker(0, 0.5, 2.0, 40)]), BlockGrid(r=5, t=3, s=13)))
    while len(cases) < 100:
        platform = _wall_platform(rng, rng.randrange(1, 8))
        grid = BlockGrid(r=rng.randrange(1, 16), t=rng.randrange(1, 9), s=rng.randrange(1, 24))
        if any(mu >= 1 for mu in usable_mus(platform)):
            cases.append((platform, grid))
    return cases


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.label)
def test_flat_selection_matches_scalar_oracle(variant):
    """Seeded wall: the flat selection loop gives exactly the oracle's
    sequence on random platforms (plus identical workers, ``r < mu``
    clipping, memory-excluded workers and ``p = 1``) under every variant."""
    for platform, grid in _wall_cases():
        got = incremental_selection(platform, grid, variant).sequence
        assert got == _oracle_selection(platform, grid, variant), (platform, grid)
