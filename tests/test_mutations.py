"""Mutation checks of the grid pass: each case breaks one rule of the pass
with monkeypatch and asserts that the pass's output changes.

The rules are the ones whose faults results alone would not show: the
slot a chunk settles after, which stream's seed words a hand-off gets, one
reseed per stream, and that a power-gain block is not reused while its
chunk waits.  A test that only compares the outputs with a stored digest
must be able to fail on each of them, or it guards nothing.

All cases run case-ii at (0.3, 0.5), 3 cycles (12 slots), 20 trials on the
60-120 dB grid, seed 5, with a draw budget of one slot's normals: one slot
per hand-off and two per decode chunk, so that the pass has several chunks
and some of them wait for the next one.  The chunking does not change the
output (tests/test_evaluator.py), so DIGEST is that of the default budget
too.  It was recorded with numpy 2.4.6; see tests/test_golden.py on other
numpy versions.  The cases patch private names of asymcsit.evaluator, so a
rename must port its case.
"""

import hashlib

import numpy as np
import pytest

from asymcsit import CsitQuality, SnrPoint, build_case_ii
from asymcsit import evaluator
from asymcsit.schemes import SchemePlan

Q35 = CsitQuality(0.3, 0.5)
GRID = [SnrPoint.from_db(db, Q35) for db in (60, 80, 100, 120)]
N_TRIALS = 20
PER_SLOT = len(GRID) * 16 * N_TRIALS  # normals per slot
DIGEST = "ecb635707496f9ade08678b467cd3a6f5cd5ceea27e50316acb0e84743b84d51"


def _digest(plan, budget=PER_SLOT) -> str:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evaluator, "_DRAW_BUDGET", budget)
        arrays = evaluator._evaluate_grid(plan, GRID, N_TRIALS, 5)
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture
def plan():
    return build_case_ii(Q35, 3)


def test_the_stored_digest_holds(plan):
    assert _digest(plan) == _digest(plan, evaluator._DRAW_BUDGET) == DIGEST


def test_a_chunk_settled_one_slot_early(plan, monkeypatch):
    early = tuple(w._replace(settle_after=w.settle_after - 1) if w.settle_after >= 0 else w for w in plan.wiring)
    # a property on the class is read before the instance's own field
    monkeypatch.setattr(SchemePlan, "wiring", property(lambda self: early), raising=False)
    assert _digest(plan) != DIGEST


def test_a_hand_off_given_another_hand_offs_seed_words(plan, monkeypatch):
    draw, handed = evaluator._draw, []

    def half_words(rng, words, normals):  # hand-off k draws hand-off k // 2's streams
        handed.append(words)
        draw(rng, handed[(len(handed) - 1) // 2], normals)

    monkeypatch.setattr(evaluator, "_draw", half_words)
    assert _digest(plan) != DIGEST


def test_one_reseed_per_hand_off(plan, monkeypatch):
    def reseed_once(rng, words, normals):
        evaluator._reseed(rng, words[0])
        for row in normals[:len(words)]:
            rng.standard_normal(out=row)

    monkeypatch.setattr(evaluator, "_draw", reseed_once)
    assert _digest(plan) != DIGEST


def test_a_power_gain_block_reused_while_its_chunk_waits(plan, monkeypatch):
    def take_the_first(pool):
        if not pool.free:
            pool.free.append(pool.make())
        return pool.free[0]  # never taken out: the next chunk writes over a waiting one

    monkeypatch.setattr(evaluator._Pool, "take", take_the_first)
    assert _digest(plan) != DIGEST
