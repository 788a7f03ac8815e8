"""Mutation checks of the grid pass: each case breaks one rule of the pass
with monkeypatch and asserts that a check fails.

The rules are the ones whose faults results alone would not show: the
slot a chunk settles after, which stream's seed words a hand-off gets and
which row each of them fills, one reseed per stream, that a power-gain
block is not reused while its chunk waits, and the decode wiring the plan
stores (side links, SIC order, carried ranks, each slot's shape).  A test
that only compares the outputs with a stored digest, or the stored wiring
with a scan, must be able to fail on each of them, or it guards nothing.

All cases run case-ii at (0.3, 0.5), 3 cycles (12 slots), 20 trials on the
60-120 dB grid, seed 5, with a draw budget of one slot's normals: one slot
per hand-off and two per decode chunk, so that the pass has several chunks
and some of them wait for the next one.  The cases on who draws a row run
one normal short of that (SHARED): a slot is then over the budget, a decode
chunk is one slot, and the calling thread draws the rows of each hand-off
that the worker has not taken.  The chunking does not change the
output (tests/test_evaluator.py), and neither does which thread draws a
row, so DIGEST is that of the default budget and of every schedule too.
It was recorded with numpy 2.4.6; see tests/test_golden.py on other numpy
versions.  Each draw mutation keeps the worker out of the draw (its draws
return at once), so that the calling thread draws every row and the
mutation acts the same in every run.  The cases
patch private names of asymcsit.evaluator and asymcsit.schemes, so a
rename must port its case.
"""

import hashlib
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from test_properties import _check_wiring

from asymcsit import CsitQuality, SnrPoint, build_case_ii
from asymcsit import evaluator
from asymcsit.schemes import SchemePlan

Q35 = CsitQuality(0.3, 0.5)
GRID = [SnrPoint.from_db(db, Q35) for db in (60, 80, 100, 120)]
N_TRIALS = 20
PER_SLOT = len(GRID) * 16 * N_TRIALS  # normals per slot
SHARED = PER_SLOT - 1  # a slot over the budget: one slot per decode chunk, whose rows both threads draw
DIGEST = "ecb635707496f9ade08678b467cd3a6f5cd5ceea27e50316acb0e84743b84d51"


def _digest(plan, budget=PER_SLOT) -> str:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evaluator, "_DRAW_BUDGET", budget)
        arrays = evaluator._evaluate_grid(plan, GRID, N_TRIALS, 5)
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _log_reseeds(monkeypatch) -> list:
    """Log each stream's reseed as (thread, its seed words)."""
    log, reseed = [], evaluator._reseed

    def spy_reseed(rng, words):
        log.append((threading.get_ident(), tuple(words)))
        reseed(rng, words)

    monkeypatch.setattr(evaluator, "_reseed", spy_reseed)
    return log


def _stored(monkeypatch, name, value):
    # a property on the class is read before the instance's own field
    monkeypatch.setattr(SchemePlan, name, property(lambda self: value), raising=False)


@pytest.fixture
def plan():
    return build_case_ii(Q35, 3)


def test_the_stored_digest_holds(plan):
    assert _digest(plan) == _digest(plan, evaluator._DRAW_BUDGET) == DIGEST


@pytest.mark.parametrize("drawer", ["caller", "worker"])
def test_the_digest_holds_when_one_thread_draws_every_row(plan, monkeypatch, one_drawer, drawer):
    reseeds = _log_reseeds(monkeypatch)
    one_drawer(drawer)
    assert _digest(plan, SHARED) == DIGEST
    streams = Counter(words for _, words in reseeds)
    assert len(streams) == len(plan.all_slots()) * len(GRID) and set(streams.values()) == {1}
    by_caller = {thread == threading.get_ident() for thread, _ in reseeds}
    assert by_caller == {drawer == "caller"}


def test_each_stream_is_reseeded_once_under_frequent_thread_switches(plan, monkeypatch):
    # both threads take rows of each hand-off, and switch every few
    # microseconds: a row taken twice, or by neither, shows in the counts
    reseeds = _log_reseeds(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            reseeds.clear()
            assert _digest(plan, SHARED) == DIGEST
            streams = Counter(words for _, words in reseeds)
            assert len(streams) == len(plan.all_slots()) * len(GRID) and set(streams.values()) == {1}
    finally:
        sys.setswitchinterval(interval)


def test_a_chunk_settled_one_slot_early(plan, monkeypatch):
    _stored(monkeypatch, "wiring",
            tuple(w._replace(settle_after=w.settle_after - 1) if w.settle_after >= 0 else w for w in plan.wiring))
    assert _digest(plan) != DIGEST


def test_a_hand_off_given_another_hand_offs_seed_words(plan, one_drawer):
    draw, handed = evaluator._draw, []

    def half_words(rng, take, words, rows):  # hand-off k draws hand-off k // 2's streams
        handed.append(words)
        draw(rng, take, handed[(len(handed) - 1) // 2], rows)

    one_drawer("caller", half_words)
    assert _digest(plan, SHARED) != DIGEST


def test_one_reseed_per_hand_off(plan, one_drawer):
    def reseed_once(rng, take, words, rows):
        evaluator._reseed(rng, words[-1])
        while take.__self__:
            rng.standard_normal(out=rows[take()])

    one_drawer("caller", reseed_once)
    assert _digest(plan, SHARED) != DIGEST


def test_a_row_filled_from_another_rows_seed_words(plan, one_drawer):
    draw = evaluator._draw

    def neighbours_words(rng, take, words, rows):  # each row gets the next stream's words
        draw(rng, take, words[1:] + words[:1], rows)

    one_drawer("caller", neighbours_words)
    assert _digest(plan, SHARED) != DIGEST


def test_a_row_taken_and_left_undrawn(plan, one_drawer):
    draw, hand_offs = evaluator._draw, []

    def drop_one(rng, take, words, rows):
        # from hand-off 2 on, a row left undrawn still holds the normals of
        # the hand-off two before (hand-offs 0 and 1 fill fresh memory)
        hand_offs.append(len(hand_offs))
        if hand_offs[-1] >= 2:
            take()
        draw(rng, take, words, rows)

    one_drawer("caller", drop_one)
    assert _digest(plan, SHARED) != DIGEST


def test_a_power_gain_block_reused_while_its_chunk_waits(plan, monkeypatch):
    def take_the_first(pool):
        if not pool.free:
            pool.free.append(pool.make())
        return pool.free[0]  # never taken out: the next chunk writes over a waiting one

    monkeypatch.setattr(evaluator._Pool, "take", take_the_first)
    assert _digest(plan) != DIGEST


def _swap_side_links(shape):
    g1, g2 = shape.groups
    return shape._replace(groups=(g1._replace(side_link=g2.side_link), g2._replace(side_link=g1.side_link)))


def _swap_carried_ranks(shape):
    ranks = [rank for rank, _, _ in shape.carried]
    return shape._replace(carried=tuple((rank, q, e) for rank, (_, q, e) in zip(reversed(ranks), shape.carried)))


# each mutation of the stored shapes changes at least one of case-ii's
# shapes: groups overhearing both users' links (shapes 0 and 3), and two
# first-antenna layers (shapes 4 and 5)
@pytest.mark.parametrize("mutate", [
    _swap_side_links,
    lambda shape: shape._replace(sic=shape.sic[::-1]),
    _swap_carried_ranks,
], ids=["swapped-side-links", "swapped-sic-positions", "swapped-carried-ranks"])
def test_a_mutated_slot_shape(plan, monkeypatch, mutate):
    shapes = tuple(map(mutate, plan.shapes))
    assert shapes != plan.shapes
    _stored(monkeypatch, "shapes", shapes)
    with pytest.raises(AssertionError):
        _check_wiring(plan)
    assert _digest(plan) != DIGEST


def test_a_slot_batched_under_the_wrong_shape(plan, monkeypatch):
    # slot 4 (shape 2, four layers) joins the batches of slot 1's shape, which
    # has three: one carried link, like slot 4's, and no linked group
    wiring = list(plan.wiring)
    assert (wiring[4].shape, wiring[1].shape) == (2, 1)
    wiring[4] = wiring[4]._replace(shape=1)
    _stored(monkeypatch, "wiring", tuple(wiring))
    with pytest.raises(AssertionError):
        _check_wiring(plan)
    assert _digest(plan) != DIGEST
