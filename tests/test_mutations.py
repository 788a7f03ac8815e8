"""Mutation checks of the grid pass: each case breaks one rule of the pass
with monkeypatch and asserts that a check fails.

The rules are the ones whose faults results alone would not show: the
slot a chunk settles after, each stream's PCG64 start (its increment's
low bit and the 128-bit carries), which streams' starts a chunk gets and
which row each of them fills, one reseed per stream, the decode wiring
the plan stores (side links, SIC order, carried ranks, each slot's shape),
and which slots and directions each plan of a shared pass reads.
A test that only compares the outputs with a stored digest, or the stored
wiring with a scan, must be able to fail on each of them, or it guards
nothing.

All cases but the shared-pass ones (at the end) run case-ii at (0.3, 0.5), 3
cycles (12 slots), 20 trials on the 60-120 dB grid, seed 5, with a draw
budget of two slots' normals: two slots per decode chunk, which the calling
thread draws alone, with no worker thread, so that the pass has several
chunks and some of them wait for the next one.  The cases on who draws a
row run with a budget one normal short of one slot's (SHARED): a slot is
then over the budget, a decode chunk is one slot, and the worker draws each
chunk while the calling thread draws the rows that the worker has not
taken.  The draw and state-table mutations run at both budgets, so they
break the worker's path and the calling thread's own; a state table of
Python ints, which must hold DIGEST unbroken, is the one that the
state-table mutations break.  The chunking does not change the output
(tests/test_evaluator.py), and neither does which thread draws a row, so
DIGEST is that of the default budget and of every schedule too.  It was
recorded with numpy 2.4.6; see tests/test_golden.py on other numpy versions.
Each draw mutation keeps the worker out of the draw (its draws return at
once), so that the calling thread draws every row and the mutation acts the
same in every run; a broken state table breaks every row, whoever draws it.
The cases patch or call private names of asymcsit.channel,
asymcsit.evaluator and asymcsit.schemes, so a rename must port its case.
"""

import hashlib
import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from test_golden import LEDGER_SHA256, SCHEMES_SHA256
from test_properties import _check_shared_pass, _check_wiring

from asymcsit import CsitQuality, SnrPoint, build_case_ii, build_ges12_asym, build_sc_zf, cli
from asymcsit import channel, evaluator
from asymcsit.schemes import SchemePlan

Q35 = CsitQuality(0.3, 0.5)
GRID = [SnrPoint.from_db(db, Q35) for db in (60, 80, 100, 120)]
N_TRIALS = 20
PER_SLOT = len(GRID) * 16 * N_TRIALS  # normals per slot
SHARED = PER_SLOT - 1  # a slot over the budget: one slot per decode chunk, whose rows both threads draw
DIGEST = "ecb635707496f9ade08678b467cd3a6f5cd5ceea27e50316acb0e84743b84d51"
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier


def _digest(plan, budget=2 * PER_SLOT) -> str:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evaluator, "_DRAW_BUDGET", budget)
        arrays = evaluator._evaluate_grid([plan], GRID, N_TRIALS, 5)[0]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _logging_draw(log: list):
    """The real _draw, logging each row it fills as (thread, the stream's
    start as the chunk hands it over, the state that the generator holds
    when standard_normal fills the row): the state that the reseed left."""
    draw = evaluator._draw

    def logged(rng, take, states, rows):
        memory, taken = channel._state_memory(rng.bit_generator), []

        def logged_take():
            taken.append(take())
            return taken[-1]

        class Watched:  # rng, logging the state it fills each row from
            bit_generator = rng.bit_generator

            @staticmethod
            def standard_normal(out):
                log.append((threading.get_ident(), states[taken[-1]].tobytes(), bytes(memory)))
                rng.standard_normal(out=out)

        draw(Watched(), logged_take, states, rows)

    return logged


def _reseeded_once(plan, reseeds) -> None:
    """Every stream of the pass was drawn once, from its own start."""
    streams = Counter(start for _, start, _ in reseeds)
    assert len(streams) == len(plan.all_slots()) * len(GRID) and set(streams.values()) == {1}
    assert all(held == start for _, start, held in reseeds)


def _stored(monkeypatch, name, value):
    # a property on the class is read before the instance's own field
    monkeypatch.setattr(SchemePlan, name, property(lambda self: value), raising=False)


@pytest.fixture
def plan():
    return build_case_ii(Q35, 3)


def test_the_stored_digest_holds(plan):
    assert _digest(plan) == _digest(plan, evaluator._DRAW_BUDGET) == DIGEST


@pytest.mark.parametrize("drawer", ["caller", "worker"])
def test_the_digest_holds_when_one_thread_draws_every_row(plan, one_drawer, drawer):
    reseeds = []
    one_drawer(drawer, _logging_draw(reseeds))
    assert _digest(plan, SHARED) == DIGEST
    _reseeded_once(plan, reseeds)
    by_caller = {thread == threading.get_ident() for thread, _, _ in reseeds}
    assert by_caller == {drawer == "caller"}


def test_each_stream_is_reseeded_once_under_frequent_thread_switches(plan, monkeypatch):
    # both threads take rows of each chunk, and switch every few
    # microseconds: a row taken twice, or by neither, shows in the counts
    reseeds = []
    monkeypatch.setattr(evaluator, "_draw", _logging_draw(reseeds))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            reseeds.clear()
            assert _digest(plan, SHARED) == DIGEST
            _reseeded_once(plan, reseeds)
    finally:
        sys.setswitchinterval(interval)


def test_a_chunk_settled_one_slot_early(plan, monkeypatch):
    _stored(monkeypatch, "wiring",
            tuple(w._replace(settle_after=w.settle_after - 1) if w.settle_after >= 0 else w for w in plan.wiring))
    assert _digest(plan) != DIGEST


def _breaks_both_draw_paths(plan, *state) -> None:
    """The patched draw changes the digest where a chunk is one slot, which
    the worker draws (SHARED), and where it is two, which the calling thread
    draws alone (the default budget of these cases); state is each list the
    patch keeps per pass, emptied before each one."""
    for budget in (SHARED, 2 * PER_SLOT):
        for kept in state:
            kept.clear()
        assert _digest(plan, budget) != DIGEST, budget


def test_a_hand_off_given_another_hand_offs_seed_words(plan, one_drawer):
    draw, handed = evaluator._draw, []

    def half_starts(rng, take, states, rows):  # chunk k draws chunk k // 2's streams
        handed.append(states)
        draw(rng, take, handed[(len(handed) - 1) // 2], rows)

    one_drawer("caller", half_starts)
    _breaks_both_draw_paths(plan, handed)


def test_one_reseed_per_hand_off(plan, one_drawer):
    def reseed_once(rng, take, states, rows):
        channel._state_memory(rng.bit_generator)[:] = states[-1].tobytes()
        while take.__self__:
            rng.standard_normal(out=rows[take()])

    one_drawer("caller", reseed_once)
    _breaks_both_draw_paths(plan)


def test_a_row_filled_from_another_rows_seed_words(plan, one_drawer):
    draw = evaluator._draw

    def neighbours_start(rng, take, states, rows):  # each row gets the next stream's start
        draw(rng, take, np.roll(states, -1, axis=0), rows)

    one_drawer("caller", neighbours_start)
    _breaks_both_draw_paths(plan)


def _states(inc_low_bit=1, carry=True):
    """A _pcg_states of Python ints, whose increment's low bit and whose
    carries out of the low halves of the two 128-bit additions may be
    broken."""
    def add(a, b):
        return (a + b if carry else (a >> 64) + (b >> 64) << 64 | (a + b) & _MASK64) & _MASK128

    def states(words):
        out = np.empty_like(words)
        for index in np.ndindex(words.shape[:-1]):
            s_hi, s_lo, i_hi, i_lo = words[index].tolist()
            inc = ((i_hi << 64 | i_lo) << 1 | inc_low_bit) & _MASK128
            state = add(add(s_hi << 64 | s_lo, inc) * _PCG_MULT & _MASK128, inc)
            for at, half in zip(channel._word_order(), (state >> 64, state & _MASK64, inc >> 64, inc & _MASK64)):
                out[index + (at,)] = half
        return out

    return states


def test_a_reference_state_table_holds_the_digest(plan, monkeypatch):
    # the mutations below break this table, so it must be the pass's own
    monkeypatch.setattr(evaluator, "_pcg_states", _states())
    assert _digest(plan, SHARED) == _digest(plan) == DIGEST


@pytest.mark.parametrize("states", [_states(inc_low_bit=0), _states(carry=False)],
                         ids=["even-increment", "carry-dropped"])
def test_a_broken_state_table(plan, monkeypatch, states):
    monkeypatch.setattr(evaluator, "_pcg_states", states)
    _breaks_both_draw_paths(plan)


def test_a_row_taken_and_left_undrawn(plan, one_drawer):
    draw, chunks = evaluator._draw, []

    def drop_one(rng, take, states, rows):
        # from chunk 2 on, a row left undrawn still holds the normals of an
        # earlier chunk: the one two before where the buffer has two parts
        # (chunks 0 and 1 fill fresh memory), else the one before
        chunks.append(len(chunks))
        if chunks[-1] >= 2:
            take()
        draw(rng, take, states, rows)

    one_drawer("caller", drop_one)
    _breaks_both_draw_paths(plan, chunks)


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


# A pass shared by several plans must decode each plan's own slots from the
# chunk's shared gains.  The cases below break that for every plan but the
# first of a shared pass, so that a plan's pass of its own stays right and
# only the comparison with it, or a stored digest of a shared run, can tell.


@pytest.fixture
def later_plans(monkeypatch):
    """A set of the plan passes (_PlanPass) of every plan but the first of
    each grid pass, filled as the passes are made."""
    later, first, grid, init = set(), [], evaluator._evaluate_grid, evaluator._PlanPass.__init__

    def spy_grid(plans, *args):
        first[:] = plans[:1]
        return grid(plans, *args)

    def spy_init(self, plan, *args):
        init(self, plan, *args)
        if plan is not first[0]:
            later.add(self)

    monkeypatch.setattr(evaluator, "_evaluate_grid", spy_grid)
    monkeypatch.setattr(evaluator._PlanPass, "__init__", spy_init)
    return later


def _fails_sharing_checks(tmp_path, capsys):
    # the property test, on plans of 12, 1 and 3 slots, at decode chunks of
    # all 12 slots (20 trials) and of one slot (2100), and the golden run's
    # digests (case-ii, sc-zf and ges12-asym at 200 trials: chunks of 5 slots)
    plans = [build_case_ii(Q35, 3), build_sc_zf(Q35), build_ges12_asym(Q35)]
    for n_trials in (20, 2100):
        with pytest.raises(AssertionError):
            _check_shared_pass(plans, GRID, n_trials, 7)
    assert cli.main(["run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "case-ii,sc-zf,ges12-asym",
                     "--trials", "200", "--cycles", "5", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    schemes = json.loads((tmp_path / "report.json").read_text())["schemes"]
    assert hashlib.sha256((tmp_path / "ledger.csv").read_bytes()).hexdigest() != LEDGER_SHA256
    assert hashlib.sha256(json.dumps(schemes, sort_keys=True).encode()).hexdigest() != SCHEMES_SHA256


def test_a_plan_decodes_the_shared_chunk_one_slot_off(monkeypatch, later_plans, tmp_path, capsys):
    # a later plan's slots are matched one position late in the union of
    # slot indices, so each reads the gains of the union slot after its own
    split = evaluator._PlanPass.split

    def one_off(self, indices, lo, hi):
        return split(self, [None] + indices if self in later_plans else indices, lo, hi)

    monkeypatch.setattr(evaluator._PlanPass, "split", one_off)
    _fails_sharing_checks(tmp_path, capsys)


def test_a_plan_reads_another_plans_power_gain_direction(monkeypatch, later_plans, tmp_path, capsys):
    # a later plan reads orth_to(k)'s power gains off along(k)'s, which
    # case-ii, first in the pass, projects in the chunks that sc-zf and
    # ges12-asym share with it
    add = evaluator._PlanPass.add

    def crossed(self, share, block, minors):
        if self in later_plans:
            block = {d: block.get(d + 2, x) if d in (1, 2) else x for d, x in block.items()}
        add(self, share, block, minors)

    monkeypatch.setattr(evaluator._PlanPass, "add", crossed)
    _fails_sharing_checks(tmp_path, capsys)
