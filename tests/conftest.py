import threading

import pytest

from asymcsit import evaluator


@pytest.fixture
def one_drawer(monkeypatch):
    """one_drawer(drawer, draw) patches the grid pass's _draw so that one
    thread, drawer ("caller" or "worker"), takes every row of every decode
    chunk, with draw (the real _draw unless given), and the other thread
    takes none.  When the calling thread draws, the worker's draws return at
    once.  When the worker draws, this thread's draw of a chunk is held on
    an Event until the worker's draw of it has returned or raised.

    Only a pass whose decode chunks are one slot has a worker.  Where a
    chunk holds more, the calling thread draws every row anyway, so
    "caller" only swaps in draw, and "worker" fails: this thread's draw
    waits for a worker draw that never comes."""
    caller, real = threading.get_ident(), evaluator._draw

    def patch(drawer, draw=real):
        if drawer == "caller":
            def held_draw(rng, take, states, rows):
                if threading.get_ident() == caller:
                    draw(rng, take, states, rows)
        else:
            lock = threading.Lock()
            done = {}  # id(chunk's deque) -> (the deque, so that no id is reused; set once the worker is done)

            def held_draw(rng, take, states, rows):
                queue = take.__self__
                with lock:
                    _, drawn = done.setdefault(id(queue), (queue, threading.Event()))
                if threading.get_ident() == caller:
                    assert drawn.wait(timeout=60), "the worker never drew this chunk"
                    return
                try:
                    draw(rng, take, states, rows)
                finally:
                    drawn.set()

        monkeypatch.setattr(evaluator, "_draw", held_draw)

    return patch
