import multiprocessing
import os

import pytest

from misspec_ssl import core, evalx


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a worker process of its own running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"


@pytest.fixture()
def fan_out_threads(monkeypatch):
    """Set the threads core.fan_out may use, on any machine: force(1) runs
    every fan-out inline, force(2) runs one from FAN_OUT_MIN_ENTRIES entries
    on a pool of two threads made for that call."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)

    def force(threads: int) -> None:
        monkeypatch.setenv(core.ENV_THREADS, str(threads))

    return force


@pytest.fixture()
def cell_log(monkeypatch, tmp_path_factory):
    """Log, for each learning-curve cell, the process it ran in and the
    fan_out_width() it saw there, through a file that forked workers append
    to. take() returns the (pid, width) pairs logged so far and clears them."""
    log = tmp_path_factory.mktemp("cells") / "cells.log"
    log.touch()
    real = evalx._evaluate_cell

    def cell(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {core.fan_out_width()}\n")
        return real(*args)

    def take() -> list[tuple[int, int]]:
        pairs = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        log.write_text("")
        return pairs

    monkeypatch.setattr(evalx, "_evaluate_cell", cell)
    return take
