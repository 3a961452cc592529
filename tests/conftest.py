import pytest

from misspec_ssl import core


@pytest.fixture()
def fan_out_threads(monkeypatch):
    """Set the threads core.fan_out may use, on any machine: force(1) runs
    every fan-out inline, force(2) runs one from FAN_OUT_MIN_ENTRIES entries
    on two pool threads."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)

    def force(threads: int) -> None:
        monkeypatch.setenv(core.ENV_THREADS, str(threads))

    return force
