"""Fixtures shared by the test modules."""

import pytest

from ssdkit import model_io


class _CrashingFile:
    """A file whose second write raises, like a process dying mid-write."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("simulated crash mid-write")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.fixture
def crash_atomic_writes(monkeypatch):
    """Make ``model_io.atomic_write`` crash mid-write on temp files whose name
    contains ``part``; the fixture's value installs the fault and returns a
    function that removes it."""
    real_open = open

    def install(part=""):
        def crashing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return _CrashingFile(fh) if part in str(path) else fh

        monkeypatch.setattr(model_io, "open", crashing_open, raising=False)
        return monkeypatch.undo

    return install
