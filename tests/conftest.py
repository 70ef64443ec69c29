"""Shared test configuration: hypothesis profiles for the whole suite.

Two profiles keep property-based tests fast in the inner loop and
thorough in CI:

* ``dev`` (default) — few examples, derandomized, so ``pytest -x -q``
  stays quick and bit-stable from run to run;
* ``ci``  — 250 examples per property (the acceptance bar is 200+),
  still derandomized so a red CI run reproduces locally from the same
  code without chasing a random seed.  Select with
  ``HYPOTHESIS_PROFILE=ci``.

Deadlines are disabled globally: the simulator's virtual-time runs have
wall-time jitter (process scheduling, cache state) that hypothesis'
per-example deadline would misread as flakiness.

Individual heavyweight properties (whole-scenario chaos runs) cap their
own ``max_examples`` below the profile value and carry
``@pytest.mark.slow``; the tier-1 command excludes them via the
``-m "not slow"`` filter wired into ``addopts``.
"""

import errno
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    max_examples=250,
    deadline=None,
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def full_disk(monkeypatch):
    """Fill the disk under a directory: ``full_disk(directory)`` makes
    every later ``Path.write_text`` into it write half its data, then
    raise ENOSPC, as a write into a full filesystem does."""

    def install(directory):
        directory = Path(directory)
        write_text = Path.write_text

        def failing_write_text(path, data, *args, **kwargs):
            if path.parent != directory:
                return write_text(path, data, *args, **kwargs)
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(Path, "write_text", failing_write_text)

    return install
