"""Fixtures shared by the CLI tests and the tests of the CPU rule (``chebbound._cpus``)."""

import os

import pytest

from chebbound import _cpus
from chebbound.cli import main


@pytest.fixture
def run_cli(capsys):
    def run(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        out, err = capsys.readouterr()
        return code, out, err

    return run


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _workers(monkeypatch, count, quota=None):
    """Let the process see ``count`` CPUs that it may run on, under a cgroup quota of ``quota`` CPUs
    (None: no quota): where both allow two, the emitter forks one child and each kernel call on a large
    array starts one thread for its first half."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(_cpus, "_cpu_quota", lambda: quota)
    # the process's decision is made again from the mask and quota above
    monkeypatch.setattr(_cpus, "_decision", None)


@pytest.fixture(params=(1, 2, 3))
def cpus(request, monkeypatch):
    """The number of CPUs that the emitter may run on."""
    _workers(monkeypatch, request.param)
    yield request.param
    _no_child_is_left()
