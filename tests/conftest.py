import os
import sys
from pathlib import Path

import pytest

# Make the oracles module importable regardless of how pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))


def open_pipes() -> set:
    """(fd, target) of every pipe this process holds open; none where
    the platform has no /proc/self/fd to list them."""
    pipes = set()
    if not os.path.isdir("/proc/self/fd"):
        return pipes
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed since
            continue
        if target.startswith("pipe:"):
            pipes.add((int(fd), target))
    return pipes


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped or a pipe open:
    the baselines and the FedSC and FedGate peers run in forked
    children, which every path must kill or wait for, and whose pipes it
    must close (a write end left open keeps a child from seeing the end
    of its requests)."""
    before = open_pipes()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail("the test left a child process behind: "
                    + (f"pid {pid}, exited unreaped" if pid
                       else "still running"))
    leaked = sorted(open_pipes() - before)
    if leaked:
        pytest.fail(f"the test left pipes open: {leaked}")
