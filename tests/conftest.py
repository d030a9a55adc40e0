import os
import sys
from pathlib import Path

import pytest

from nmoe import federated

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
    """Fail a test that leaves a child process unreaped, a pipe open or
    federated._Peer.live above zero: the baselines' centralized-mixture
    child and the FedAvg round driver's peers run in forked children,
    which every path must kill or wait for, and whose pipes it must close
    (a write end left open keeps a child from seeing the end of its
    requests). A leaked live count would keep every later stage from
    using the second CPU; it is reset so that only the leaking test
    fails."""
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
    live, federated._Peer.live = federated._Peer.live, 0
    if live:
        pytest.fail(f"the test left _Peer.live at {live}")
