import os
import sys
from pathlib import Path

import pytest

# Make the oracles module importable regardless of how pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped: the baselines
    train in a forked child, which every path must kill or wait for."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind: "
                + (f"pid {pid}, exited unreaped" if pid else "still running"))
