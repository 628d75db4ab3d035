"""Child processes that leave nothing running.

A Ray driver starts helper processes (GCS, raylet, workers, the dashboard
and runtime-env agents), and the agents outlive a driver that is killed or
exits without ``ray.shutdown()``. So each child here leads a new session,
and its whole process group is SIGKILLed once the child is done, timed out
or killed by the test.
"""

import os
import pathlib
import signal
import subprocess

#: the checkout these tests belong to: CLI children run here and the
#: driver-contract tests load its ``__ray_entry__.py``
REPO = pathlib.Path(__file__).resolve().parents[1]


def start_group(cmd, **kwargs) -> subprocess.Popen:
    """``subprocess.Popen(cmd, **kwargs)`` as the leader of a new session."""
    return subprocess.Popen(cmd, start_new_session=True, **kwargs)


def kill_group(p: subprocess.Popen) -> None:
    """SIGKILL every process in ``p``'s group and reap ``p``."""
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group is gone already
        pass
    p.wait()


def run_group(cmd, *, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(cmd, capture_output=True, text=True, timeout=...)``
    in a new session; the group is killed after the child exits and on
    timeout (``subprocess.TimeoutExpired`` is re-raised)."""
    p = start_group(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, **kwargs)
    try:
        out, err = p.communicate(timeout=timeout)
    finally:
        kill_group(p)
    return subprocess.CompletedProcess(cmd, p.returncode, out, err)
