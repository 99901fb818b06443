"""Resource guard for the benchmark's own child processes.

Each child gets an address-space cap (``RLIMIT_AS``, set in the child
between fork and exec) and a timeout, and the BLAS/OpenMP thread variables
are pinned to at most the number of CPUs this process may run on.  Nothing
outside the child changes: no machine-wide setting is touched.
"""

from __future__ import annotations

import os
import resource
import subprocess
from dataclasses import dataclass

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pinned_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """This process's environment with every thread variable set to at most
    the CPU count (a smaller value already set is kept)."""
    env = dict(os.environ)
    n = cpu_count()
    for var in THREAD_VARS:
        try:
            cur = int(env.get(var, ""))
        except ValueError:
            cur = n
        env[var] = str(max(1, min(cur, n)))
    env.update(extra or {})
    return env


@dataclass
class ChildResult:
    returncode: int | None  # None when the timeout killed the child
    stdout: str
    stderr: str

    @property
    def timed_out(self) -> bool:
        return self.returncode is None

    def describe(self) -> str:
        if self.timed_out:
            return "timed out"
        if self.returncode < 0:
            return f"killed by signal {-self.returncode}"
        return f"exit code {self.returncode}"


def run_child(argv: list[str], *, mem_cap_mb: int, timeout_s: float, env: dict[str, str], cwd: str) -> ChildResult:
    """Run ``argv`` under the cap and the timeout and wait until it has ended."""
    cap = mem_cap_mb * 1024 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    try:
        done = subprocess.run(
            argv,
            cwd=cwd,
            env=env,
            preexec_fn=limit,
            capture_output=True,
            text=True,
            timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed and reaped the child before raising
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        err = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")
        return ChildResult(None, out, err)
    return ChildResult(done.returncode, done.stdout, done.stderr)
