"""Lifecycle of the ``AsyncGraphServer`` child process the remote workloads use.

The child is ``repro.cli serve --async --source <snapshot> --port 0``.  On
Linux it gets a parent-death signal, so it cannot outlive the benchmark, not
even a benchmark killed with SIGKILL: the kernel sends it SIGTERM, which the
CLI turns into a graceful drain and exit 0.  Its stdout and stderr go to
a log file, never to a pipe: the CLI prints a "stopping" line on SIGTERM, and
a pipe nobody reads any more would turn that line into a ``BrokenPipeError``
and a non-zero exit.  The bound URL is parsed from the banner in that log.
A child is stopped with SIGTERM and must exit 0; :class:`ServerPool` stops
every child it started on every way out of the benchmark.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

BANNER = re.compile(r"^Serving .* at (http://\S+)$", re.MULTILINE)
PR_SET_PDEATHSIG = 1


def _die_with(parent: int):
    """``preexec_fn`` that makes the child get SIGTERM when ``parent`` exits."""

    def set_death_signal() -> None:
        try:
            ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
        except (AttributeError, OSError):  # not Linux: rely on ServerPool's cleanup
            return
        if os.getppid() != parent:  # the parent died before prctl took effect
            os._exit(1)

    return set_death_signal


class ServerError(RuntimeError):
    """The server child failed to boot or to stop cleanly."""


class ServerChild:
    """One server process serving a snapshot directory on an ephemeral port."""

    def __init__(self, root: Path, snapshot: Path, log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--async",
             "--source", str(snapshot), "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
            cwd=root, env=env, preexec_fn=_die_with(os.getpid()),
        )
        self.url: Optional[str] = None

    def wait_banner(self, timeout: float = 60.0) -> str:
        """Block until the banner names the bound URL; return it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                return self.url
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} before its banner: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}"
                )
            time.sleep(0.002)
        raise ServerError(f"no server banner within {timeout} s")

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the child (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE).group(1))
        return kib / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, wait, and require exit code 0 (kill on a hang)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise ServerError(f"server ignored SIGTERM for {timeout} s; killed") from None
        finally:
            self._log.close()
        if code != 0:
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise ServerError(f"server exited with {code} on SIGTERM: {tail}")


class ServerPool:
    """Context manager owning every server child; stops them all on exit.

    A child that fails to stop cleanly on exit is recorded in ``errors``
    (the benchmark counts it as a failed check) rather than raised.
    """

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self._children: List[ServerChild] = []
        self._booted = 0
        self.errors: List[ServerError] = []

    def boot(self, snapshot: Path) -> ServerChild:
        child = ServerChild(self.root, snapshot, self.work / f"server-{self._booted}.log")
        self._booted += 1
        self._children.append(child)
        child.wait_banner()
        return child

    def stop(self, child: ServerChild) -> None:
        self._children.remove(child)
        child.stop()

    def __enter__(self) -> "ServerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._children:
            try:
                self.stop(self._children[-1])
            except ServerError as error:
                self.errors.append(error)
