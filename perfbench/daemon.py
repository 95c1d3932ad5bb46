"""Run ``repro serve`` as a subprocess and read it from the outside.

Everything here observes the daemon through what Linux exposes for any
process: the ready and metrics files it writes, ``/proc/<pid>/status``
for its peak resident set, and ``/proc/net/udp`` for the kernel's drop
counts on its sockets.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import speed

#: How long the daemon may take to bind before the run is abandoned.
READY_TIMEOUT_S = 30.0
#: How long a SIGTERM drain may take (the daemon's grace is 3 s).
STOP_TIMEOUT_S = 20.0


def socket_inodes(pid: int) -> set[str]:
    """Inodes of every socket the process ``pid`` holds open."""
    inodes = set()
    fd_dir = pathlib.Path(f"/proc/{pid}/fd")
    for fd in fd_dir.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue  # closed while listing
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    return inodes


def udp_drops(inodes: set[str]) -> int:
    """Summed kernel drop counts of the UDP sockets with these inodes."""
    total = 0
    with open("/proc/net/udp") as table:
        next(table)  # header
        for line in table:
            fields = line.split()
            if fields[9] in inodes:
                total += int(fields[-1])
    return total


def caught_signals(pid: int) -> int:
    """The process's caught-signal mask (SigCgt)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("SigCgt:"):
                return int(line.split()[1], 16)
    raise RuntimeError(f"no SigCgt for pid {pid}")


def peak_rss_mb(pid: int) -> float:
    """The process's high-water resident set (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One ``repro serve`` process on an ephemeral loopback port.

    The daemon is started through ``serve_main.py`` in one of its modes:
    ``speed`` samples host speed in the daemon's process
    (:attr:`speed_samples` after :meth:`stop`), ``trace`` records layer
    spans to ``trace_out``, ``plain`` adds no probe.
    """

    def __init__(self, repo: pathlib.Path, workdir: pathlib.Path, tag: str,
                 mode: str = "speed",
                 trace_out: pathlib.Path | None = None) -> None:
        self.ready_file = workdir / f"ready-{tag}.json"
        self.metrics_file = workdir / f"metrics-{tag}.json"
        self.speed_file = workdir / f"speed-{tag}.json"
        self.speed_samples: list[tuple[float, float]] = []
        for stale in (self.ready_file, self.metrics_file, self.speed_file):
            stale.unlink(missing_ok=True)
        here = pathlib.Path(__file__).parent
        probe = {
            "speed": ["speed", str(self.speed_file)],
            "trace": ["trace", str(trace_out)],
            "plain": ["plain"],
        }[mode]
        command = [
            sys.executable, str(here / "serve_main.py"), *probe,
            "serve", "--port", "0",
            "--ready-file", str(self.ready_file),
            "--metrics-out", str(self.metrics_file),
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(repo / "src"), str(here)]))
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, env=env, cwd=workdir,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            document = self._await_ready(self.started)
            self.ready = time.monotonic()
            # The daemon writes its ready file before it installs its
            # SIGTERM handler; a SIGTERM in between kills it without a
            # drain, so wait until the kernel shows the signal as caught.
            self._await_sigterm_handler(self.started)
        except BaseException:
            self.kill()
            raise
        self.setup_s = self.ready - self.started
        self.address = (document["ip"], int(document["port"]))
        self.inodes = socket_inodes(self.process.pid)

    def _await_ready(self, started: float) -> dict:
        while time.monotonic() - started < READY_TIMEOUT_S:
            if self.process.poll() is not None:
                raise RuntimeError(
                    "daemon exited before binding: "
                    + self.process.stderr.read().decode(errors="replace")
                )
            try:
                return json.loads(self.ready_file.read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                time.sleep(0.001)
        raise RuntimeError("daemon did not bind in time")

    def _await_sigterm_handler(self, started: float) -> None:
        while time.monotonic() - started < READY_TIMEOUT_S:
            if caught_signals(self.process.pid) & 1 << (signal.SIGTERM - 1):
                return
            time.sleep(0.001)
        raise RuntimeError("daemon did not install its SIGTERM handler")

    def kernel_drops(self) -> int:
        return udp_drops(self.inodes)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the daemon has used so far."""
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return the metrics document."""
        self.process.send_signal(signal.SIGTERM)
        try:
            _, err = self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not drain in time") from None
        if self.process.returncode != 0:
            raise RuntimeError(
                f"daemon exited {self.process.returncode}: "
                + err.decode(errors="replace")
            )
        if self.speed_file.exists():
            self.speed_samples = speed.load(self.speed_file)
        return json.loads(self.metrics_file.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
