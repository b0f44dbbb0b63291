"""Server lifecycle and process accounting for the serve benchmark.

:class:`Server` launches ``eclc serve -j 2`` (or the tracing launcher)
as its own process group over a fresh data root inside the checkout,
waits for the port announcement, and always stops the whole process
tree: ``POST /v1/shutdown`` first, then SIGKILL to the group on
timeout.  CPU time and peak RSS are read from ``/proc`` for the server
and every descendant (the spawned worker children).
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

#: Worker processes of the benchmarked deployment.
WORKERS = 2

#: Seconds a server gets to announce its port, and to drain on shutdown;
#: its children and output pipe then get :data:`REAP_TIMEOUT`.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
REAP_TIMEOUT = 5.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values, q):
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def descendants(pid):
    """Pids of every live descendant of ``pid`` (from ``/proc``)."""
    parents = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(name))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds(pid):
    """User+system CPU seconds of one live process (0.0 once gone)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid):
    """``VmHWM`` of one live process in MB (0.0 once gone)."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``eclc serve`` process tree over a fresh data root."""

    def __init__(self, root, scratch, spans_dir=None):
        self.root = root
        #: fresh per server: artifacts, journal, ledger, code cache.
        self.data_root = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        self.spans_dir = spans_dir
        self.process = None
        self.port = None
        self.launched = None
        self.output = []
        self._reader = None
        self._announced = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Launch and wait for the port; returns the launch instant."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["TMPDIR"] = self.data_root
        env["ECL_CACHE_DIR"] = os.path.join(self.data_root, "cache")
        env["XDG_CACHE_HOME"] = os.path.join(self.data_root, "xdg")
        env.pop("ECL_CODE_CACHE_DIR", None)
        env["PYTHONHASHSEED"] = "0"
        if self.spans_dir:
            entry = [os.path.join(self.root, "servebench", "launcher.py")]
            env["SERVEBENCH_SPANS"] = self.spans_dir
        else:
            entry = ["-m", "repro.cli"]
        argv = [sys.executable] + entry + [
            "serve", "--port", "0", "-j", str(WORKERS),
            "--data-root", os.path.join(self.data_root, "data"),
        ]
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        # The reader drains the server's output for its whole life (a
        # full pipe would block the server) and signals the port line.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._announced.wait(START_TIMEOUT) or self.port is None:
            raise RuntimeError("server did not announce a port: %s"
                               % "".join(self.output)[-2000:])
        return self.launched

    def _drain(self):
        for line in self.process.stdout:
            self.output.append(line)
            match = re.search(r"listening on [^:]+:(\d+)", line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._announced.set()
        self._announced.set()  # exited: start() stops waiting

    def client(self, timeout=60.0):
        from repro.serve import ServeClient

        return ServeClient(port=self.port, timeout=timeout, get_retries=0)

    def stop(self):
        """Graceful shutdown, then SIGKILL the group on timeout.
        Returns True when the tree exited on its own."""
        if self.process is None:
            return True
        graceful = False
        tree = [self.process.pid] + descendants(self.process.pid)
        if self.process.poll() is None and self.port is not None:
            try:
                self.client(timeout=10.0).shutdown()
                self.process.wait(timeout=STOP_TIMEOUT)
                graceful = True
            except Exception:  # noqa: BLE001 - any failure means kill
                graceful = False
        if self.process.poll() is None:
            self._kill_group()
            self.process.wait(timeout=STOP_TIMEOUT)
        # Worker children must be gone too, or they would load the
        # next run.
        deadline = time.monotonic() + REAP_TIMEOUT
        while any(_alive(pid) for pid in tree[1:]):
            if time.monotonic() > deadline:
                self._kill_group()
                for pid in tree[1:]:
                    _kill(pid)
                graceful = False
                break
            time.sleep(0.02)
        if self._reader is not None:
            self._reader.join(timeout=REAP_TIMEOUT)
        self.process.stdout.close()
        return graceful

    def _kill_group(self):
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass

    def remove_data(self):
        shutil.rmtree(self.data_root, ignore_errors=True)

    # -- accounting ------------------------------------------------------

    def tree(self):
        return [self.process.pid] + descendants(self.process.pid)

    def peak_rss_mb(self):
        return sum(peak_rss_mb(pid) for pid in self.tree())

    def disk_bytes(self, *parts):
        """Bytes under one sub-tree of the data root."""
        total = 0
        top = os.path.join(self.data_root, "data", *parts)
        for folder, _dirs, files in os.walk(top):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(folder, name))
                except OSError:
                    pass
        return total


def _alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass
