"""Child processes of the ledger: one-shot CLI jobs and the serve daemon.

Every child runs ``python -m repro.cli`` from the checkout's ``src/``
with the checkout root as its working directory, so socket and cache
paths stay short and relative.  A traced child additionally gets
``boot/`` prepended to ``PYTHONPATH`` (see ``trace.py``).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from .trace import ENV_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BOOT = os.path.join(HERE, "boot")

TRIVIAL_SOURCE = "int main(void){return 0;}\n"

#: Ceiling on any single child job; the benchmark's jobs take seconds.
JOB_TIMEOUT_S = 120.0


def child_env(trace_dir=None):
    """Environment of a child process; ``trace_dir`` turns tracing on."""
    env = {k: v for k, v in os.environ.items() if k != ENV_DIR}
    path = [SRC]
    if trace_dir is not None:
        path.insert(0, BOOT)
        env[ENV_DIR] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


@dataclass
class CliRun:
    """One finished ``python -m repro.cli`` process."""

    start: float
    end: float
    code: int
    stdout: str
    stderr: str
    rss_kib: int

    @property
    def wall(self):
        return self.end - self.start

    def failure(self):
        """Why the process counts as failed by its exit status, or ''."""
        if self.code < 0:
            return f"killed by signal {-self.code}"
        if self.code in (2, 3):
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {self.code}: {tail[0]}"
        return ""


def vmhwm_kib(pid):
    """Peak resident set of a live process, in KiB; 0 once it exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _Watch(threading.Thread):
    """Samples a child's peak RSS every 20 ms and kills it at a deadline.

    The peak is the ``VmHWM`` of the child's own address space: the
    ``ru_maxrss`` that ``wait4`` reports would include the ledger's own
    peak, because Linux carries the spawning process's high-water mark
    across vfork and exec."""

    def __init__(self, proc, timeout):
        super().__init__(daemon=True)
        self.proc = proc
        self.deadline = time.monotonic() + timeout
        self.peak_kib = 0
        self._done = threading.Event()
        self.start()

    def run(self):
        while not self._done.wait(0.02):
            self.peak_kib = max(self.peak_kib, vmhwm_kib(self.proc.pid))
            if time.monotonic() > self.deadline:
                self.proc.kill()
                return

    def stop(self):
        self._done.set()
        self.join()


def run_cli(argv, env, workdir, timeout=JOB_TIMEOUT_S):
    """Run ``python -m repro.cli ARGV`` to completion.  Wall time is taken
    around spawn and reap."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro.cli"] + argv,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        watch = _Watch(proc, timeout)
        try:
            code = proc.wait()
            end = time.perf_counter()
        finally:
            watch.stop()
        out.seek(0)
        err.seek(0)
        return CliRun(start, end, code,
                      out.read().decode("utf-8", "replace"),
                      err.read().decode("utf-8", "replace"),
                      watch.peak_kib)


def cli_setup_s(env, workdir, runs):
    """Median wall time of fresh-process analyses of a one-line program:
    interpreter start, imports and CLI start-up."""
    path = os.path.join(workdir, "setup.c")
    with open(path, "w", encoding="utf-8") as f:
        f.write(TRIVIAL_SOURCE)
    walls = []
    for _ in range(runs):
        run = run_cli(["analyze", os.path.relpath(path, ROOT)], env, workdir)
        if run.code != 0:
            raise RuntimeError(f"set-up analysis failed: {run.failure()}")
        walls.append(run.wall)
    return statistics.median(walls)


def import_s(env, workdir, runs=3):
    """Median time of a fresh ``import repro.cli``, timed inside the
    child so interpreter start-up is excluded."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {proc.stderr}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


class Daemon:
    """One ``astree-repro serve`` process with default flags (plus any
    passthrough arguments) and a client connected to it.

    ``setup_s`` is the time from spawn until the first ``ping`` reply
    plus one trivial submit, which forces the worker to boot; readiness
    is a ``ping`` reply, never the socket file existing.  Tracing daemons
    skip the trivial submit so their worker only analyzes timed jobs.
    """

    def __init__(self, workdir, name, env, extra_args=(), warm=True):
        from repro.errors import ServeConnectionError
        from repro.serve.client import ServeClient

        rel = os.path.relpath(workdir, ROOT)
        self.socket = os.path.join(rel, f"{name}.sock")
        self.log = open(os.path.join(workdir, f"{name}.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket,
             "--cache-dir", os.path.join(rel, f"{name}.cache")]
            + list(extra_args),
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        self.client = None
        try:
            deadline = start + 60.0
            while self.client is None:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve exited with {self.proc.returncode} during "
                        f"boot; see {self.log.name}")
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve did not answer ping in 60 s")
                try:
                    client = ServeClient(self.socket, timeout=JOB_TIMEOUT_S)
                except ServeConnectionError:
                    time.sleep(0.01)
                    continue
                try:
                    if client.ping().get("ok"):
                        self.client = client
                except ServeConnectionError:
                    client.close()
                    time.sleep(0.01)
            if warm:
                reply = self.client.submit([("setup.c", TRIVIAL_SOURCE)])
                if not reply.get("ok"):
                    raise RuntimeError(f"trivial submit failed: {reply}")
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.close()
            raise

    def vmhwm_kib(self):
        """Peak resident set of the daemon plus its analysis worker."""
        worker = self.client.health()["health"]["worker"].get("pid")
        pids = [self.proc.pid] + ([worker] if worker else [])
        return sum(vmhwm_kib(pid) for pid in pids)

    def close(self):
        """Shut down and reap the daemon (its worker exits with it)."""
        from repro.errors import ServeConnectionError

        if self.client is not None:
            try:
                self.client.shutdown()
            except ServeConnectionError:
                pass
            self.client.close()
            self.client = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
