"""Worker subprocesses that speak length-prefixed frames.

This is the analyzer's one way to run code in a child process.  The
serve supervisor (:mod:`repro.serve.supervise`) keeps one
:class:`WorkerProcess` across jobs; the fuzz runner
(:mod:`repro.fuzz.runner`) starts one per case and closes it after the
reply.  Both sides share:

* the spawn: ``python -m <module>`` with this checkout's ``src/`` on
  ``PYTHONPATH`` (:func:`child_env`);
* the channel: frames of :mod:`repro.ipc.frames` on the child's
  stdin/stdout.  The child calls :func:`claim_frame_channel` before
  anything can print, so a stray ``print`` goes to stderr and never
  corrupts a frame;
* the deadline: each :meth:`WorkerProcess.request` is bounded;
* the death report: EOF, a half-written frame, a deadline overrun and a
  kill all surface as one :class:`WorkerDied`, raised only after the
  child is reaped, carrying its exit status and stderr tail;
* the triage: :func:`crash_signature` collapses a stderr traceback into
  a stable signature, and :class:`RestartPolicy` paces respawns.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, Optional, Sequence

from .frames import FdFrameReader, FrameTimeout, ProtocolError, send_frame

__all__ = ["RestartPolicy", "WorkerDied", "WorkerProcess", "child_env",
           "claim_frame_channel", "crash_signature", "exit_status",
           "normalize_message"]


class WorkerDied(Exception):
    """The child is gone: EOF, a half-written or garbage frame, a
    deadline overrun (``timed_out``; the child was killed) or a kill.
    The child has been reaped, so ``returncode`` is final."""

    def __init__(self, detail: str, returncode: Optional[int],
                 stderr: str, timed_out: bool = False):
        super().__init__(detail)
        self.detail = detail
        self.returncode = returncode
        self.status = exit_status(returncode)
        self.stderr = stderr
        self.timed_out = timed_out


def exit_status(returncode: Optional[int]) -> str:
    """``exit:<n>``, ``signal:<NAME>`` or ``unknown``."""
    if returncode is None:
        return "unknown"
    if returncode < 0:
        try:
            name = signal.Signals(-returncode).name
        except ValueError:
            name = str(-returncode)
        return f"signal:{name}"
    return f"exit:{returncode}"


def child_env() -> Dict[str, str]:
    """This process's environment with the ``src/`` directory that holds
    the running ``repro`` package prepended to ``PYTHONPATH``."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    return env


def claim_frame_channel():
    """Child side: returns ``(reader, out)`` — a frame reader on the
    original stdin and a binary stream on the original stdout — then
    points fd 1 and ``sys.stdout`` at stderr."""
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return FdFrameReader(0), out


class WorkerProcess:
    """One ``python -m <module>`` child and its frame channel."""

    #: Seconds a child whose pipe closed gets to exit on its own before
    #: it is killed (so its real exit status is reported).
    GRACE_S = 2.0

    def __init__(self, module: str, args: Sequence[str] = (),
                 stderr_passthrough: bool = False):
        """Raises OSError when the child cannot be spawned."""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *args], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        self.pid = self.proc.pid
        self._reader = FdFrameReader(self.proc.stdout.fileno())
        self._stderr: "deque[bytes]" = deque(maxlen=200)
        self._stderr_passthrough = stderr_passthrough
        self._stderr_thread = threading.Thread(
            target=self._pump_stderr, name=f"{module}-stderr", daemon=True)
        self._stderr_thread.start()

    def _pump_stderr(self) -> None:
        try:
            for line in self.proc.stderr:
                self._stderr.append(line)
                if self._stderr_passthrough:
                    sys.stderr.buffer.write(line)
                    sys.stderr.buffer.flush()
        except (OSError, ValueError):
            pass
        finally:
            self.proc.stderr.close()

    def stderr_tail(self) -> str:
        """The last 200 stderr lines.  Call it once the child is dead:
        it waits for the pump to drain the pipe, so a crash banner
        flushed just before the exit is not missed."""
        self._stderr_thread.join(timeout=2.0)
        return b"".join(self._stderr).decode("utf-8", "replace")

    def alive(self) -> bool:
        return self.proc.poll() is None

    def request(self, message: Dict,
                timeout_s: Optional[float] = None) -> Dict:
        """Send one frame and return the reply frame.  Raises
        :class:`WorkerDied` (after reaping the child) on any death, and
        kills the child first when the reply misses the deadline."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        try:
            send_frame(self.proc.stdin, message)
            reply = self._reader.recv_frame(deadline)
        except FrameTimeout:
            self.kill()
            raise self._died(f"no reply within {timeout_s}s",
                             timed_out=True)
        except (OSError, ValueError, ProtocolError) as e:
            raise self._died(f"broken frame channel: {e}")
        if reply is None:
            raise self._died("worker closed its pipe (EOF)")
        return reply

    def _died(self, detail: str, timed_out: bool = False) -> WorkerDied:
        return WorkerDied(detail, self._reap(), self.stderr_tail(),
                          timed_out)

    def _reap(self) -> Optional[int]:
        """Wait for the child to exit, killing it after ``GRACE_S``;
        close the pipes and return the exit code."""
        try:
            self.proc.wait(timeout=self.GRACE_S)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        return self.proc.returncode

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass

    def close(self) -> Optional[int]:
        """Close the child's stdin (EOF is its cue to exit) and reap it.
        Returns the exit code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        return self._reap()


class RestartPolicy:
    """Delay schedule for restarting a repeatedly failing worker.

    ``next_delay()`` returns ``base * factor**failures`` capped at
    ``cap`` and counts the failure.  ``reset()`` is called after a
    success so an isolated crash does not inflate later delays.  One
    supervisor restarts one worker, so there is no herd of clients to
    spread out with jitter.
    """

    def __init__(self, base_s: float = 0.05, cap_s: float = 5.0,
                 factor: float = 2.0):
        self.base_s = base_s
        self.cap_s = cap_s
        self.factor = factor
        self.failures = 0

    def next_delay(self) -> float:
        delay = min(self.cap_s, self.base_s * (self.factor ** self.failures))
        self.failures += 1
        return delay

    def reset(self) -> None:
        self.failures = 0


# -- crash signatures ---------------------------------------------------------
#
# A fuzz campaign that finds one analyzer bug usually finds it fifty
# times, and a poisonous serve job kills the worker the same way twice.
# A signature buckets those deaths into one work item: the exception
# class, the topmost frame inside the repro code base, and the message
# with volatile detail (digits, hex ids, <...> reprs) normalized away.
# The same function signs in-process tracebacks and worker stderr.

_FRAME_RE = re.compile(r'File "([^"]+)", line \d+, in (\S+)')
# The final "ExceptionClass: message" line of a traceback (tolerates
# dotted classes; skips the "Traceback ..." header and frame lines).
_ERROR_RE = re.compile(r"^(\w[\w.]*(?:Error|Exception|Halt|Interrupt|Exit))"
                       r"(?::\s*(.*))?$")


def normalize_message(message: str) -> str:
    """Strip volatile detail so equal bugs sign equally."""
    msg = re.sub(r"0x[0-9a-fA-F]+", "0x#", message)
    msg = re.sub(r"\d+", "#", msg)
    msg = re.sub(r"<[^<>]*>", "<#>", msg)
    return msg.strip()[:160]


def _repro_frame(text: str) -> Optional[str]:
    """The topmost (deepest) traceback frame inside the repro package."""
    frame = None
    for match in _FRAME_RE.finditer(text):
        path, func = match.groups()
        norm = path.replace("\\", "/")
        idx = norm.rfind("/repro/")
        if idx < 0:
            continue
        module = norm[idx + 1:].rsplit(".py", 1)[0].replace("/", ".")
        frame = f"{module}:{func}"
    return frame


def crash_signature(text: str) -> str:
    """Signature of a traceback (in-process) or worker stderr text:
    ``<ExceptionClass>|<module:function>|<normalized message>``."""
    exc_class, message = "UnknownError", ""
    for line in reversed(text.strip().splitlines()):
        match = _ERROR_RE.match(line.strip())
        if match:
            exc_class = match.group(1)
            message = match.group(2) or ""
            break
    frame = _repro_frame(text) or "?"
    return f"{exc_class}|{frame}|{normalize_message(message)}"
