"""Shared inter-process plumbing.

* :mod:`repro.ipc.frames` — the length-prefixed JSON frame format, the
  one framing used on worker pipes and the serve daemon's socket;
* :mod:`repro.ipc.process` — :class:`~repro.ipc.process.WorkerProcess`,
  the one child-process primitive (spawn, framed request with a
  deadline, death report, crash signatures, restart pacing).  The serve
  daemon keeps one across jobs; the fuzz runner starts one per case.
"""
