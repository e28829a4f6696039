"""Loaded by Python's ``site`` module at start-up of every child process
the ledger spawns in a traced run (this directory is prepended to its
``PYTHONPATH``).  Installs the span recorder before the main module
runs; without ``LEDGER_TRACE_DIR`` set it does nothing."""

import os

if os.environ.get("LEDGER_TRACE_DIR"):
    import importlib.util

    _path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "trace.py")
    _spec = importlib.util.spec_from_file_location("_ledger_trace", _path)
    _mod = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_mod)
    _mod.install_from_env()
