"""Exit-code contract for the serving CLI paths (``astree-repro serve``
and ``astree-repro client``).

Operational failures — a daemon already holding the socket, an
unbindable socket path, a dead or stalled daemon on the client side —
must exit 3 (INTERNAL_ERROR) with the structured one-line
``internal-error: phase=serve`` diagnostic on stderr, never a raw
traceback-only crash and never a silent 0.
"""

import socket
import threading

import pytest

from repro.cli import main
from repro.serve.client import wait_until_ready
from repro.serve.server import AnalysisServer, ServeConfig


class TestServeExitCodes:
    def test_second_daemon_on_same_socket_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "daemon.sock")
        server = AnalysisServer(ServeConfig(socket_path=path,
                                            isolate_jobs=False))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            wait_until_ready(path, timeout_s=10.0)
            rc = main(["serve", "--socket", path])
            assert rc == 3
            err = capsys.readouterr().err
            assert "internal-error: phase=serve" in err
            assert "already listening" in err
        finally:
            server.stop()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_unbindable_socket_path_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "no-such-dir" / "daemon.sock")
        rc = main(["serve", "--socket", path])
        assert rc == 3
        err = capsys.readouterr().err
        assert "internal-error: phase=serve" in err
        assert "cannot bind" in err


class TestClientExitCodes:
    def test_connect_refused_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "nobody-home.sock")
        rc = main(["client", "--socket", path, "--op", "ping"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "internal-error: phase=serve" in err
        assert "class=ServeConnectionError" in err

    def test_stalled_daemon_times_out_with_exit_3(self, tmp_path, capsys):
        # A listener that never accepts: connect and send succeed (the
        # kernel backlog takes them), the reply never comes.
        path = str(tmp_path / "stalled.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        try:
            rc = main(["client", "--socket", path, "--op", "ping",
                       "--timeout", "0.3"])
            assert rc == 3
            err = capsys.readouterr().err
            assert "internal-error: phase=serve" in err
            assert "timed out" in err
        finally:
            listener.close()

    def test_submit_retries_exhausted_still_exits_3(self, tmp_path, capsys):
        # Retries reconnect on connection errors but must not mask a
        # daemon that stays dead.
        path = str(tmp_path / "gone.sock")
        src = tmp_path / "a.c"
        src.write_text("void main(void) { int x; x = 1; }\n")
        rc = main(["client", "--socket", path, "--retries", "1",
                   str(src)])
        assert rc == 3
        assert "class=ServeConnectionError" in capsys.readouterr().err
