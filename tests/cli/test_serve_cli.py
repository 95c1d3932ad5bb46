"""End-to-end ``repro serve``: a real daemon process, a real SIGTERM.

This is the CI serve job in miniature: start the daemon on an ephemeral
port, wait for the ready file, resolve a fixture name over UDP, send
SIGTERM, and assert a clean drain — exit code 0 and a metrics document
consistent with the workload.
"""

import json
import signal
import socket
import subprocess
import sys
import time

from repro.dnslib.fastwire import build_query_wire
from repro.dnslib.wire import decode_message
from repro.transport.serve import DEFAULT_SLD

STARTUP_TIMEOUT = 10.0
SHUTDOWN_TIMEOUT = 15.0


def start_daemon(tmp_path, *extra_args):
    ready = tmp_path / "ready.json"
    metrics = tmp_path / "metrics.json"
    process = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli.main import main; sys.exit(main())",
            "serve", "--port", "0",
            "--ready-file", str(ready),
            "--metrics-out", str(metrics),
            "--drain-grace", "2.0",
            *extra_args,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while not ready.exists():
        if process.poll() is not None:
            out, _ = process.communicate()
            raise AssertionError(f"daemon died during startup:\n{out}")
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("daemon never wrote the ready file")
        time.sleep(0.05)
    return process, json.loads(ready.read_text()), metrics


def resolve(info, qname, msg_id=1, timeout=3.0):
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(timeout)
    try:
        client.sendto(
            build_query_wire(qname, msg_id=msg_id), (info["ip"], info["port"])
        )
        payload, _ = client.recvfrom(65535)
    finally:
        client.close()
    return decode_message(payload)


class TestServeCommand:
    def test_sigterm_drains_cleanly_and_writes_metrics(self, tmp_path):
        process, info, metrics_path = start_daemon(tmp_path)
        try:
            assert info["profile"] == "recursive"
            response = resolve(info, f"www.{DEFAULT_SLD}", msg_id=77)
            assert response.header.msg_id == 77
            assert response.first_a_record().data.address == "203.0.113.80"
        finally:
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=SHUTDOWN_TIMEOUT)
        assert process.returncode == 0, out
        assert "drained (clean)" in out
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["serve.client_queries"] == 1
        assert counters["serve.answered"] == 1
        assert counters["auth.queries_served"] == 1

    def test_profile_flag_selects_the_forwarder(self, tmp_path):
        process, info, metrics_path = start_daemon(
            tmp_path, "--profile", "forwarder"
        )
        try:
            assert info["profile"] == "forwarder"
            response = resolve(info, f"api.{DEFAULT_SLD}", msg_id=3)
            assert response.first_a_record().data.address == "203.0.113.81"
        finally:
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=SHUTDOWN_TIMEOUT)
        assert process.returncode == 0, out
        counters = json.loads(metrics_path.read_text())["counters"]
        # Forwarder accounting: one relay in, one relay out, resolved
        # by the hidden upstream.
        assert counters["serve.client_queries"] == 1
        assert counters["serve.answered"] == 1
        assert counters["serve.upstream.client_queries"] == 1

    def test_sigint_equivalent_to_sigterm(self, tmp_path):
        process, info, _ = start_daemon(tmp_path)
        process.send_signal(signal.SIGINT)
        out, _ = process.communicate(timeout=SHUTDOWN_TIMEOUT)
        assert process.returncode == 0, out
        assert "drained" in out

    def test_sigterm_as_soon_as_ready_still_drains(self, tmp_path):
        # The ready file is the daemon's promise that a signal drains
        # it: poll without sleeping and signal the moment it appears.
        ready = tmp_path / "ready.json"
        metrics = tmp_path / "metrics.json"
        process = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli.main import main; "
                "sys.exit(main())",
                "serve", "--port", "0",
                "--ready-file", str(ready),
                "--metrics-out", str(metrics),
                "--drain-grace", "0.5",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while not ready.exists():
            if process.poll() is not None or time.monotonic() > deadline:
                process.kill()
                out, _ = process.communicate()
                raise AssertionError(f"daemon never became ready:\n{out}")
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=SHUTDOWN_TIMEOUT)
        assert process.returncode == 0, out
        assert "drained" in out
        document = json.loads(metrics.read_text())
        assert document["counters"]["serve.client_queries"] == 0

    def test_unknown_profile_is_an_argparse_error(self):
        result = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from repro.cli.main import main; "
                "sys.exit(main())",
                "serve", "--profile", "bogus",
            ],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert "--profile" in result.stderr
