"""``repro cluster router`` and ``repro cluster worker``, as separate processes.

These two commands are the multi-host deployment path: each runs in its
own ``python -m repro`` process, as it would on its own host, and they
meet over TCP.  The router starts on an ephemeral port with a per-tenant
rate limit, two workers join it, a :class:`~repro.cluster.ClusterClient`
submits batches and checks every product against ``a * b % p``, and a
SIGINT stops the router, which releases its workers: every process exits
0 and the router's last line says it stopped.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import subprocess
import sys
import time

from repro.cluster import ClusterClient

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

MODULI = ((1 << 61) - 1, (1 << 127) - 1, 65521)


def _spawn(*args: str) -> subprocess.Popen:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=environment,
    )


def _first_line(process: subprocess.Popen, timeout_s: float = 30.0) -> str:
    ready, _, _ = select.select([process.stdout], [], [], timeout_s)
    assert ready, "the router printed nothing"
    return process.stdout.readline()


async def _submit_and_check(port: int) -> dict:
    async with ClusterClient("127.0.0.1", port, tenant="cli") as client:
        deadline = time.monotonic() + 30.0
        while (await client.stats())["live_nodes"] < 2:
            assert time.monotonic() < deadline, "the workers did not join"
            await asyncio.sleep(0.02)
        for modulus in MODULI:
            pairs = [(modulus - 1 - k, 3 * k + 2) for k in range(16)]
            response = await client.multiply_batch(pairs, modulus=modulus)
            assert response.values == tuple(a * b % modulus for a, b in pairs)
        return await client.stats()


class TestRouterAndWorkerCommands:
    def test_two_workers_serve_then_a_sigint_stops_everything(self):
        router = _spawn("router", "--port", "0", "--rate-per-tenant", "1000000")
        workers = []
        try:
            line = _first_line(router)
            match = re.match(r"router listening on 127\.0\.0\.1:(\d+) ", line)
            assert match, line
            port = match.group(1)
            workers = [
                _spawn("worker", "--port", port, "--name", name)
                for name in ("node-a", "node-b")
            ]
            stats = asyncio.run(_submit_and_check(int(port)))
            assert stats["completed"] == len(MODULI)
            assert stats["failed"] == stats["rate_limited"] == 0
            assert stats["rate_limiter"]["enabled"]
            assert stats["live_nodes"] == 2

            router.send_signal(signal.SIGINT)
            output, _ = router.communicate(timeout=30)
            assert router.returncode == 0, output
            assert output.endswith("router stopped\n"), output
            for worker in workers:
                output, _ = worker.communicate(timeout=30)
                assert worker.returncode == 0, output
        finally:
            for process in [router, *workers]:
                if process.poll() is None:
                    process.kill()
                    process.communicate()
