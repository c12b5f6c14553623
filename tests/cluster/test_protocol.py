"""Wire-protocol robustness: connections, malformed frames, resync.

The contract under test: a malformed, oversized or unknown-type frame —
or a submit whose fields have the wrong shape — is answered with a
*structured error response* and the connection stays usable — no
dropped state, no desynchronized stream.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import Connection, Router, WorkerNode
from repro.cluster.protocol import _TYPE_CODES, _V2_HEADER, _V2_MAGIC
from repro.cluster.router import RouterConfig
from repro.engine import EngineSpec
from repro.errors import ProtocolError


def run(coroutine):
    return asyncio.run(coroutine)


def raw_frame(code: int, payload: bytes) -> bytes:
    """A frame with a valid header around an arbitrary payload."""
    return _V2_HEADER.pack(_V2_MAGIC, 2, code, 0, len(payload)) + payload


def meta_payload(meta_bytes: bytes) -> bytes:
    """A payload carrying ``meta_bytes`` as its (unchecked) meta."""
    return len(meta_bytes).to_bytes(4, "little") + meta_bytes


class TestConnection:
    def test_send_receive_and_clean_eof(self):
        async def scenario():
            received = []
            done = asyncio.Event()

            async def handler(reader, writer):
                connection = Connection(reader, writer)
                while True:
                    message = await connection.receive()
                    if message is None:
                        break
                    received.append(message)
                await connection.close()
                done.set()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            connection = Connection(reader, writer)
            await connection.send({"type": "hello", "tenant": "t"})
            await connection.send({"type": "stats", "id": 1})
            await connection.close()
            await asyncio.wait_for(done.wait(), 5)
            server.close()
            await server.wait_closed()
            return received

        received = run(scenario())
        assert [m["type"] for m in received] == ["hello", "stats"]

    def test_oversized_frame_is_skipped_then_raises(self):
        async def scenario():
            results = []

            async def handler(reader, writer):
                connection = Connection(reader, writer, max_frame_bytes=64)
                while True:
                    try:
                        message = await connection.receive()
                    except ProtocolError as error:
                        results.append(("error", str(error)))
                        continue
                    if message is None:
                        break
                    results.append(("ok", message["type"]))
                await connection.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            sender = Connection(reader, writer)
            # Frame 1: far over the 64-byte cap.  Frame 2: fine.  The
            # receiver must skip frame 1's payload and still parse 2.
            await sender.send({"type": "heartbeat", "blob": "x" * 4096})
            await sender.send({"type": "bye"})
            await sender.close()
            await asyncio.sleep(0.2)
            server.close()
            await server.wait_closed()
            return results

        results = run(scenario())
        assert results[0][0] == "error" and "exceeds" in results[0][1]
        assert results[1] == ("ok", "bye")


class TestRouterAnswersBadFrames:
    """Bad frames at the router's front door get structured answers."""

    def test_malformed_then_valid_hello_on_same_connection(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                # Garbage meta inside a valid header.
                writer.write(
                    raw_frame(
                        _TYPE_CODES["hello"], meta_payload(b"this is not json")
                    )
                )
                await writer.drain()
                connection = Connection(reader, writer)
                answer = await connection.receive()
                assert answer["type"] == "error"
                assert answer["error"] == "ProtocolError"
                assert "JSON" in answer["message"]
                # Same connection, now behaving: the handshake works.
                await connection.send({"type": "hello"})
                welcome = await connection.receive()
                assert welcome["type"] == "welcome"
                await connection.close()
                return router.metrics.protocol_errors

        assert run(scenario()) == 1

    def test_unknown_type_and_wrong_opening_are_answered(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                connection = Connection(reader, writer)
                meta = json.dumps({"type": "exploit"}).encode()
                writer.write(raw_frame(_TYPE_CODES["hello"], meta_payload(meta)))
                await writer.drain()
                first = await connection.receive()
                # 'result' is a known type but not a legal opener.
                await connection.send({"type": "result", "id": 9})
                second = await connection.receive()
                await connection.close()
                return first, second, router.metrics.protocol_errors

        first, second, count = run(scenario())
        assert first["error"] == "ProtocolError"
        assert "unknown message type" in first["message"]
        assert second["error"] == "ProtocolError"
        assert "hello" in second["message"]
        assert count == 2

    def test_oversized_submit_is_answered_not_fatal(self):
        async def scenario():
            config = RouterConfig(max_frame_bytes=512)
            async with Router(EngineSpec(), config=config) as router:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                connection = Connection(reader, writer)
                await connection.send({"type": "hello"})
                welcome = await connection.receive()
                assert welcome["type"] == "welcome"
                # An oversized frame on an established client session.
                await connection.send(
                    {"type": "submit", "id": 3, "junk": "y" * 2048}
                )
                answer = await connection.receive()
                # The session survives: stats still answered.
                await connection.send({"type": "stats", "id": 4})
                stats = await connection.receive()
                await connection.close()
                return answer, stats

        answer, stats = run(scenario())
        assert answer["type"] == "error"
        assert answer["error"] == "ProtocolError"
        assert stats["type"] == "result"
        assert stats["stats"]["protocol_errors"] == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_ms", "soon"),
            ("priority", "high"),
            ("slo", ["gold"]),
            ("deadline_ms", True),
            ("priority", 1.5),
            ("priority", None),
            ("slo", 7),
        ],
        ids=[
            "deadline_ms",
            "priority",
            "slo",
            "deadline_ms-bool",
            "priority-float",
            "priority-null",
            "slo-number",
        ],
    )
    def test_malformed_submit_field_is_answered_not_fatal(self, field, value):
        async def scenario():
            async with Router(EngineSpec()) as router:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                connection = Connection(reader, writer)
                await connection.send({"type": "hello"})
                welcome = await connection.receive()
                assert welcome["type"] == "welcome"
                await connection.send(
                    {
                        "type": "submit",
                        "id": 5,
                        "kind": "pairs",
                        "modulus": 97,
                        "pairs": [[2, 3]],
                        field: value,
                    }
                )
                answer = await asyncio.wait_for(connection.receive(), 5)
                # The session survives: stats still answered.
                await connection.send({"type": "stats", "id": 6})
                stats = await asyncio.wait_for(connection.receive(), 5)
                await connection.close()
                return answer, stats

        answer, stats = run(scenario())
        assert answer["type"] == "error"
        assert answer["error"] == "ProtocolError"
        assert answer["id"] == 5
        assert field in answer["message"]
        assert stats["type"] == "result" and stats["id"] == 6
        assert stats["stats"]["protocol_errors"] == 1
        assert stats["stats"]["submitted"] == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_ms", 60_000),
            ("deadline_ms", 60_000.5),
            ("deadline_ms", None),
            ("priority", 3),
            ("slo", None),
        ],
        ids=[
            "deadline_ms-int",
            "deadline_ms-float",
            "deadline_ms-null",
            "priority-int",
            "slo-null",
        ],
    )
    def test_well_formed_submit_field_is_served(self, field, value):
        # The control for the shape checks above: every legal shape of
        # the same fields still reaches a node and comes back a product.
        async def scenario():
            async with Router(EngineSpec()) as router:
                async with WorkerNode("127.0.0.1", router.port):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", router.port
                    )
                    connection = Connection(reader, writer)
                    await connection.send({"type": "hello"})
                    welcome = await connection.receive()
                    assert welcome["type"] == "welcome"
                    await connection.send(
                        {
                            "type": "submit",
                            "id": 5,
                            "kind": "pairs",
                            "modulus": 97,
                            "pairs": [[2, 3]],
                            field: value,
                        }
                    )
                    answer = await asyncio.wait_for(connection.receive(), 5)
                    await connection.close()
                    return answer, router.metrics.protocol_errors

        answer, errors = run(scenario())
        assert answer["type"] == "result" and answer["id"] == 5
        assert answer["values"] == [6]
        assert errors == 0
