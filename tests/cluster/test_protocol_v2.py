"""The wire format: framing, lazy blobs, resync, coalescing.

The contract under test: :meth:`Connection.receive` *resynchronizes* on
every malformed-frame shape — bad magic, unknown version, oversized
length prefix, internally truncated payload — by consuming the offending
bytes and raising :class:`~repro.errors.ProtocolError`, so the
connection keeps serving; every connection speaks this framing from its
first byte; and the framing is a lossless transport for every message
(anything unpackable rides as JSON meta, byte-exact).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    ClusterClient,
    Connection,
    PackedInts,
    Router,
    WorkerConfig,
    WorkerNode,
)
from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    _TYPE_CODES,
    _V2_BLOB,
    _V2_HEADER,
    _V2_MAGIC,
    CoalescingSender,
    decode_frame_v2,
    encode_frame_v2,
)
from repro.engine import EngineSpec
from repro.errors import ProtocolError


def run(coroutine):
    return asyncio.run(coroutine)


def frame_bytes(message) -> bytes:
    """One message as its exact v2 byte stream."""
    return b"".join(encode_frame_v2(message))


def decode_stream(frame: bytes):
    """Decode one full v2 byte stream (header + payload) back to a dict."""
    _magic, _version, code, _flags, _length = _V2_HEADER.unpack_from(frame)
    return decode_frame_v2(frame[_V2_HEADER.size :], code)


def v2_payload(meta: dict, *blobs: bytes) -> bytes:
    """Hand-assemble a v2 payload from raw meta JSON and raw blob bytes."""
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return (
        len(meta_bytes).to_bytes(4, "little") + meta_bytes + b"".join(blobs)
    )


def feed(*chunks: bytes) -> asyncio.StreamReader:
    """A StreamReader pre-loaded with ``chunks`` and a trailing EOF."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


class TestV2Framing:
    def test_roundtrip_restores_the_exact_message(self):
        message = {
            "type": "submit",
            "id": 7,
            "tenant": "acme",
            "kind": "pairs",
            "modulus": 97,
            "pairs": [[3, 4], [95, 96]],
        }
        decoded = decode_stream(frame_bytes(message))
        assert decoded["type"] == "submit"
        assert decoded["pairs"] == [[3, 4], [95, 96]]
        assert {k: v for k, v in decoded.items() if k != "pairs"} == {
            k: v for k, v in message.items() if k != "pairs"
        }

    def test_big_integers_travel_exactly(self):
        operand = (1 << 255) - 19
        message = {"type": "result", "id": 1, "values": [operand, 1]}
        decoded = decode_stream(frame_bytes(message))
        assert decoded["values"] == [operand, 1]
        assert decoded["values"].width == 32

    def test_header_length_matches_payload(self):
        frame = frame_bytes({"type": "submit", "modulus": 97, "pairs": [[1, 2]]})
        magic, version, code, _flags, length = _V2_HEADER.unpack_from(frame)
        assert magic == _V2_MAGIC
        assert version == 2
        assert code == _TYPE_CODES["submit"]
        assert length == len(frame) - _V2_HEADER.size

    def test_modulus_width_hint_sets_blob_width(self):
        message = {"type": "submit", "modulus": 97, "pairs": [[96, 95]]}
        decoded = decode_stream(frame_bytes(message))
        assert decoded["pairs"].width == 1

    def test_without_modulus_width_comes_from_a_max_scan(self):
        message = {"type": "result", "values": [1, 1 << 64]}
        decoded = decode_stream(frame_bytes(message))
        assert decoded["values"].width == 9

    def test_operand_over_hinted_width_falls_back_to_json(self):
        # The operand does not fit the modulus-implied width: it must
        # still arrive losslessly (worker admission rejects it, not the
        # codec), so the batch rides as JSON meta instead of a blob.
        message = {"type": "submit", "modulus": 97, "pairs": [[1 << 64, 2]]}
        decoded = decode_stream(frame_bytes(message))
        assert isinstance(decoded["pairs"], list)
        assert decoded["pairs"] == [[1 << 64, 2]]

    def test_negative_ints_fall_back_to_json(self):
        message = {"type": "submit", "modulus": 97, "pairs": [[-1, 2]]}
        decoded = decode_stream(frame_bytes(message))
        assert isinstance(decoded["pairs"], list)
        assert decoded["pairs"] == [[-1, 2]]

    def test_compensating_ragged_rows_are_not_restructured(self):
        # sum(len) == 2 * rows here — a guard that only sums row lengths
        # would silently repack this as [[1, 2], [3, 4]].
        message = {"type": "submit", "pairs": [[1, 2, 3], [4]]}
        decoded = decode_stream(frame_bytes(message))
        assert isinstance(decoded["pairs"], list)
        assert decoded["pairs"] == [[1, 2, 3], [4]]

    def test_empty_batch_stays_json(self):
        decoded = decode_stream(frame_bytes({"type": "submit", "pairs": []}))
        assert decoded["pairs"] == []
        assert isinstance(decoded["pairs"], list)

    def test_every_protocol_type_roundtrips(self):
        for kind in MESSAGE_TYPES:
            assert decode_stream(frame_bytes({"type": kind})) == {"type": kind}

    def test_unknown_type_refuses_to_encode(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            encode_frame_v2({"type": "exploit"})

    def test_nested_batches_in_coalesced_frames_are_packed(self):
        jobs = {
            "type": "jobs",
            "jobs": [
                {"type": "job", "id": 1, "modulus": 97, "pairs": [[3, 4]]},
                {"type": "job", "id": 2, "modulus": 13, "pairs": [[5, 6]]},
            ],
        }
        decoded = decode_stream(frame_bytes(jobs))
        first, second = decoded["jobs"]
        assert isinstance(first["pairs"], PackedInts)
        assert first["pairs"] == [[3, 4]]
        assert second["pairs"] == [[5, 6]]
        # Each nested dict refreshes the width hint from its own modulus.
        assert first["pairs"].width == 1 and second["pairs"].width == 1


class TestPackedInts:
    def _decode_pairs(self, pairs, modulus=97):
        message = {"type": "submit", "modulus": modulus, "pairs": pairs}
        return decode_stream(frame_bytes(message))["pairs"]

    def test_decode_is_lazy_until_first_use(self):
        packed = self._decode_pairs([[3, 4], [5, 6]])
        assert isinstance(packed, PackedInts)
        assert packed._items is None
        assert packed.tolist() == [[3, 4], [5, 6]]
        assert packed._items is not None

    def test_sequence_protocol(self):
        packed = self._decode_pairs([[3, 4], [5, 6], [7, 8]])
        assert len(packed) == 3
        assert packed[1] == [5, 6]
        assert list(packed) == [[3, 4], [5, 6], [7, 8]]
        assert packed == [[3, 4], [5, 6], [7, 8]]
        assert packed == ([3, 4], [5, 6], [7, 8])
        assert not packed == [[3, 4]]

    def test_topairs_yields_tuples(self):
        packed = self._decode_pairs([[3, 4], [5, 6]])
        assert packed.is_pairs
        assert packed.topairs() == [(3, 4), (5, 6)]

    def test_topairs_on_a_flat_blob_raises(self):
        message = {"type": "result", "modulus": 97, "values": [1, 2, 3]}
        values = decode_stream(frame_bytes(message))["values"]
        assert not values.is_pairs
        assert values.tolist() == [1, 2, 3]
        with pytest.raises(ValueError, match="flat int blob"):
            values.topairs()

    def test_forwarding_reencodes_byte_exact_without_materializing(self):
        # The router's hop: decode a submit, re-encode it as a job — the
        # blob's wire bytes must ride again untouched, and the lazy ints
        # must never materialize on the forwarding hop.
        message = {"type": "submit", "modulus": 97, "pairs": [[3, 4], [5, 6]]}
        decoded = decode_stream(frame_bytes(message))
        reencoded = frame_bytes(decoded)
        assert reencoded == frame_bytes(message)
        assert decoded["pairs"]._items is None

    def test_to_wire_roundtrips_through_a_fresh_decode(self):
        packed = self._decode_pairs([[10, 20], [30, 40]])
        blob = packed.to_wire()
        kind, width, count = _V2_BLOB.unpack_from(blob)
        assert (kind, width, count) == (packed.kind, packed.width, 4)
        assert blob[_V2_BLOB.size :] == packed.data


class TestV2PayloadErrors:
    """Malformed payloads raise eagerly at decode, never at first use."""

    def test_too_short_for_meta_length(self):
        with pytest.raises(ProtocolError, match="too short"):
            decode_frame_v2(b"\x01\x00")

    def test_meta_longer_than_payload(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame_v2((100).to_bytes(4, "little") + b"{}")

    def test_meta_not_json(self):
        payload = (4).to_bytes(4, "little") + b"\xff\xfe{["
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame_v2(payload)

    def test_meta_not_an_object(self):
        meta = json.dumps([1, 2]).encode()
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_frame_v2(len(meta).to_bytes(4, "little") + meta)

    def test_meta_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_frame_v2(v2_payload({"type": "exploit"}))

    def test_meta_missing_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_frame_v2(v2_payload({"id": 1}))

    def test_header_and_meta_type_must_agree(self):
        frame = frame_bytes({"type": "stats", "id": 1})
        with pytest.raises(ProtocolError, match="header says type"):
            decode_frame_v2(frame[_V2_HEADER.size :], _TYPE_CODES["hello"])

    def test_blob_header_truncated(self):
        payload = v2_payload({"type": "stats"}, b"\x00\x01")
        with pytest.raises(ProtocolError, match="blob header"):
            decode_frame_v2(payload)

    def test_blob_zero_width(self):
        payload = v2_payload({"type": "stats"}, _V2_BLOB.pack(0, 0, 0))
        with pytest.raises(ProtocolError, match="illegal width"):
            decode_frame_v2(payload)

    def test_blob_data_truncated(self):
        blob = _V2_BLOB.pack(0, 4, 10) + b"\x00" * 8
        with pytest.raises(ProtocolError, match="truncated inside a blob"):
            decode_frame_v2(v2_payload({"type": "stats"}, blob))

    def test_pair_blob_odd_int_count(self):
        blob = _V2_BLOB.pack(1, 1, 3) + b"\x01\x02\x03"
        with pytest.raises(ProtocolError, match="odd int count"):
            decode_frame_v2(v2_payload({"type": "stats"}, blob))

    def test_unknown_blob_kind(self):
        blob = _V2_BLOB.pack(7, 1, 2) + b"\x01\x02"
        with pytest.raises(ProtocolError, match="unknown binary blob kind"):
            decode_frame_v2(v2_payload({"type": "stats"}, blob))

    def test_dangling_blob_reference(self):
        payload = v2_payload({"type": "result", "values": {"$bin": 5}})
        with pytest.raises(ProtocolError, match="references blob"):
            decode_frame_v2(payload)


class TestBinaryResync:
    """Each malformed-frame shape consumes its bytes, then raises —
    the frame behind it must still parse off the same stream."""

    GOOD = frame_bytes({"type": "stats", "id": 42})

    async def _drain(self, chunks, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        connection = Connection(feed(*chunks), None, max_frame_bytes)
        events = []
        while True:
            try:
                message = await connection.receive()
            except ProtocolError as error:
                events.append(("error", str(error)))
                continue
            if message is None:
                events.append(("eof", None))
                return events
            events.append(("ok", message))

    def test_bad_magic_consumes_exactly_one_header(self):
        junk = b"XX" + b"\x00" * (_V2_HEADER.size - 2)
        events = run(self._drain([junk, self.GOOD]))
        assert events[0][0] == "error" and "bad frame magic" in events[0][1]
        assert events[1][0] == "ok" and events[1][1]["id"] == 42
        assert events[2] == ("eof", None)

    def test_unknown_version_discards_by_declared_length(self):
        junk_payload = b"\xab" * 37
        header = _V2_HEADER.pack(_V2_MAGIC, 3, 1, 0, len(junk_payload))
        events = run(self._drain([header, junk_payload, self.GOOD]))
        assert events[0][0] == "error" and "unknown wire version" in events[0][1]
        assert events[1][0] == "ok" and events[1][1]["id"] == 42
        assert events[2] == ("eof", None)

    def test_oversized_length_is_discarded_in_chunks(self):
        oversized = b"\x00" * 100_000
        header = _V2_HEADER.pack(_V2_MAGIC, 2, 9, 0, len(oversized))
        events = run(
            self._drain([header, oversized, self.GOOD], max_frame_bytes=4096)
        )
        assert events[0][0] == "error" and "exceeds" in events[0][1]
        assert events[1][0] == "ok" and events[1][1]["id"] == 42
        assert events[2] == ("eof", None)

    def test_unknown_type_code_consumes_the_whole_frame(self):
        payload = v2_payload({"type": "stats", "id": 1})
        header = _V2_HEADER.pack(_V2_MAGIC, 2, 250, 0, len(payload))
        events = run(self._drain([header, payload, self.GOOD]))
        assert events[0][0] == "error" and "type code" in events[0][1]
        assert events[1][0] == "ok" and events[1][1]["id"] == 42

    def test_internally_truncated_payload_raises_after_consuming(self):
        # The declared frame length is honest, but the meta length inside
        # points past the payload: the frame is consumed, then rejected.
        payload = (999).to_bytes(4, "little") + b"{}"
        header = _V2_HEADER.pack(_V2_MAGIC, 2, 9, 0, len(payload))
        events = run(self._drain([header, payload, self.GOOD]))
        assert events[0][0] == "error" and "truncated" in events[0][1]
        assert events[1][0] == "ok" and events[1][1]["id"] == 42

    def test_eof_mid_frame_is_a_closed_connection(self):
        header = _V2_HEADER.pack(_V2_MAGIC, 2, 9, 0, 50)
        events = run(self._drain([header, b"\x00" * 10]))
        assert events == [("eof", None)]

    def test_fuzz_random_garbage_never_desyncs_a_good_tail(self):
        # Whatever aligned garbage precedes it, the good frame parses
        # once the decoder has eaten an integral number of junk frames.
        import random

        rng = random.Random(0xBAD5EED)
        for _ in range(25):
            # Junk dressed as a frame: our magic, our version, a random
            # payload the header length describes honestly.
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(64))
            )
            header = _V2_HEADER.pack(
                _V2_MAGIC, 2, rng.randrange(256), 0, len(payload)
            )
            events = run(self._drain([header, payload, self.GOOD]))
            kinds = [kind for kind, _ in events]
            assert kinds[-2:] == ["ok", "eof"]
            assert events[-2][1]["id"] == 42


class TestRouterSpeaksV2:
    async def _exchange(self, router, *chunks):
        """Write raw bytes to a fresh router connection; read one frame."""
        reader, writer = await asyncio.open_connection("127.0.0.1", router.port)
        writer.writelines(chunks)
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(_V2_HEADER.size), 5)
        magic, _version, code, _flags, length = _V2_HEADER.unpack(header)
        assert magic == _V2_MAGIC
        answer = decode_frame_v2(await reader.readexactly(length), code)
        return answer, Connection(reader, writer)

    def test_raw_hello_as_the_first_frame_gets_a_welcome(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                welcome, connection = await self._exchange(
                    router, frame_bytes({"type": "hello"})
                )
                assert welcome["type"] == "welcome"
                await connection.send({"type": "stats", "id": 5})
                stats = await connection.receive()
                assert stats["type"] == "result" and stats["id"] == 5
                await connection.close()

        run(scenario())

    def test_raw_join_as_the_first_frame_gets_a_worker_welcome(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                welcome, connection = await self._exchange(
                    router, frame_bytes({"type": "join", "node": "n7"})
                )
                nodes = router.live_nodes
                await connection.close()
                return welcome, nodes

        welcome, nodes = run(scenario())
        assert welcome["type"] == "welcome" and welcome["role"] == "worker"
        assert welcome["node"] == "n7"
        assert welcome["engine_spec"] == EngineSpec().as_dict()
        assert "wire" not in welcome
        assert nodes == ["n7"]

    def test_unknown_version_as_the_first_frame_is_answered(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                junk = b"\xab" * 21
                header = _V2_HEADER.pack(_V2_MAGIC, 3, 1, 0, len(junk))
                answer, connection = await self._exchange(
                    router, header, junk, frame_bytes({"type": "hello"})
                )
                # The version-3 frame was discarded whole: the hello
                # behind it opens the session.
                welcome = await asyncio.wait_for(connection.receive(), 5)
                await connection.close()
                return answer, welcome

        answer, welcome = run(scenario())
        assert answer["type"] == "error"
        assert answer["error"] == "ProtocolError"
        assert "unknown wire version" in answer["message"]
        assert welcome["type"] == "welcome"

    def test_length_prefixed_json_hello_is_answered_with_bad_magic(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                payload = json.dumps({"type": "hello"}).encode()
                answer, connection = await self._exchange(
                    router, len(payload).to_bytes(4, "big"), payload
                )
                await connection.close()
                return answer, router.metrics.protocol_errors

        answer, errors = run(scenario())
        assert answer["type"] == "error"
        assert answer["error"] == "ProtocolError"
        assert "bad frame magic" in answer["message"]
        assert errors >= 1

    def test_bad_magic_on_an_established_session_is_answered(self):
        async def scenario():
            async with Router(EngineSpec()) as router:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                connection = Connection(reader, writer)
                await connection.send({"type": "hello"})
                welcome = await connection.receive()
                assert welcome["type"] == "welcome"
                # Exactly one header's worth of garbage: the router must
                # answer a structured error and keep serving this session.
                writer.write(b"XX" + b"\x00" * (_V2_HEADER.size - 2))
                await writer.drain()
                answer = await connection.receive()
                assert answer["type"] == "error"
                assert answer["error"] == "ProtocolError"
                assert "magic" in answer["message"]
                await connection.send({"type": "stats", "id": 6})
                stats = await connection.receive()
                assert stats["type"] == "result"
                await connection.close()
                return router.metrics.protocol_errors

        assert run(scenario()) == 1


class TestPeersOpenWithABinaryFrame:
    """Client and worker write a binary frame as their first bytes, and
    their opening message names no wire version."""

    async def _first_frame(self, dial, welcome):
        """Run ``dial(port)`` against a stand-in router; return the raw
        header fields and the message of the first frame it receives.

        The stand-in answers that frame with ``welcome`` and then reads
        until the peer hangs up.
        """
        seen = {}

        async def handler(reader, writer):
            header = _V2_HEADER.unpack(
                await reader.readexactly(_V2_HEADER.size)
            )
            payload = await reader.readexactly(header[-1])
            seen["header"] = header
            seen["message"] = decode_frame_v2(payload, header[2])
            connection = Connection(reader, writer)
            await connection.send(welcome)
            while await connection.receive() is not None:
                pass
            await connection.close()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        await asyncio.wait_for(dial(port), 5)
        server.close()
        await server.wait_closed()
        return seen["header"], seen["message"]

    def test_client_opens_with_a_binary_hello(self):
        async def dial(port):
            client = ClusterClient("127.0.0.1", port, tenant="acme")
            await client.connect()
            await client.close()

        welcome = {"type": "welcome", "role": "client", "slo_classes": {}}
        header, message = run(self._first_frame(dial, welcome))
        magic, version, code, _flags, _length = header
        assert (magic, version, code) == (_V2_MAGIC, 2, _TYPE_CODES["hello"])
        assert message == {"type": "hello", "tenant": "acme"}

    def test_worker_opens_with_a_binary_join(self):
        async def dial(port):
            node = WorkerNode("127.0.0.1", port, WorkerConfig(name="n7"))
            await node.start()
            await node.stop()

        welcome = {
            "type": "welcome",
            "role": "worker",
            "node": "n7",
            "engine_spec": EngineSpec().as_dict(),
            "heartbeat_interval_s": 60.0,
        }
        header, message = run(self._first_frame(dial, welcome))
        magic, version, code, _flags, _length = header
        assert (magic, version, code) == (_V2_MAGIC, 2, _TYPE_CODES["join"])
        assert message == {"type": "join", "node": "n7"}


class _BrokenConnection:
    """A connection whose socket always fails (for sender error paths)."""

    def __init__(self) -> None:
        self.max_frame_bytes = DEFAULT_MAX_FRAME_BYTES

    async def send_encoded(self, buffers):
        raise ConnectionError("socket died")


class TestCoalescingSender:
    def _serve(self):
        """A (sender, received, finish) triple over a real socket pair."""

        async def scenario(body):
            received = []
            done = asyncio.Event()

            async def handler(reader, writer):
                connection = Connection(reader, writer)
                while True:
                    message = await connection.receive()
                    if message is None:
                        break
                    received.append(message)
                done.set()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            connection = Connection(reader, writer)
            sender = CoalescingSender(connection)
            await body(sender)
            await sender.drain()
            await connection.close()
            await asyncio.wait_for(done.wait(), 5)
            server.close()
            await server.wait_closed()
            return received, sender.stats

        return scenario

    def test_v2_backlog_coalesces_into_one_results_frame(self):
        async def body(sender):
            # Everything enqueued before the flusher first runs lands in
            # one window — the adaptive bundling's backlog case.
            for index in range(5):
                sender.enqueue({"type": "result", "id": index, "values": [index]})

        received, stats = run(self._serve()(body))
        assert [m["type"] for m in received] == ["results"]
        bundle = received[0]["results"]
        assert [entry["id"] for entry in bundle] == [0, 1, 2, 3, 4]
        assert stats == {"messages": 5, "frames": 1, "coalesced_frames": 1}

    def test_non_coalescible_types_break_the_run(self):
        async def body(sender):
            sender.enqueue({"type": "result", "id": 0})
            sender.enqueue({"type": "result", "id": 1})
            sender.enqueue({"type": "heartbeat", "node": "n0"})
            sender.enqueue({"type": "result", "id": 2})

        received, stats = run(self._serve()(body))
        assert [m["type"] for m in received] == ["results", "heartbeat", "result"]
        assert stats == {"messages": 4, "frames": 3, "coalesced_frames": 1}

    def test_max_coalesce_caps_bundle_size(self):
        async def scenario():
            received = []

            async def handler(reader, writer):
                connection = Connection(reader, writer)
                while True:
                    message = await connection.receive()
                    if message is None:
                        break
                    received.append(message)

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            connection = Connection(reader, writer)
            sender = CoalescingSender(connection, max_coalesce=2)
            for index in range(5):
                sender.enqueue({"type": "job", "id": index})
            await sender.drain()
            await connection.close()
            await asyncio.sleep(0.2)
            server.close()
            await server.wait_closed()
            return received, sender.stats

        received, stats = run(scenario())
        assert [m["type"] for m in received] == ["jobs", "jobs", "job"]
        assert [len(m.get("jobs", [1])) for m in received] == [2, 2, 1]
        assert stats == {"messages": 5, "frames": 3, "coalesced_frames": 2}

    def test_send_failure_breaks_the_sender_and_fires_on_error(self):
        async def scenario():
            errors = []

            async def on_error(error):
                errors.append(error)

            sender = CoalescingSender(_BrokenConnection(), on_error=on_error)
            sender.enqueue({"type": "result", "id": 0})
            await sender.drain()
            assert sender.broken
            # Enqueues after the break are dropped, not queued.
            sender.enqueue({"type": "result", "id": 1})
            assert len(sender._outbox) == 0
            await sender.drain()
            return errors

        errors = run(scenario())
        assert len(errors) == 1
        assert isinstance(errors[0], ConnectionError)

    def test_close_drops_queued_messages(self):
        async def scenario():
            sender = CoalescingSender(_BrokenConnection())
            sender._outbox.append({"type": "result", "id": 0})
            sender.close()
            assert sender.broken
            assert sender._outbox == []
            sender.close()  # idempotent

        run(scenario())
