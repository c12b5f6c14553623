"""The cluster wire protocol: one binary framing for every message.

Every message between a :class:`~repro.cluster.router.Router`, its
:class:`~repro.cluster.worker.WorkerNode` s and its
:class:`~repro.cluster.client.ClusterClient` s is one *frame*, from the
first byte of every connection: a struct-packed header (magic, version,
type code, flags, payload length) followed by a small JSON *meta*
section and zero or more *blobs* of fixed-width little-endian integers
(``int.to_bytes``, one width field per batch).  JSON (not pickle) for
the meta is deliberate: a router port is a network surface, and JSON
deserialization cannot execute code.  Operand pairs and product lists
travel as blobs instead of JSON decimal ints, so a 4096-pair 254-bit
batch never round-trips through a Python string; decoding slices one
:class:`memoryview`, encoding hands ``writer.writelines`` a list of
buffers.  Anything the packer cannot express rides in the meta as
plain JSON, whose integers are arbitrary-precision — the wire never
rounds.  Decoded blobs surface as lazy :class:`PackedInts` sequences:
the bytes stay packed until somebody *computes* on them, so the router
forwards a batch hop-to-hop without ever materializing its operands as
Python ints (re-encoding a :class:`PackedInts` is a zero-copy buffer
append), and the 8k big-int conversions of a 4k-pair batch happen
exactly once — on the worker that multiplies them.

Robustness is part of the contract (and of the test suite): a malformed
frame — oversized, bad magic, unknown version, meta that is not valid
JSON, an internally truncated payload — raises
:class:`~repro.errors.ProtocolError` *after the stream has been
resynchronized* (the offending payload is consumed), so the receiving
side can answer with a structured ``{"type": "error"}`` response and
keep serving the connection instead of dropping it.

The message vocabulary (all types in :data:`MESSAGE_TYPES`):

========== ============ ====================================================
type       direction    meaning
========== ============ ====================================================
hello      client→router introduce a client connection
join       worker→router register a worker node
welcome    router→both  accept; carries the fleet's ``EngineSpec`` for
                        workers
heartbeat  worker→router liveness + the node's metrics snapshot
job        router→worker one placed job (pairs or graph) with SLO context
jobs       router→worker a coalesced frame of several ``job`` messages
result     both         a completed job's products and timings
results    both         a coalesced frame of several ``result`` messages
error      both         a structured failure (name + message + retryable)
submit     client→router one request (pairs or an operand-carrying graph)
stats      client→router ask for the cluster metrics rollup
leave      worker→router graceful drain request
bye        router→worker drain complete; the worker may exit
shutdown   router→worker the router is closing
========== ============ ====================================================

Coalesced ``jobs``/``results`` frames are how the router's pipelined
dispatch amortizes per-frame syscall and framing overhead: any number of
messages bound for the same peer inside one flush window travel as one
frame (see :class:`CoalescingSender`).
"""

from __future__ import annotations

import asyncio
import json
import struct
from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ProtocolError

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "MESSAGE_TYPES",
    "CoalescingSender",
    "Connection",
    "PackedInts",
    "decode_frame_v2",
    "encode_frame_v2",
]

#: Frames above this are rejected (consumed and answered with an error):
#: large enough for ~100k-pair batches of 256-bit operands, small enough
#: that a hostile length prefix cannot balloon router memory.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Stable type codes (one byte on the wire).  Append-only: codes are
#: part of the wire contract, never renumber.
_TYPE_CODES: Dict[str, int] = {
    "hello": 1,
    "join": 2,
    "welcome": 3,
    "heartbeat": 4,
    "job": 5,
    "result": 6,
    "error": 7,
    "submit": 8,
    "stats": 9,
    "leave": 10,
    "bye": 11,
    "shutdown": 12,
    "jobs": 13,
    "results": 14,
}
_TYPE_NAMES: Dict[int, str] = {code: name for name, code in _TYPE_CODES.items()}

#: Every message type either side may legitimately send.
MESSAGE_TYPES = frozenset(_TYPE_CODES)

#: Frame header: magic, version, type code, flags, payload length.
_V2_MAGIC = b"RW"
_V2_HEADER = struct.Struct("<2sBBHI")
_V2_HEADER_BYTES = _V2_HEADER.size
#: One blob header inside a payload: kind, width (bytes/int), count.
_V2_BLOB = struct.Struct("<BHI")
#: Blob kinds: a flat list of ints, or an interleaved [a, b] pair list.
_BLOB_INTS = 0
_BLOB_PAIRS = 1
#: Dict keys whose list values are packed as blobs (pairs of ints / flat
#: ints).  Explicit keys keep the transform deterministic: bulk operand
#: and product arrays move to blobs, everything else stays JSON meta.
_PAIR_KEYS = frozenset({"pairs", "payload"})
_INT_KEYS = frozenset({"values"})
#: Meta-JSON placeholder key pointing into the blob table.
_BIN_KEY = "$bin"


# ---------------------------------------------------------------------- #
# frames: struct header + JSON meta + fixed-width integer blobs
# ---------------------------------------------------------------------- #
class PackedInts(Sequence):
    """An operand blob decoded *lazily*: bytes until somebody computes.

    Decoding a frame leaves bulk integer arrays in this form —
    width, count and the packed little-endian bytes — instead of eagerly
    creating thousands of Python ints.  The sequence protocol (``len``,
    iteration, indexing, ``==`` against plain lists) materializes the
    ints on first use and caches them, so consumers that *compute* pay
    the conversion exactly once, while hops that merely *forward* (the
    router re-encoding a job for its placed worker) never pay it at all:
    re-encoding a :class:`PackedInts` appends its original wire bytes
    back to the frame, zero-copy.

    ``is_pairs`` distinguishes the two blob shapes: a flat ``[v, ...]``
    int list or an interleaved ``[[a, b], ...]`` pair list (what
    materialization yields, exactly as JSON would have decoded it).
    """

    __slots__ = ("width", "kind", "data", "_count", "_items")

    def __init__(self, width: int, kind: int, data: bytes) -> None:
        self.width = width
        self.kind = kind
        self.data = data
        self._count = len(data) // width  # ints, not pairs
        self._items: Optional[list] = None

    @property
    def is_pairs(self) -> bool:
        """True when this blob materializes as ``[[a, b], ...]`` pairs."""
        return self.kind == _BLOB_PAIRS

    def _flat(self) -> list:
        """Every int in blob order, one C-speed pass (not cached)."""
        count = self._count
        if not count:
            return []
        chunks = struct.unpack(("%ds" % self.width) * count, self.data)
        return list(map(int.from_bytes, chunks, repeat("little")))

    def tolist(self) -> list:
        """Materialize (and cache) the Python-int view of the blob.

        Pairs come back as ``[[a, b], ...]`` — exactly what JSON would
        have decoded — so a blob and a batch that fell back to JSON meta
        are observably identical.
        """
        if self._items is None:
            flat = self._flat()
            if self.kind == _BLOB_PAIRS:
                it = iter(flat)
                self._items = list(map(list, zip(it, it)))
            else:
                self._items = flat
        return self._items

    def topairs(self) -> list:
        """Materialize a pair blob as ``[(a, b), ...]`` tuples.

        The shape :meth:`~repro.service.server.Server.multiply_batch`
        consumes — the worker's hot path uses this to skip the
        list-of-lists detour :meth:`tolist` keeps for JSON parity.
        """
        if self.kind != _BLOB_PAIRS:
            raise ValueError("topairs() on a flat int blob")
        it = iter(self._flat())
        return list(zip(it, it))

    def to_wire(self) -> bytes:
        """The blob's exact wire bytes (header + data), for re-encoding."""
        return _V2_BLOB.pack(self.kind, self.width, self._count) + self.data

    def __len__(self) -> int:
        return self._count // 2 if self.kind == _BLOB_PAIRS else self._count

    def __getitem__(self, index):
        return self.tolist()[index]

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedInts):
            other = other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable cache, list-like

    def __repr__(self) -> str:
        shape = "pairs" if self.is_pairs else "ints"
        return f"PackedInts({len(self)} {shape}, width={self.width})"


def _pack_ints(
    ints, count: int, kind: int, width: Optional[int] = None
) -> bytes:
    """One blob: header plus ``count`` ints at the batch's fixed width.

    ``width`` is the caller's hint (derived from the enclosing message's
    modulus — every residue fits by construction); without one the batch
    pays an extra pass to find its widest element.  An int that does not
    fit the hinted width raises ``OverflowError``, which the callers
    turn into the JSON fallback — oversized operands still arrive
    losslessly and get rejected by worker admission, not by the codec.
    """
    if width is None:
        ints = list(ints)
        count = len(ints)
        width = max(1, (max(ints).bit_length() + 7) // 8)
    return _V2_BLOB.pack(kind, width, count) + b"".join(
        map(int.to_bytes, ints, repeat(width), repeat("little"))
    )


def _try_pack_pairs(value: object, width: Optional[int] = None) -> Optional[bytes]:
    """Pack a ``[[a, b], ...]`` pair list, or ``None`` if it is not one."""
    if not isinstance(value, (list, tuple)) or not value:
        return None
    first = value[0]
    if not isinstance(first, (list, tuple)) or len(first) != 2:
        return None
    try:
        if set(map(len, value)) != {2}:
            return None  # a ragged row slipped past the first-row probe
        return _pack_ints(
            chain.from_iterable(value), 2 * len(value), _BLOB_PAIRS, width
        )
    except (TypeError, ValueError, AttributeError, OverflowError, struct.error):
        return None  # ragged rows / non-ints / negatives: leave as JSON


def _try_pack_values(value: object, width: Optional[int] = None) -> Optional[bytes]:
    """Pack a flat int list, or ``None`` if it is not one."""
    if not isinstance(value, (list, tuple)) or not value:
        return None
    try:
        return _pack_ints(value, len(value), _BLOB_INTS, width)
    except (TypeError, ValueError, AttributeError, OverflowError, struct.error):
        return None


def _width_hint(obj: Dict[str, object]) -> Optional[int]:
    """The packing width this dict's ``modulus`` implies, if it has one.

    Operands and products are residues of the message's modulus, so its
    byte width bounds theirs — knowing it up front saves the max-scan
    over every int in the batch.
    """
    modulus = obj.get("modulus")
    if isinstance(modulus, int) and not isinstance(modulus, bool) and modulus >= 2:
        return (modulus.bit_length() + 7) // 8
    return None


def _extract_blobs(
    obj: object, blobs: List[bytes], width: Optional[int] = None
) -> object:
    """Copy ``obj`` with bulk int arrays moved into the blob table.

    Recurses through dicts and lists so coalesced ``jobs``/``results``
    frames extract every nested batch, each dict refreshing the width
    hint from its own ``modulus``; anything that does not match a blob
    shape rides in the JSON meta untouched (lossless either way).
    """
    if isinstance(obj, dict):
        width = _width_hint(obj) or width
        out: Dict[str, object] = {}
        for key, value in obj.items():
            if isinstance(value, PackedInts):
                # A forwarded blob (decoded on this hop, never computed
                # on): its original wire bytes ride again, zero-copy.
                out[key] = {_BIN_KEY: len(blobs)}
                blobs.append(value.to_wire())
                continue
            packed = None
            if key in _PAIR_KEYS:
                packed = _try_pack_pairs(value, width)
            elif key in _INT_KEYS:
                packed = _try_pack_values(value, width)
            if packed is not None:
                out[key] = {_BIN_KEY: len(blobs)}
                blobs.append(packed)
            elif isinstance(value, (dict, list)):
                out[key] = _extract_blobs(value, blobs, width)
            else:
                out[key] = value
        return out
    if isinstance(obj, list):
        out_list: List[object] = []
        for item in obj:
            if isinstance(item, PackedInts):
                out_list.append({_BIN_KEY: len(blobs)})
                blobs.append(item.to_wire())
            elif isinstance(item, (dict, list)):
                out_list.append(_extract_blobs(item, blobs, width))
            else:
                out_list.append(item)
        return out_list
    return obj


def _decode_blob(view: memoryview, offset: int) -> tuple:
    """One blob at ``offset``: ``(lazy PackedInts, next offset)``.

    Shape validation happens here, eagerly — truncation, an illegal
    width, an odd pair count or an unknown kind must raise on *decode*
    (the resynchronization contract), not later on some consumer's first
    materialization.
    """
    if offset + _V2_BLOB.size > len(view):
        raise ProtocolError("binary frame truncated inside a blob header")
    kind, width, count = _V2_BLOB.unpack_from(view, offset)
    offset += _V2_BLOB.size
    if width < 1:
        raise ProtocolError(f"binary blob has illegal width {width}")
    total = width * count
    if offset + total > len(view):
        raise ProtocolError(
            f"binary frame truncated inside a blob: {total} bytes declared, "
            f"{len(view) - offset} present"
        )
    if kind == _BLOB_PAIRS:
        if count % 2:
            raise ProtocolError("pair blob carries an odd int count")
    elif kind != _BLOB_INTS:
        raise ProtocolError(f"unknown binary blob kind {kind}")
    decoded = PackedInts(width, kind, bytes(view[offset : offset + total]))
    return decoded, offset + total


def _restore_blobs(obj: object, blobs: List[object]) -> object:
    """The inverse of :func:`_extract_blobs`: placeholders become lists."""
    if isinstance(obj, dict):
        if len(obj) == 1 and _BIN_KEY in obj:
            index = obj[_BIN_KEY]
            if not isinstance(index, int) or not 0 <= index < len(blobs):
                raise ProtocolError(
                    f"binary frame references blob {index!r} of {len(blobs)}"
                )
            return blobs[index]
        return {key: _restore_blobs(value, blobs) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_restore_blobs(item, blobs) for item in obj]
    return obj


def encode_frame_v2(message: Dict[str, object]) -> List[bytes]:
    """One message as its v2 buffers (header first), ready to writelines.

    The list form exists so :meth:`Connection.send` can hand the kernel
    every buffer in one ``writelines`` call without concatenating —
    ``b"".join(...)`` of the result is the exact frame byte string.
    """
    kind = message.get("type")
    code = _TYPE_CODES.get(kind)  # type: ignore[arg-type]
    if code is None:
        raise ProtocolError(
            f"unknown message type {kind!r}; expected one of "
            f"{sorted(MESSAGE_TYPES)}"
        )
    blobs: List[bytes] = []
    meta_obj = _extract_blobs(message, blobs)
    meta = json.dumps(meta_obj, separators=(",", ":")).encode("utf-8")
    length = 4 + len(meta) + sum(len(blob) for blob in blobs)
    if length > 0xFFFFFFFF:  # pragma: no cover - 4 GiB frame
        raise ProtocolError(f"frame of {length} bytes cannot be prefixed")
    header = _V2_HEADER.pack(_V2_MAGIC, 2, code, 0, length)
    return [header, len(meta).to_bytes(4, "little"), meta] + blobs


def decode_frame_v2(payload: bytes, code: Optional[int] = None) -> Dict[str, object]:
    """Parse one v2 frame *payload* (header already consumed and checked).

    ``code`` is the header's type code when the caller read one; the
    meta's ``"type"`` must agree, so a corrupted header cannot smuggle a
    frame past type-based dispatch.  Decoding slices one ``memoryview``
    over the payload — blob integers never transit a Python string.
    """
    view = memoryview(payload)
    if len(view) < 4:
        raise ProtocolError("binary frame too short for its meta length")
    meta_len = int.from_bytes(view[:4], "little")
    if 4 + meta_len > len(view):
        raise ProtocolError(
            f"binary frame truncated: meta of {meta_len} bytes declared, "
            f"{len(view) - 4} present"
        )
    try:
        meta = json.loads(bytes(view[4 : 4 + meta_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"binary frame meta is not valid JSON: {error}") from error
    if not isinstance(meta, dict):
        raise ProtocolError(
            f"binary frame meta must be a JSON object, got {type(meta).__name__}"
        )
    kind = meta.get("type")
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unknown message type {kind!r}; expected one of "
            f"{sorted(MESSAGE_TYPES)}"
        )
    if code is not None and _TYPE_CODES[kind] != code:
        raise ProtocolError(
            f"binary frame header says type {code}, meta says {kind!r}"
        )
    blobs: List[object] = []
    offset = 4 + meta_len
    while offset < len(view):
        decoded, offset = _decode_blob(view, offset)
        blobs.append(decoded)
    return _restore_blobs(meta, blobs)  # type: ignore[return-value]


async def _discard(reader: asyncio.StreamReader, length: int) -> None:
    """Consume an oversized payload without buffering it whole."""
    remaining = length
    while remaining > 0:
        try:
            chunk = await reader.read(min(remaining, 1 << 16))
        except ConnectionError:  # pragma: no cover - peer died mid-skip
            return
        if not chunk:
            return
        remaining -= len(chunk)


class Connection:
    """One framed, message-oriented connection over asyncio streams.

    Wraps a ``(StreamReader, StreamWriter)`` pair with a send lock (any
    number of tasks may :meth:`send` concurrently) and the
    resynchronizing receive path: when a frame is malformed,
    :meth:`receive` consumes exactly that frame's bytes before raising,
    so the caller can answer with an error frame and call
    :meth:`receive` again.

    The resynchronization contract, leg by leg (each is a regression
    test in ``tests/cluster/test_protocol_v2.py``):

    * **bad magic** — the stream is not at one of our frames; exactly
      the header's bytes are consumed, then :class:`ProtocolError`.  A
      peer writing aligned garbage of header size keeps the connection
      serving; true mid-stream corruption is unrecoverable framing loss
      either way.
    * **unknown version** — magic is ours, so the length field is
      trusted: the whole payload is consumed, then the error.
    * **oversized length** — the payload is discarded in bounded chunks
      (never buffered whole), then the error.
    * **internally truncated payload** (meta or blob runs past the
      declared length) — the payload was fully read; the error.
    * **EOF mid-frame** — a closed connection, not a protocol error:
      ``None``.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.max_frame_bytes = max_frame_bytes
        self._send_lock = asyncio.Lock()

    @property
    def peer(self) -> str:
        """The remote address, for log lines and metrics labels."""
        info = self.writer.get_extra_info("peername")
        if isinstance(info, (tuple, list)) and len(info) >= 2:
            return f"{info[0]}:{info[1]}"
        return str(info)

    async def send(self, message: Dict[str, object]) -> None:
        """Write one frame (serialized under the connection's lock)."""
        buffers = encode_frame_v2(message)
        async with self._send_lock:
            self.writer.writelines(buffers)
            await self.writer.drain()

    async def send_encoded(self, buffers: List[bytes]) -> None:
        """Write pre-encoded frame buffers in one locked writelines call.

        The :class:`CoalescingSender` encodes a whole flush window's
        frames first, then lands them with a single syscall here.
        """
        async with self._send_lock:
            self.writer.writelines(buffers)
            await self.writer.drain()

    async def receive(self) -> Optional[Dict[str, object]]:
        """Read one message; ``None`` on EOF.

        Malformed frames are *skipped* — their bytes are consumed so the
        stream stays aligned on the next frame boundary — then reported
        as :class:`ProtocolError` (see the class contract).  A truncated
        frame (EOF mid-payload) is a closed connection, not a protocol
        error: the peer died, there is nobody to answer.
        """
        reader = self.reader
        try:
            header = await reader.readexactly(_V2_HEADER_BYTES)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        magic, version, code, _flags, length = _V2_HEADER.unpack(header)
        if magic != _V2_MAGIC:
            raise ProtocolError(
                f"bad frame magic {magic!r} (expected {_V2_MAGIC!r})"
            )
        if version != 2:
            await _discard(reader, length)
            raise ProtocolError(
                f"unknown wire version {version} (this build speaks 2)"
            )
        if length > self.max_frame_bytes:
            await _discard(reader, length)
            raise ProtocolError(
                f"frame of {length} bytes exceeds the "
                f"{self.max_frame_bytes}-byte limit"
            )
        try:
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        if code not in _TYPE_NAMES:
            raise ProtocolError(f"unknown binary message type code {code}")
        return decode_frame_v2(payload, code)

    async def close(self) -> None:
        """Close the underlying transport (idempotent, best-effort)."""
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - already dead
            pass

    def __repr__(self) -> str:
        return f"Connection(peer={self.peer!r})"


#: Message types a :class:`CoalescingSender` may bundle, mapped to the
#: plural frame type that carries a bundle (and the list key inside it).
_COALESCIBLE = {"job": "jobs", "result": "results"}


class CoalescingSender:
    """Pipelined, adaptively coalescing outbound path of one connection.

    :meth:`enqueue` is synchronous and never blocks: messages land in an
    outbox and a single flusher task drains it.  The coalescing is
    *adaptive* because the flusher is self-clocking — while one
    ``writelines``/``drain`` is in flight on the socket, every message
    enqueued behind it accumulates, and the next flush bundles all
    consecutive ``job`` (or ``result``) messages into one ``jobs`` /
    ``results`` frame.  An idle connection therefore flushes a lone
    message immediately (no added latency); a busy one amortizes header,
    syscall and event-loop costs across ever larger bundles exactly when
    that amortization pays.

    A send failure marks the sender broken, drops the outbox and awaits
    ``on_error`` once — the router hangs node-loss handling (orphan
    re-dispatch) off that hook, so messages lost with the socket are
    re-placed via the existing retry machinery, not silently dropped.
    """

    def __init__(
        self,
        connection: Connection,
        max_coalesce: int = 128,
        on_error: Optional[Callable[[Exception], "asyncio.Future"]] = None,
        stats: Optional[Dict[str, int]] = None,
    ) -> None:
        self.connection = connection
        #: Longest bundle one plural frame may carry (keeps a pathological
        #: backlog from assembling a frame past the peer's size limit).
        self.max_coalesce = max_coalesce
        self._on_error = on_error
        self._outbox: List[Dict[str, object]] = []
        self._task: Optional[asyncio.Task] = None
        self._broken = False
        #: Shared counters (``messages``/``frames``/``coalesced_frames``)
        #: the owner may aggregate across senders.
        self.stats = stats if stats is not None else {
            "messages": 0,
            "frames": 0,
            "coalesced_frames": 0,
        }

    @property
    def broken(self) -> bool:
        """True once a send failed; further enqueues are dropped."""
        return self._broken

    def enqueue(self, message: Dict[str, object]) -> None:
        """Queue one message and make sure a flusher is running."""
        if self._broken:
            return
        self._outbox.append(message)
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._flush())

    def _encode_window(
        self, window: List[Dict[str, object]]
    ) -> List[bytes]:
        """Encode one flush window, bundling runs of coalescible types."""
        buffers: List[bytes] = []

        def emit(run: List[Dict[str, object]]) -> None:
            plural = _COALESCIBLE.get(str(run[0].get("type")))
            if len(run) > 1 and plural is not None:
                bundle = {"type": plural, plural: run}
                frame = encode_frame_v2(bundle)
                if sum(len(b) for b in frame) <= self.connection.max_frame_bytes:
                    buffers.extend(frame)
                    self.stats["frames"] += 1
                    self.stats["coalesced_frames"] += 1
                    return
                # A bundle past the frame limit falls back to one frame
                # per message (each fits on its own).
            for message in run:
                buffers.extend(encode_frame_v2(message))
                self.stats["frames"] += 1

        run: List[Dict[str, object]] = []
        for message in window:
            kind = str(message.get("type"))
            if (
                run
                and (
                    kind != run[0].get("type")
                    or kind not in _COALESCIBLE
                    or len(run) >= self.max_coalesce
                )
            ):
                emit(run)
                run = []
            run.append(message)
        if run:
            emit(run)
        self.stats["messages"] += len(window)
        return buffers

    async def _flush(self) -> None:
        try:
            while self._outbox and not self._broken:
                window = self._outbox
                self._outbox = []
                buffers = self._encode_window(window)
                await self.connection.send_encoded(buffers)
        except (ConnectionError, OSError) as error:
            self._broken = True
            self._outbox.clear()
            if self._on_error is not None:
                await self._on_error(error)

    async def drain(self) -> None:
        """Wait until every queued message has hit the socket (or died)."""
        while self._task is not None and not self._task.done():
            await asyncio.shield(asyncio.gather(self._task, return_exceptions=True))

    def close(self) -> None:
        """Cancel the flusher; anything still queued is dropped."""
        self._broken = True
        self._outbox.clear()
        task = self._task
        # Never cancel the running flusher from inside its own on_error
        # hook (the router's node-loss path calls close() from there):
        # the cancellation would abort the hook's re-dispatch work.
        if (
            task is not None
            and not task.done()
            and task is not asyncio.current_task()
        ):
            task.cancel()

    def __repr__(self) -> str:
        return (
            f"CoalescingSender(queued={len(self._outbox)}, "
            f"broken={self._broken})"
        )
