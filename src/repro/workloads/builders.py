"""The ECC / ZKP workloads the paper motivates, each described once.

Scalar multiplication, ECDSA signing, the NTT and the bucket-method MSM
are each one private generator of *records*.  A record is either one
point operation (a Jacobian doubling or mixed addition of
:mod:`repro.modsram.scheduler`, its multiplicands scoped to the operation
instance, plus the exit nodes of the operations it chains off) or one
single multiplication (an NTT butterfly, an inversion step) with its
dependencies.  Two views read the same records:

* ``*_jobs()`` lazily yields the flat :class:`MultiplicationJob` stream
  without building a graph, so a ``2^16``-point NTT schedules in O(1)
  memory;
* ``ecdsa_sign_graph()`` and ``ntt_graph()`` build the dependency-aware
  :class:`WorkloadGraph` (nodes in the same order), expanding each point
  operation through a dependency template computed once per sequence.

The dependency model follows the point-operation formulas: within an
operation, a multiplication depends on the in-operation nodes producing
its operands (including derived values like ``h = u2 - x1``, whose
addition/subtraction chains are folded into the edges); across
operations, the nodes consuming the running point depend on the previous
operation's exit nodes.  That is conservative — it never
under-synchronises — yet still exposes the intra-request parallelism that
matters: independent multiplications inside one doubling, the ECDSA nonce
inversion running concurrently with ``k·G``, whole NTT stages of
independent butterflies, and MSM bucket chains that only meet at the
window reduction.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import OperandRangeError
from repro.modsram.chip import MultiplicationJob
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE
from repro.workloads.graph import Operand, Ref, WorkloadGraph

__all__ = [
    "scalar_multiplication_jobs",
    "ecdsa_sign_graph",
    "ecdsa_sign_jobs",
    "ntt_graph",
    "ntt_jobs",
    "msm_jobs",
    "product_tree_graph",
]

#: Operand names that are constants or affine base-point inputs: consuming
#: them creates no cross-operation dependency.  Any other operand the
#: operation does not produce itself is running-point state (``x1``,
#: ``y1``, ``z1``), so its consumer inherits the entry dependencies.
_CONSTANT_INPUTS = frozenset({"x2", "y2", "three", "modulus"})

#: Derived (addition/subtraction) values of each point formula, mapped to
#: the multiplication products they are computed from.  Doubling:
#: ``m = 3·xx`` and ``x3 = mm - 2s`` (so ``s_minus_x3`` needs both ``mm``
#: and ``s``).  Mixed addition: ``h = u2 - x1``, ``r = s2 - y1`` and
#: ``x3 = rr - hhh - 2v`` (behind ``v_minus_x3``).
_DERIVED: Mapping[Tuple[Tuple[str, ...], ...], Mapping[str, Tuple[str, ...]]] = {
    DOUBLING_SEQUENCE: {"m": ("xx",), "s_minus_x3": ("mm", "s")},
    MIXED_ADDITION_SEQUENCE: {
        "h": ("u2",),
        "r": ("s2",),
        "v_minus_x3": ("v", "rr", "hhh"),
    },
}


class _Template(NamedTuple):
    """One point operation's dependencies, relative to its first node."""

    #: Per multiplication: the ``.multiplicand`` suffix of its key, the
    #: offsets of the in-operation nodes it depends on, and whether it
    #: inherits the operation's entry dependencies.
    nodes: Tuple[Tuple[str, Tuple[int, ...], bool], ...]
    #: Offsets of the nodes no later node of the operation depends on;
    #: the next operation on the running point chains off them.
    exits: Tuple[int, ...]

    def after(self, start: int) -> Tuple[int, Tuple[int, ...]]:
        """The index after an instance whose first node is ``start``, and
        that instance's exit nodes."""
        return (
            start + len(self.nodes),
            tuple(start + offset for offset in self.exits),
        )


def _template(sequence: Sequence[Tuple[str, str, str]]) -> _Template:
    """Each multiplication's in-operation producers (through the derived
    values of known formulas) and the operation's exit nodes."""
    derived = _DERIVED.get(tuple(map(tuple, sequence)), {})
    producer: Dict[str, int] = {}
    nodes: List[Tuple[str, Tuple[int, ...], bool]] = []
    used: set = set()
    for offset, (product, multiplier, multiplicand) in enumerate(sequence):
        inner: set = set()
        inherits = False
        for operand in (multiplier, multiplicand):
            if operand in producer:
                inner.add(producer[operand])
                continue
            sources = {
                producer[source]
                for source in derived.get(operand, ())
                if source in producer
            }
            if sources:
                inner |= sources
            elif operand not in _CONSTANT_INPUTS:
                inherits = True
        used |= inner
        producer[product] = offset
        nodes.append((f".{multiplicand}", tuple(sorted(inner)), inherits))
    exits = tuple(offset for offset in range(len(nodes)) if offset not in used)
    return _Template(tuple(nodes), exits)


_DOUBLING = _template(DOUBLING_SEQUENCE)
_MIXED_ADDITION = _template(MIXED_ADDITION_SEQUENCE)


#: One step of a workload generator, ``(key, tag, deps, template)``.  With
#: a template the record is one point operation: it expands into the
#: template's multiplications, keyed ``key`` + suffix, and ``deps`` are its
#: entry dependencies.  Without one (``None``) it is a single
#: multiplication keyed ``key`` that depends on ``deps``.  Dependencies are
#: node indices, which each generator counts as it yields.  Records are
#: plain tuples: building a NamedTuple instead adds ~0.35 µs per job to
#: the jobs view (2-vCPU VM, Python 3.11).
_Record = Tuple[str, str, Tuple[int, ...], Optional[_Template]]


def _jobs(records: Iterable[_Record]) -> Iterator[MultiplicationJob]:
    """The flat view: every record's multiplications in order, no edges."""
    for key, tag, _, template in records:
        if template is None:
            yield MultiplicationJob(key, tag)
        else:
            for suffix, _, _ in template.nodes:
                yield MultiplicationJob(key + suffix, tag)


def _graph(
    name: str, records: Iterable[_Record], field_name: str
) -> WorkloadGraph:
    """The dependency view: every record's nodes with their edges."""
    graph = WorkloadGraph(name=name)
    for key, tag, deps, template in records:
        if template is None:
            graph.add(key, deps=deps, tag=tag, field_name=field_name)
            continue
        start = len(graph)
        for suffix, inner, inherits in template.nodes:
            graph.add(
                key + suffix,
                deps=(deps if inherits else ())
                + tuple(start + offset for offset in inner),
                tag=tag,
                field_name=field_name,
            )
    return graph


def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise OperandRangeError(f"{name} must be positive, got {value}")


def _ladder_steps(
    scalar_bits: int, additions: int
) -> Iterator[Tuple[_Template, str]]:
    """A double-and-add ladder's point operations, in order.

    ``scalar_bits`` doublings with a mixed addition after every second
    doubling until ``additions`` are placed, stragglers at the end.
    """
    emitted = 0
    for step in range(scalar_bits):
        yield _DOUBLING, f"dbl[{step}]"
        if emitted < additions and step % 2 == 1:
            yield _MIXED_ADDITION, f"add[{emitted}]"
            emitted += 1
    for straggler in range(emitted, additions):
        yield _MIXED_ADDITION, f"add[{straggler}]"


def _ladder(
    scalar_bits: int, additions: int = -1, scope: str = "", start: int = 0
) -> Iterator[_Record]:
    """A double-and-add ladder whose first node is ``start``.

    ``additions`` defaults to half the bit length, the expected Hamming
    weight of a random scalar.  Returns the index after its last node and
    the final operation's exits.
    """
    _require_positive("scalar_bits", scalar_bits)
    if additions < 0:
        additions = scalar_bits // 2
    index, exits = start, ()
    for template, name in _ladder_steps(scalar_bits, additions):
        yield scope + name, name, exits, template
        index, exits = template.after(index)
    return index, exits


def _ecdsa_sign(scalar_bits: int, signatures: int) -> Iterator[_Record]:
    _require_positive("signatures", signatures)
    index = 0
    for signature in range(signatures):
        prefix = f"sig[{signature}]"
        index, ladder_exits = yield from _ladder(
            scalar_bits, scope=f"{prefix}.", start=index
        )
        # Fermat inversion of the nonce: a serial square-and-multiply chain
        # over the scalar field, independent of the ladder above.  Every
        # squaring squares a fresh value; the multiplies all reuse k.
        chain: Tuple[int, ...] = ()
        for step in range(scalar_bits):
            yield f"{prefix}.inv.sq[{step}]", "inversion", chain, None
            chain, index = (index,), index + 1
            if step % 2 == 1:
                yield f"{prefix}.inv.k", "inversion", chain, None
                chain, index = (index,), index + 1
        # r·d needs r (the ladder's x-coordinate); k⁻¹·(z + r·d) joins the
        # inversion chain with it.
        yield f"{prefix}.d", "s-computation", ladder_exits, None
        yield f"{prefix}.kinv", "s-computation", (index,) + chain, None
        index += 2


def _ntt(size: int, tag: str) -> Iterator[_Record]:
    if size < 2 or size & (size - 1):
        raise OperandRangeError(
            f"NTT size must be a power of two >= 2, got {size}"
        )
    half = size // 2
    # Stage 0 has one twiddle and reads only inputs: no dependencies.
    key, stage_tag = f"{tag}.w[0][0]", f"{tag}:s0"
    for _ in range(half):
        yield key, stage_tag, (), None
    for stage in range(1, size.bit_length() - 1):
        twiddles = 1 << stage
        group = half >> stage  # butterflies sharing one twiddle
        stage_tag = f"{tag}:s{stage}"
        # Node (stage, twiddle, block) is stage·half + twiddle·group +
        # block.  Block b reads the two positions that blocks 2b and
        # 2b + 1 of twiddle (twiddle mod twiddles/2) wrote one stage
        # earlier, where groups were twice as long.
        for twiddle in range(twiddles):
            key = f"{tag}.w[{stage}][{twiddle}]"
            first = (stage - 1) * half + (twiddle % (twiddles >> 1)) * 2 * group
            for dep in range(first, first + 2 * group, 2):
                yield key, stage_tag, (dep, dep + 1), None


def _msm(
    points: int, window_bits: int, scalar_bits: int, tag: str
) -> Iterator[_Record]:
    from repro.zkp.msm import default_window_bits

    _require_positive("points", points)
    _require_positive("scalar_bits", scalar_bits)
    c = window_bits or default_window_bits(points)
    _require_positive("window size", c)
    windows = -(-scalar_bits // c)
    buckets = (1 << c) - 1
    index = 0
    reduce_tail: List[Tuple[int, ...]] = []
    for window in range(windows):
        bucket_tail: List[Tuple[int, ...]] = [()] * buckets
        for point in range(points):
            bucket = point % buckets  # deterministic stand-in assignment
            scope = f"{tag}.w{window}.bucket[{point}]"
            yield scope, scope, bucket_tail[bucket], _MIXED_ADDITION
            index, bucket_tail[bucket] = _MIXED_ADDITION.after(index)
        # Running-sum reduction: two Jacobian additions per bucket slot,
        # walking the buckets from the top down.  The mixed sequence is the
        # conservative stand-in for a full Jacobian-Jacobian addition.
        exits: Tuple[int, ...] = ()
        for slot in range(2 * buckets):
            bucket = buckets - 1 - slot // 2
            scope = f"{tag}.w{window}.reduce[{slot}]"
            yield scope, scope, exits + bucket_tail[bucket], _MIXED_ADDITION
            index, exits = _MIXED_ADDITION.after(index)
        reduce_tail.append(exits)
    carry: Tuple[int, ...] = ()
    for window in range(windows):
        for doubling in range(c):
            scope = f"{tag}.horner[{window}][{doubling}]"
            yield scope, scope, carry, _DOUBLING
            index, carry = _DOUBLING.after(index)
        scope = f"{tag}.horner-add[{window}]"
        yield scope, scope, carry + reduce_tail[window], _MIXED_ADDITION
        index, carry = _MIXED_ADDITION.after(index)


def scalar_multiplication_jobs(
    scalar_bits: int = 256, additions: int = -1
) -> Iterator[MultiplicationJob]:
    """Double-and-add scalar multiplication as a lazy job stream.

    ``scalar_bits`` doublings interleaved with ``additions`` mixed
    additions (default: half the bit length).
    """
    return _jobs(_ladder(scalar_bits, additions))


def ecdsa_sign_graph(
    scalar_bits: int = 256,
    signatures: int = 1,
    field_name: str = "",
) -> WorkloadGraph:
    """One or more full ECDSA signing operations as a dependency graph.

    Each signature is one ``k·G`` ladder, a Fermat inversion of the nonce
    (a sequential square-and-multiply chain — but *independent* of the
    ladder, so the two run concurrently on a graph-aware chip) and the two
    scalar-field products forming ``s``, which join both strands.
    Signatures are mutually independent, so batched signing is
    embarrassingly wide.
    """
    return _graph(
        f"ecdsa-sign[{signatures}x{scalar_bits}]",
        _ecdsa_sign(scalar_bits, signatures),
        field_name,
    )


def ecdsa_sign_jobs(
    scalar_bits: int = 256, signatures: int = 1
) -> Iterator[MultiplicationJob]:
    """One or more ECDSA signing operations as a lazy job stream.

    Per signature: the ``k·G`` ladder, ``scalar_bits`` squarings plus half
    as many multiplies inverting the nonce, and the two products forming
    ``s``, in the order of :func:`ecdsa_sign_graph`.
    """
    return _jobs(_ecdsa_sign(scalar_bits, signatures))


def ntt_graph(size: int, tag: str = "ntt", field_name: str = "") -> WorkloadGraph:
    """A ``size``-point iterative NTT as a dependency graph.

    ``log2(size)`` stages of ``size / 2`` butterflies; the butterfly
    multiplication at stage ``s`` depends on the two stage ``s-1``
    butterflies that last wrote its input positions, so every stage is one
    topological level of mutually independent multiplications (width
    ``size / 2``).  Emission stays twiddle-major within a stage — the
    ordering under which the paper's LUT-reuse argument applies.
    """
    return _graph(f"{tag}[{size}]", _ntt(size, tag), field_name)


def ntt_jobs(size: int, tag: str = "ntt") -> Iterator[MultiplicationJob]:
    """A ``size``-point iterative NTT as a lazy job stream.

    Stage ``s`` uses ``2**s`` distinct twiddle factors, and the butterflies
    of one twiddle are consecutive (twiddle-major order), so a macro
    holding that twiddle's radix-4 LUT serves the whole group without a
    refill.  Memory stays O(1) at any size.
    """
    return _jobs(_ntt(size, tag))


def msm_jobs(
    points: int,
    window_bits: int = 0,
    scalar_bits: int = 256,
    tag: str = "msm",
) -> Iterator[MultiplicationJob]:
    """A ``points``-element bucket-method MSM as a lazy job stream.

    For each of the ``ceil(scalar_bits / c)`` windows (``c`` defaults to
    :func:`repro.zkp.msm.default_window_bits`), one mixed addition per
    point and two per bucket, then ``c`` doublings and one addition per
    window.  It mirrors :func:`repro.zkp.msm.msm_pippenger` structurally.
    """
    return _jobs(_msm(points, window_bits, scalar_bits, tag))


def product_tree_graph(
    values: Iterable[int],
    tag: str = "product-tree",
    field_name: str = "",
) -> WorkloadGraph:
    """A balanced product tree over concrete values — an *executable* graph.

    The kernel behind Montgomery batch inversion: ``n`` leaves reduce
    pairwise over ``ceil(log2 n)`` levels to one running product.  Every
    node carries operands (leaf constants or :class:`Ref` s to earlier
    products), so the graph evaluates through
    :func:`repro.workloads.execute.execute_graph` or
    :meth:`repro.modsram.chip.Chip.run_graph` with bit-identical products,
    while its depth-limited shape (width ``n/2``, depth ``log2 n``) is the
    canonical scheduling win over a serial flat stream.
    """
    leaves: List[Operand] = [int(value) for value in values]
    if len(leaves) < 2:
        raise OperandRangeError(
            f"product tree needs at least two values, got {len(leaves)}"
        )
    graph = WorkloadGraph(name=f"{tag}[{len(leaves)}]")
    current = leaves
    level = 0
    while len(current) > 1:
        reduced: List[Operand] = []
        level_tag = f"{tag}:l{level}"
        for pair in range(len(current) // 2):
            left, right = current[2 * pair], current[2 * pair + 1]
            index = graph.add(
                multiplicand=f"{tag}.n[{level}][{pair}]",
                tag=level_tag,
                field_name=field_name,
                a=left,
                b=right,
            )
            reduced.append(Ref(index))
        if len(current) % 2:
            reduced.append(current[-1])
        current = reduced
        level += 1
    return graph
