"""ModSRAM reproduction library.

A Python reproduction of "ModSRAM: Algorithm-Hardware Co-Design for Large
Number Modular Multiplication in SRAM" (DAC 2024): the R4CSA-LUT algorithm
family, analytical, cycle-level and RTL models of the ModSRAM 8T-SRAM PIM
accelerator, the prior-work PIM baselines it is compared against, and the
ECC / ZKP application substrates that motivate it.

Quickstart
----------
The unified :class:`~repro.engine.Engine` facade is the entry point: pick a
backend and a curve, and every layer — single multiplications, batches,
fields, curves, NTTs — shares one cached per-modulus context.

>>> from repro import Engine
>>> engine = Engine(backend="r4csa-lut", curve="bn254")
>>> int(engine.multiply(12345, 67890)) == (12345 * 67890) % engine.default_modulus
True
>>> batch = engine.multiply_batch([(3, 5), (7, 5)])    # one context, N products
>>> batch.values
(15, 35)
>>> batch.stats.precomputations                        # LUTs built once, reused
1

``engine.field()`` / ``engine.curve()`` / ``engine.ntt(size)`` return
engine-backed ECC and ZKP substrates; ``Engine(backend="modsram")`` routes
the same calls through the cycle-accurate hardware model, and
``available_backends()`` lists every option: one backend per registered
multiplier.  The low-level multiplier classes below remain available for
direct use.

Fidelity tiers and the chip backend
-----------------------------------
The hardware model is a *layered simulation core* (:mod:`repro.modsram`):
the R4CSA-LUT algorithm at three fidelity tiers, all returning
bit-identical products and cycle reports —

* ``Engine(backend="modsram")`` — **cycle** tier: word-line-accurate SRAM
  simulation, one kernel step per clock cycle (767 main-loop cycles at
  256 bits on the paper schedule);
* ``Engine(backend="modsram-fast")`` — **analytical** tier: the same
  recurrence as one word-level loop, with the same exact cycle reports
  from closed-form schedule algebra, about 30x faster than the cycle tier
  (~0.2 ms versus ~5 ms per 256-bit multiply on a 2-vCPU VM).  This is
  the tier for full workloads: ECDSA signing, NTTs, MSM batches;
* ``Engine(backend="modsram-hdl")`` — **hdl** tier: the elaborated macro
  RTL on an event-driven simulator, cycle counts measured from the
  netlist (:mod:`repro.hdl`).

``Engine(backend="modsram-chip")`` scales out to an N-macro chip whose
scheduler dispatches the multiplication stream with LUT-reuse-aware
placement (``MultiplierBackend("modsram-chip", macros=16)`` for custom
sizes); the ``chip-scaling`` experiment and ``repro chip`` sweep
throughput versus macro count on real workload streams.  Backend capability metadata
(``info.fidelity`` / ``info.macros``) distinguishes the tiers in
``repro backends --json``.

Reproducing the paper
---------------------
Every table and figure is a registered *experiment* — declarative,
parameterisable and sweepable, run in-process on every call
(:mod:`repro.experiments`)::

    from repro.experiments import get_experiment

    result = get_experiment("headline").execute(quick=True)
    print(result.render())                                # claims scorecard

The same API drives the shell: ``repro experiment list`` names every
experiment, ``repro experiment run table3 --json`` emits the structured
result, ``repro experiment sweep design-point --axis bitwidth=64,128,256``
runs a grid, and ``repro report`` composes the full consolidated report
(``python -m repro`` is equivalent to the ``repro`` console script).

Workload graphs and the serving layer
-------------------------------------
Requests are DAGs, not flat streams: :mod:`repro.workloads` builds a
dependency-aware :class:`~repro.workloads.WorkloadGraph` of modular
multiplications for every workload the paper motivates (point operations,
scalar multiplication, ECDSA signing, NTT stages, bucket MSM, product
trees), and the graph-aware chip scheduler
(:meth:`~repro.modsram.ChipScheduler.schedule_graph`) dispatches its ready
fronts across macros honoring dependencies and LUT residency — ~4x lower
makespan than the flat-stream path on a 2^10-point NTT at 4 macros, with
bit-identical products.  :mod:`repro.service` serves those graphs online::

    import asyncio
    from repro.service import Client, Server
    from repro.workloads import product_tree_graph

    async def main():
        async with Server(backend="r4csa-lut", curve="bn254") as server:
            client = Client(server, tenant="alice")
            response = await client.submit_graph(product_tree_graph(range(2, 18)))

    asyncio.run(main())

Serving scales past the GIL: ``Server(..., workers=N)`` (or ``repro
serve --workers N``) shards batch execution across N engine-owning
worker processes with stable modulus→shard hashing, per-shard warm
context caches, and crash retry — bit-identical products, more cores
(:mod:`repro.service.pool`).  The ``serving-throughput`` experiment
(``repro serve``) drives the verified multi-tenant traffic mix and
measures the layer; ``repro submit`` sends one request from the shell.
The ``docs/`` mkdocs site carries the full architecture guide, the
serving/sharding how-to and generated CLI/API references.

The cycle-accurate hardware model lives in :mod:`repro.modsram`; the
per-exhibit reproduction modules live in :mod:`repro.analysis`.
"""

from repro.core import (
    BarrettMultiplier,
    CsaInterleavedMultiplier,
    InterleavedMultiplier,
    ModularMultiplier,
    MontgomeryMultiplier,
    R4CSALutContext,
    R4CSALutMultiplier,
    Radix4InterleavedMultiplier,
    SchoolbookMultiplier,
    available_multipliers,
    get_multiplier,
)
from repro.engine import (
    BackendInfo,
    BatchResult,
    Engine,
    MultiplyResult,
    available_backends,
    get_backend,
)
from repro.errors import ReproError

__version__ = "1.10.0"

__all__ = [
    "BackendInfo",
    "BarrettMultiplier",
    "BatchResult",
    "CsaInterleavedMultiplier",
    "Engine",
    "InterleavedMultiplier",
    "ModularMultiplier",
    "MontgomeryMultiplier",
    "MultiplyResult",
    "R4CSALutContext",
    "R4CSALutMultiplier",
    "Radix4InterleavedMultiplier",
    "ReproError",
    "SchoolbookMultiplier",
    "available_backends",
    "available_multipliers",
    "get_backend",
    "get_multiplier",
    "__version__",
]
