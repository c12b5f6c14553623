"""Workload Graph API: declarative, dependency-aware multiplication jobs.

A :class:`WorkloadGraph` represents one request — an ECDSA signature, an
NTT, a bucket MSM, a batch inversion — as a DAG of modular-multiplication
nodes.  Each node names the multiplicand whose radix-4 LUT it needs (the
LUT-reuse group of :mod:`repro.modsram.chip`), carries op metadata
(tag, field, priority) and lists the nodes it depends on, so schedulers
and the serving layer can exploit *intra-request* parallelism the flat
multiplication streams cannot express::

    from repro.workloads import ntt_graph

    graph = ntt_graph(1024)
    graph.depth            # 10 topological levels (the NTT stages)
    graph.width            # 512 independent butterflies per level

:mod:`repro.workloads.builders` describes each ECC / ZKP workload once
and derives two views from that description: the lazy ``*_jobs``
functions, which yield the flat job stream in O(1) memory without
building a graph (what the ``chip-scaling`` experiment and the DSE
schedule), and the ``ecdsa_sign_graph`` / ``ntt_graph`` builders.
Operand-carrying graphs are executed level-batched through the Engine by
:func:`repro.workloads.execute.execute_graph` or on a multi-macro chip by
:meth:`repro.modsram.chip.Chip.run_graph`.
"""

from repro.workloads.builders import (
    ecdsa_sign_graph,
    ecdsa_sign_jobs,
    msm_jobs,
    ntt_graph,
    ntt_jobs,
    product_tree_graph,
    scalar_multiplication_jobs,
)
from repro.workloads.execute import GraphExecution, execute_graph
from repro.workloads.graph import MulNode, Ref, WorkloadGraph

__all__ = [
    "GraphExecution",
    "MulNode",
    "Ref",
    "WorkloadGraph",
    "ecdsa_sign_graph",
    "ecdsa_sign_jobs",
    "execute_graph",
    "msm_jobs",
    "ntt_graph",
    "ntt_jobs",
    "product_tree_graph",
    "scalar_multiplication_jobs",
]
