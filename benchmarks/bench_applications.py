"""Application-level benchmarks: ECC point-operation scheduling and ECDSA.

Beyond the paper's own exhibits, these measure the workloads the paper
motivates ModSRAM with (point operations, digital signatures) running on
the library.
"""

from __future__ import annotations

from repro.ecc import Ecdsa, get_curve
from repro.modsram import PAPER_CONFIG, PointOperationScheduler


def test_point_operation_scheduling(benchmark):
    """Scheduling a mixed addition + doubling onto the macro's rows."""
    scheduler = PointOperationScheduler(PAPER_CONFIG)

    def run():
        return scheduler.schedule_mixed_addition(), scheduler.schedule_doubling()

    addition, doubling = benchmark(run)
    assert addition.multiplication_count == 11
    assert doubling.multiplication_count == 8
    assert addition.operand_rows_used <= PAPER_CONFIG.operand_capacity
    assert addition.iteration_cycles == 11 * 767
    print()
    print("mixed addition :", addition.as_dict())
    print("doubling       :", doubling.as_dict())


def test_ecdsa_sign_verify(benchmark):
    """A complete ECDSA sign + verify over secp256k1 (software backend)."""
    ecdsa = Ecdsa(get_curve("secp256k1"))
    keypair = ecdsa.generate_keypair(0xA11CE)
    message = b"modsram benchmark message"

    def run():
        signature = ecdsa.sign(keypair.private_key, message)
        return ecdsa.verify(keypair.public_key, message, signature)

    assert benchmark.pedantic(run, rounds=3, iterations=1)

