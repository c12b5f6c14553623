"""Operation counting shared by all subsystems."""

from repro.instrumentation.counters import OperationCounter

__all__ = ["OperationCounter"]
