"""SRAM bit-cell models.

ModSRAM uses a standard 8T cell — a 6T storage core plus a decoupled
two-transistor read port — because the logic-SA scheme activates *three*
read word lines at once and a shared-port 6T cell would suffer read disturb
under multi-row activation (§4.2 of the paper).  The cell classes here carry
the structural facts the rest of the model needs: transistor count, port
structure, and how many rows may be activated together without corrupting
data.  The cell's layout area is a parameter of the area model
(:class:`repro.modsram.area.AreaParameters`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["SramCell", "SixTransistorCell", "EightTransistorCell"]


@dataclass(frozen=True)
class SramCell:
    """Structural description of one SRAM bit cell.

    Attributes
    ----------
    name:
        Short identifier (``"6T"`` or ``"8T"``).
    transistor_count:
        Transistors per cell.
    read_ports / write_ports:
        Number of dedicated ports of each kind.
    shared_read_write_port:
        ``True`` when reads and writes go through the same access
        transistors (the classic 6T cell), which is what makes multi-row
        activation disturb-prone.
    max_simultaneous_reads:
        How many rows sharing a bitline may be activated for a read without
        risking data corruption.
    """

    name: str
    transistor_count: int
    read_ports: int
    write_ports: int
    shared_read_write_port: bool
    max_simultaneous_reads: int

    def disturb_risk(self, activated_rows: int) -> bool:
        """Whether activating ``activated_rows`` rows risks read disturb."""
        if activated_rows < 1:
            raise ConfigurationError(
                f"activated_rows must be at least 1, got {activated_rows}"
            )
        return activated_rows > self.max_simultaneous_reads


#: The classic single-port cell: compact, but reads and writes share the
#: access transistors, so activating more than one row on a read risks
#: flipping the weaker cell.  Used by MeNTT and BP-NTT.
SixTransistorCell = SramCell(
    name="6T",
    transistor_count=6,
    read_ports=1,
    write_ports=1,
    shared_read_write_port=True,
    max_simultaneous_reads=1,
)

#: ModSRAM's cell: a 6T storage core plus a decoupled read buffer, giving a
#: separate read port so three rows can be sensed at once for XOR3/MAJ
#: without disturbing the stored data.
EightTransistorCell = SramCell(
    name="8T",
    transistor_count=8,
    read_ports=1,
    write_ports=1,
    shared_read_write_port=False,
    max_simultaneous_reads=3,
)
