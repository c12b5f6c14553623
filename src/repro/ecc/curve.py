"""Short-Weierstrass elliptic curves and point arithmetic.

The paper positions ModSRAM as the modular-multiplication engine inside an
elliptic-curve system: §5.2 notes that the 64-row array is sized to hold the
operands of one EC *point addition*, and the future-work section builds the
ZKP argument (Figure 7) on top of point operations.  This module provides
the curve group: affine points, Jacobian-coordinate addition/doubling (the
formulas that actually get scheduled onto a modular multiplier), and the
operation counts that feed the application analyses.

Each point formula is written once, on integer residues: it calls the
field backend's algorithm body (``ModularMultiplier._multiply``) directly
on operands it has already reduced, so the backend sees the same calls in
the same order as through :class:`~repro.ecc.field.FieldElement`, and it
charges its counts, which do not depend on the data, once per point
operation.  The public ``jacobian_*`` methods wrap those formulas in field
elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ecc.field import FieldElement, PrimeField
from repro.errors import CurveError, OperandRangeError

__all__ = ["EllipticCurve", "AffinePoint", "JacobianPoint"]

#: A Jacobian point as the residues ``(X, Y, Z)``.
Residues = Tuple[int, int, int]
_INFINITY: Residues = (1, 1, 0)


@dataclass(frozen=True)
class AffinePoint:
    """A point in affine coordinates, or the point at infinity."""

    x: Optional[FieldElement]
    y: Optional[FieldElement]

    @classmethod
    def infinity(cls) -> "AffinePoint":
        """The group identity."""
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        """Whether this is the point at infinity."""
        return self.x is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.is_infinity:
            return hash(("AffinePoint", None))
        return hash(("AffinePoint", int(self.x), int(self.y)))


@dataclass(frozen=True)
class JacobianPoint:
    """A point in Jacobian projective coordinates ``(X, Y, Z)``.

    The affine point is ``(X / Z², Y / Z³)``; ``Z = 0`` encodes infinity.
    Jacobian coordinates avoid the per-operation field inversion, which is
    why hardware (and this library's operation counting) uses them.
    """

    x: FieldElement
    y: FieldElement
    z: FieldElement

    @property
    def is_infinity(self) -> bool:
        """Whether this encodes the point at infinity."""
        return self.z.is_zero()


class EllipticCurve:
    """A short-Weierstrass curve ``y² = x³ + a·x + b`` over GF(p)."""

    def __init__(
        self,
        name: str,
        field: PrimeField,
        a: int,
        b: int,
        generator: Optional[Tuple[int, int]] = None,
        order: Optional[int] = None,
    ) -> None:
        self.name = name
        self.field = field
        self.a = field.element(a)
        self.b = field.element(b)
        self.order = order
        # 4a^3 + 27b^2 must be non-zero for the curve to be non-singular.
        discriminant = field.element(4) * self.a * self.a * self.a + (
            field.element(27) * self.b * self.b
        )
        if discriminant.is_zero():
            raise CurveError(f"curve {name!r} is singular (discriminant is zero)")
        # The doubling's constant factors 4, 3, 8 and 2, reduced as the
        # field reduces an integer operand.
        self._factors = tuple(factor % field.modulus for factor in (4, 3, 8, 2))
        self._generator: Optional[AffinePoint] = None
        if generator is not None:
            point = self.affine_point(generator[0], generator[1])
            self._generator = point

    # ------------------------------------------------------------------ #
    # point construction / validation
    # ------------------------------------------------------------------ #
    def affine_point(self, x: int, y: int) -> AffinePoint:
        """Build a validated affine point."""
        point = AffinePoint(self.field.element(x), self.field.element(y))
        if not self.contains(point):
            raise CurveError(
                f"({x:#x}, {y:#x}) does not satisfy the {self.name} curve equation"
            )
        return point

    @property
    def generator(self) -> AffinePoint:
        """The standard base point."""
        if self._generator is None:
            raise CurveError(f"curve {self.name!r} has no generator configured")
        return self._generator

    def contains(self, point: AffinePoint) -> bool:
        """Whether a point satisfies the curve equation."""
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        left = y * y
        right = x * x * x + self.a * x + self.b
        return left == right

    def infinity(self) -> AffinePoint:
        """The group identity."""
        return AffinePoint.infinity()

    # ------------------------------------------------------------------ #
    # coordinate conversion
    # ------------------------------------------------------------------ #
    def to_jacobian(self, point: AffinePoint) -> JacobianPoint:
        """Lift an affine point into Jacobian coordinates."""
        if point.is_infinity:
            one = self.field.one()
            return JacobianPoint(one, one, self.field.zero())
        return JacobianPoint(point.x, point.y, self.field.one())

    def to_affine(self, point: JacobianPoint) -> AffinePoint:
        """Normalise a Jacobian point back to affine coordinates."""
        if point.is_infinity:
            return AffinePoint.infinity()
        z_inverse = point.z.inverse()
        z2 = z_inverse.square()
        z3 = z2 * z_inverse
        return AffinePoint(point.x * z2, point.y * z3)

    # ------------------------------------------------------------------ #
    # group law (Jacobian coordinates)
    # ------------------------------------------------------------------ #
    def jacobian_double(self, point: JacobianPoint) -> JacobianPoint:
        """Point doubling (standard Jacobian formulas)."""
        return self._jacobian(self._double(self._residues(point.x, point.y, point.z)))

    def jacobian_add(self, p: JacobianPoint, q: JacobianPoint) -> JacobianPoint:
        """General Jacobian point addition."""
        first, second = self._residues(p.x, p.y, p.z), self._residues(q.x, q.y, q.z)
        return self._jacobian(self._add(first, second))

    def jacobian_add_mixed(self, p: JacobianPoint, q: AffinePoint) -> JacobianPoint:
        """Mixed addition (second operand affine, ``Z2 = 1``).

        Mixed addition is what multi-scalar multiplication performs almost
        exclusively, and its lower multiplication count is why the operation
        models distinguish it from the general addition.
        """
        if q.is_infinity:
            return p
        return self._jacobian(
            self._add_mixed(self._residues(p.x, p.y, p.z), self._residues(q.x, q.y))
        )

    # ------------------------------------------------------------------ #
    # the formulas, on residues
    # ------------------------------------------------------------------ #
    def _residues(self, *coordinates: FieldElement) -> Tuple[int, ...]:
        """The values of this curve's field elements."""
        if any(coordinate.field != self.field for coordinate in coordinates):
            raise OperandRangeError("cannot mix elements of different fields")
        return tuple(coordinate.value for coordinate in coordinates)

    def _jacobian(self, residues: Residues) -> JacobianPoint:
        return JacobianPoint(*(FieldElement(value, self.field) for value in residues))

    def _charge(self, modmuls: int, modadds: int = 0, modsubs: int = 0) -> None:
        """Charge one point formula's counts, and the backend's
        multiplications, which its algorithm body does not count.  A zero
        count is not charged: the counter gains no key the formula did not use."""
        field = self.field
        field.multiplier.stats.multiplications += modmuls
        field.counter.add("modmul", modmuls)
        if modadds:
            field.counter.add("modadd", modadds)
        if modsubs:
            field.counter.add("modsub", modsubs)

    def _double(self, point: Residues) -> Residues:
        """Doubling: 11 multiplications and 4 subtractions, plus 3
        multiplications and 1 addition when ``a != 0``.  The constant
        factors are field multiplications."""
        x, y, z = point
        if not z or not y:
            return _INFINITY
        p = self.field.modulus
        multiply = self.field.multiplier._multiply
        four, three, eight, two = self._factors
        a = self.a.value
        y_squared = multiply(y, y, p)
        s = multiply(multiply(x, y_squared, p), four, p)
        m = multiply(multiply(x, x, p), three, p)
        if a:
            z_squared = multiply(z, z, p)
            m = (m + multiply(a, multiply(z_squared, z_squared, p), p)) % p
        new_x = (multiply(m, m, p) - s - s) % p
        new_y = (
            multiply(m, (s - new_x) % p, p)
            - multiply(multiply(y_squared, y_squared, p), eight, p)
        ) % p
        new_z = multiply(multiply(y, z, p), two, p)
        if a:
            self._charge(14, 1, 4)
        else:
            self._charge(11, 0, 4)
        return new_x, new_y, new_z

    def _add(self, first: Residues, second: Residues) -> Residues:
        """General addition: 16 multiplications and 7 subtractions."""
        x1, y1, z1 = first
        x2, y2, z2 = second
        if not z1:
            return second
        if not z2:
            return first
        p = self.field.modulus
        multiply = self.field.multiplier._multiply
        z1_squared = multiply(z1, z1, p)
        z2_squared = multiply(z2, z2, p)
        u1 = multiply(x1, z2_squared, p)
        u2 = multiply(x2, z1_squared, p)
        s1 = multiply(multiply(y1, z2_squared, p), z2, p)
        s2 = multiply(multiply(y2, z1_squared, p), z1, p)
        if u1 == u2:
            self._charge(8)
            return self._double(first) if s1 == s2 else _INFINITY
        new_x, new_y, h = self._chord(u1, s1, u2, s2)
        new_z = multiply(multiply(z1, z2, p), h, p)
        self._charge(16, 0, 7)
        return new_x, new_y, new_z

    def _add_mixed(self, point: Residues, affine: Tuple[int, int]) -> Residues:
        """Mixed addition of an affine point: 11 multiplications and 7
        subtractions."""
        x1, y1, z1 = point
        x2, y2 = affine
        if not z1:
            return x2, y2, 1
        p = self.field.modulus
        multiply = self.field.multiplier._multiply
        z1_squared = multiply(z1, z1, p)
        u2 = multiply(x2, z1_squared, p)
        s2 = multiply(multiply(y2, z1_squared, p), z1, p)
        if x1 == u2:
            self._charge(4)
            return self._double(point) if y1 == s2 else _INFINITY
        new_x, new_y, h = self._chord(x1, y1, u2, s2)
        new_z = multiply(z1, h, p)
        self._charge(11, 0, 7)
        return new_x, new_y, new_z

    def _chord(self, u1: int, s1: int, u2: int, s2: int) -> Residues:
        """``(X3, Y3, H)`` of ``(u1, s1) + (u2, s2)`` over a common denominator,
        where ``Z3 = Z1 · Z2 · H``: the 6 multiplications and 7 subtractions
        both additions share, which their callers charge."""
        p = self.field.modulus
        multiply = self.field.multiplier._multiply
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        h_squared = multiply(h, h, p)
        h_cubed = multiply(h_squared, h, p)
        v = multiply(u1, h_squared, p)
        new_x = (multiply(r, r, p) - h_cubed - v - v) % p
        new_y = (multiply(r, (v - new_x) % p, p) - multiply(s1, h_cubed, p)) % p
        return new_x, new_y, h

    # ------------------------------------------------------------------ #
    # affine wrappers
    # ------------------------------------------------------------------ #
    def add(self, p: AffinePoint, q: AffinePoint) -> AffinePoint:
        """Affine point addition (goes through Jacobian coordinates)."""
        result = self.jacobian_add(self.to_jacobian(p), self.to_jacobian(q))
        return self.to_affine(result)

    def double(self, p: AffinePoint) -> AffinePoint:
        """Affine point doubling."""
        return self.to_affine(self.jacobian_double(self.to_jacobian(p)))

    def __repr__(self) -> str:
        return f"EllipticCurve(name={self.name!r}, p={self.field.modulus:#x})"
