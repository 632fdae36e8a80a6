"""Exact-integer polynomial truncated at a fixed maximum degree: the
algebra of the reference generating function in ``test_engine``.

Coefficients are Python ints, so they never overflow: complete-graph cycle
counts pass 3.5e17 by 20 vertices and intermediate sums grow well beyond
64-bit range.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial in z with exact integer coefficients for degrees 0..max_degree."""

    max_degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if len(self.coefficients) != self.max_degree + 1:
            raise ValueError("need exactly max_degree + 1 coefficients")

    @classmethod
    def zero(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, (0,) * (max_degree + 1))

    @classmethod
    def from_coefficients(cls, coeffs, max_degree: int) -> "TruncatedSeries":
        c = list(coeffs)[: max_degree + 1]
        c += [0] * (max_degree + 1 - len(c))
        return cls(max_degree, tuple(int(x) for x in c))

    def coefficient(self, degree: int) -> int:
        if degree < 0:
            raise IndexError("negative degree")
        if degree > self.max_degree:
            return 0
        return self.coefficients[degree]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.max_degree != self.max_degree:
            raise ValueError("degree mismatch")
        return TruncatedSeries(
            self.max_degree,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(
                self.max_degree, tuple(c * other for c in self.coefficients)
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.max_degree != self.max_degree:
            raise ValueError("degree mismatch")
        out = [0] * (self.max_degree + 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j in range(self.max_degree + 1 - i):
                b = other.coefficients[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(self.max_degree, tuple(out))

    __rmul__ = __mul__
