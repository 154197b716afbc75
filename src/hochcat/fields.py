"""Exact scalar domains: prime fields GF(p) and the rationals.

Scalars are plain Python objects: ints in ``[0, p)`` for GF(p), and
``fractions.Fraction`` for the rationals.  All arithmetic is exact; there is
deliberately no floating point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadFieldSpec

MAX_PRIME = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p) when ``p`` is set, the rationals when ``p is None``."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not 2 <= self.p < MAX_PRIME:
                raise BadFieldSpec(f"characteristic must be a prime below 2^31, got {self.p!r}")
            if not is_prime(self.p):
                raise BadFieldSpec(f"{self.p} is not prime")

    # --- identification ---------------------------------------------------

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def name(self) -> str:
        return f"gf:{self.p}" if self.p is not None else "q"

    def __str__(self) -> str:
        return self.name

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse a field selector: ``q`` or ``gf:<p>`` with p prime."""
        t = text.strip().lower()
        if t in ("q", "qq", "rational", "rationals"):
            return FieldSpec(None)
        if t.startswith("gf:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise BadFieldSpec(f"bad field selector {text!r}") from None
            return FieldSpec(p)
        raise BadFieldSpec(f"bad field selector {text!r} (use 'q' or 'gf:<p>')")

    # --- scalar arithmetic --------------------------------------------------

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def scalar(self, n: int):
        """Canonical image of an integer in the field."""
        return n % self.p if self.p is not None else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def format_scalar(self, v) -> str:
        """Render a scalar exactly, e.g. ``3`` or ``-2/7``."""
        return str(v)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
QQ = FieldSpec(None)
