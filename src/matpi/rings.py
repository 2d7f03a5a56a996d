"""Exact coefficient rings: prime fields GF(p), the rationals, and Z/m.

Elements are kept as plain Python values in canonical form: residues in
``range(modulus)`` for the modular rings, and ``fractions.Fraction`` for the
rationals.  Matrix code manipulates raw values directly and calls back into
the ring object only to canonicalize, invert, parse, and format.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedRingError

# Jaeschke/Sorenson-Webster witness set: deterministic for all p < 3.3e24,
# which covers every machine-word modulus we accept.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_MODULUS = 2**62


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for machine-word integers."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    d = p - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Ring:
    """Base class; subclasses fix ``kind``, the characteristic, and parsing."""

    kind: str
    is_field: bool = False
    characteristic: int

    # -- canonical values ------------------------------------------------
    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def canon(self, v):
        """Coerce a raw int/Fraction into the canonical representative."""
        raise NotImplementedError

    def canon_list(self, values):
        return [self.canon(v) for v in values]

    # -- arithmetic on canonical values ----------------------------------
    def add(self, a, b):
        return self.canon(a + b)

    def sub(self, a, b):
        return self.canon(a - b)

    def mul(self, a, b):
        return self.canon(a * b)

    def neg(self, a):
        return self.canon(-a)

    def inv(self, a):
        raise UnsupportedRingError(f"{self} is not a field; cannot invert")

    # -- text form --------------------------------------------------------
    def parse(self, text):
        """Turn a scalar literal (int or string) into a canonical value.

        Raises ValueError with a message that names the rejected literal.
        """
        raise NotImplementedError

    def format(self, v) -> str:
        return str(v)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        raise NotImplementedError


def _parse_int_literal(ring: Ring, text) -> int:
    if isinstance(text, bool):
        raise ValueError(f"boolean {text!r} is not a scalar")
    if isinstance(text, int):
        return text
    s = str(text).strip()
    try:
        return int(s)
    except ValueError:
        raise ValueError(
            f"literal {s!r} is not a valid element of {ring.name}"
        ) from None


class PrimeField(Ring):
    """GF(p) for a machine-word prime p; elements are ints in range(p)."""

    kind = "prime_field"
    is_field = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
            raise UnsupportedRingError(f"modulus {p!r} out of supported range")
        if not is_prime(p):
            raise UnsupportedRingError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def canon(self, v):
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return v.numerator % self.p
            return self.mul(v.numerator % self.p, self.inv(v.denominator % self.p))
        return v % self.p

    def canon_list(self, values):
        p = self.p
        return [v % p for v in values]

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.name}")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        if isinstance(text, str) and "/" in text:
            raise ValueError(
                f"fraction literal {text.strip()!r} is not valid in {self.name}; "
                f"use an integer residue"
            )
        return _parse_int_literal(self, text) % self.p

    def _key(self):
        return ("prime_field", self.p)


class RationalField(Ring):
    """The rationals; elements are fractions.Fraction values."""

    kind = "rationals"
    is_field = True
    characteristic = 0
    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def canon(self, v):
        return v if isinstance(v, Fraction) else Fraction(v)

    def canon_list(self, values):
        return [v if isinstance(v, Fraction) else Fraction(v) for v in values]

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in QQ")
        return 1 / self.canon(a)

    def parse(self, text):
        if isinstance(text, bool):
            raise ValueError(f"boolean {text!r} is not a scalar")
        if isinstance(text, (int, Fraction)):
            return Fraction(text)
        s = str(text).strip()
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"literal {s!r} is not a valid rational") from None

    def _key(self):
        return ("rationals",)


class IntegerModRing(Ring):
    """Z/m for a composite-friendly modulus m; not a field.

    Only ring arithmetic is offered.  Echelonization, nullspaces, and any
    routine that divides refuse this ring explicitly.
    """

    kind = "integers_mod"
    is_field = False

    def __init__(self, m: int):
        if not isinstance(m, int) or not 2 <= m < MAX_MODULUS:
            raise UnsupportedRingError(f"modulus {m!r} out of supported range")
        self.m = m
        self.characteristic = m
        self.name = f"Z/{m}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.m

    def canon(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise UnsupportedRingError(
                    f"cannot coerce non-integer {v} into {self.name}"
                )
            v = v.numerator
        return v % self.m

    def canon_list(self, values):
        m = self.m
        return [v % m for v in values]

    def inv(self, a):
        try:
            return pow(a % self.m, -1, self.m)
        except ValueError:
            raise UnsupportedRingError(
                f"{a % self.m} is not a unit in {self.name}"
            ) from None

    def parse(self, text):
        if isinstance(text, str):
            s = text.strip()
            if s.endswith(f"mod {self.m}"):
                s = s[: -len(f"mod {self.m}")].strip()
            if "/" in s:
                raise ValueError(
                    f"fraction literal {s!r} is not valid in {self.name}"
                )
            text = s
        return _parse_int_literal(self, text) % self.m

    def format(self, v) -> str:
        return f"{v % self.m}"

    def _key(self):
        return ("integers_mod", self.m)


QQ = RationalField()

_gf_cache: dict = {}


def GF(p: int) -> PrimeField:
    """Return the prime field with p elements (cached)."""
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field


def Zmod(m: int) -> IntegerModRing:
    """Return the ring of integers mod m (no field structure assumed)."""
    return IntegerModRing(m)


# every spelling of a ring kind that the CLI and spec files accept
RING_KINDS = {
    "q": "q", "qq": "q", "rational": "q", "rationals": "q",
    "gf": "gf", "prime_field": "gf", "fp": "gf",
    "zmod": "zmod", "integers_mod": "zmod", "zm": "zmod",
}


def ring_from_params(kind: str, modulus=None) -> Ring:
    """Build a ring from CLI/spec-file parameters.

    kind is any spelling in RING_KINDS of ``q``, ``gf`` or ``zmod``.
    """
    k = RING_KINDS.get(kind.strip().lower())
    if k == "q":
        if modulus is not None:
            raise UnsupportedRingError("the rationals take no modulus")
        return QQ
    if k == "gf":
        if modulus is None:
            raise UnsupportedRingError("ring kind 'gf' needs a prime modulus p")
        return GF(modulus)
    if k == "zmod":
        if modulus is None:
            raise UnsupportedRingError("ring kind 'zmod' needs a modulus m")
        return Zmod(modulus)
    raise UnsupportedRingError(f"unknown ring kind {kind!r}")
