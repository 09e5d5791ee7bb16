"""Extended natural numbers, extended indices, and eventually-affine chains.

Dimension bookkeeping for operators with infinite-dimensional summands needs
naturals extended by infinity (ExtNat), a signed index extended by both
infinities and an undefined state (ExtIndex), and integer sequences that are
eventually affine so that infinite chains can be stored and compared exactly
(EvAffineSeq).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass


def natural_numeral(s: str) -> int:
    """The natural number that s writes in ASCII digits 0-9, else a
    ValueError: int() also accepts signs, spaces, underscores and other
    scripts' decimal digits."""
    if not (isinstance(s, str) and s.isascii() and s.isdigit()):
        raise ValueError(f"not a numeral of digits 0-9: {s!r}")
    return int(s)


def int_numeral(s: str) -> int:
    """A natural_numeral after at most one leading "-"."""
    if s.startswith("-"):
        return -natural_numeral(s[1:])
    return natural_numeral(s)


def ratio_numeral(s: str) -> tuple[int, int]:
    """(p, q), q > 0, from the string "p" or "p/q": an int_numeral over a
    natural_numeral. Anything else, a decimal point, an exponent, a space,
    a "+" or a "_" among them, is a ValueError, as are a zero q and more
    digits than Python's int-string limit."""
    num, slash, den = s.partition("/")
    p, q = int_numeral(num), natural_numeral(den) if slash else 1
    if not q:
        raise ValueError(f"zero denominator: {s!r}")
    return p, q


@functools.total_ordering
@dataclass(frozen=True)
class ExtNat:
    """A natural number or infinity (value None)."""

    value: int | None

    def __post_init__(self):
        # exact type: bool is an int subclass but never a dimension
        if self.value is not None and (type(self.value) is not int or self.value < 0):
            raise ValueError(f"not a natural: {self.value!r}")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if self.value is None or other.value is None:
            return INF
        return ExtNat(self.value + other.value)

    def sub(self, other: "ExtNat") -> "ExtNat":
        """Difference; defined for finite-finite with natural result,
        and for infinity minus a finite value (= infinity)."""
        if self.value is None and other.value is not None:
            return INF
        if self.value is None or other.value is None:
            raise ValueError("undefined ExtNat subtraction")
        d = self.value - other.value
        if d < 0:
            raise ValueError("ExtNat subtraction went negative")
        return ExtNat(d)

    def __lt__(self, other: "ExtNat") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __int__(self) -> int:
        if self.value is None:
            raise ValueError("infinite ExtNat has no int value")
        return self.value

    def to_str(self) -> str:
        return "inf" if self.value is None else str(self.value)

    @staticmethod
    def from_str(s: str) -> "ExtNat":
        return INF if s == "inf" else ExtNat(natural_numeral(s))

    def __str__(self) -> str:
        return self.to_str()


INF = ExtNat(None)
ZERO = ExtNat(0)


@dataclass(frozen=True)
class ExtIndex:
    """An integer index, +/- infinity, or undefined.

    Undefined is reserved for points where neither defect dimension is
    finite (equivalently, no index-bearing decomposition exists).
    """

    kind: str  # "int" | "pinf" | "ninf" | "undef"
    value: int = 0

    def __post_init__(self):
        if self.kind not in ("int", "pinf", "ninf", "undef"):
            raise ValueError(f"bad ExtIndex kind {self.kind!r}")
        if self.kind != "int" and self.value != 0:
            raise ValueError("non-integer ExtIndex carries no value")

    @staticmethod
    def of(i: int) -> "ExtIndex":
        return ExtIndex("int", i)

    @staticmethod
    def from_alpha_beta(alpha: ExtNat, beta: ExtNat) -> "ExtIndex":
        if alpha.is_finite and beta.is_finite:
            return ExtIndex.of(alpha.value - beta.value)
        if alpha.is_finite:
            return NEG_INF_INDEX
        if beta.is_finite:
            return POS_INF_INDEX
        return UNDEF_INDEX

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    def add(self, other: "ExtIndex") -> "ExtIndex":
        if self.kind == "undef" or other.kind == "undef":
            return UNDEF_INDEX
        kinds = {self.kind, other.kind}
        if kinds == {"pinf", "ninf"}:
            raise ValueError("cannot add opposite infinities")
        if "pinf" in kinds:
            return POS_INF_INDEX
        if "ninf" in kinds:
            return NEG_INF_INDEX
        return ExtIndex.of(self.value + other.value)

    def neg(self) -> "ExtIndex":
        if self.kind == "int":
            return ExtIndex.of(-self.value)
        if self.kind == "pinf":
            return NEG_INF_INDEX
        if self.kind == "ninf":
            return POS_INF_INDEX
        return UNDEF_INDEX

    def times(self, k: int) -> "ExtIndex":
        if k < 1:
            raise ValueError("scaling factor must be positive")
        if self.kind == "int":
            return ExtIndex.of(self.value * k)
        return self

    def is_zero(self) -> bool:
        return self.kind == "int" and self.value == 0

    def le_zero(self) -> bool:
        return self.kind == "ninf" or (self.kind == "int" and self.value <= 0)

    def ge_zero(self) -> bool:
        return self.kind == "pinf" or (self.kind == "int" and self.value >= 0)

    def to_str(self) -> str:
        return {"pinf": "inf", "ninf": "-inf", "undef": "undef"}.get(
            self.kind, str(self.value)
        )

    @staticmethod
    def from_str(s: str) -> "ExtIndex":
        named = {"inf": POS_INF_INDEX, "-inf": NEG_INF_INDEX, "undef": UNDEF_INDEX}
        return named[s] if s in named else ExtIndex.of(int_numeral(s))

    def __str__(self) -> str:
        return self.to_str()


POS_INF_INDEX = ExtIndex("pinf")
NEG_INF_INDEX = ExtIndex("ninf")
UNDEF_INDEX = ExtIndex("undef")


@dataclass(frozen=True)
class EvAffineSeq:
    """An ExtNat sequence that is affine from some point on.

    Value at n: prefix[n] for n < tail_start, else tail_base + tail_slope *
    (n - tail_start), with tail_start = len(prefix). An infinite tail_base
    forces slope 0. The constructor canonicalizes (shortest prefix), so
    dataclass equality is sequence equality.
    """

    prefix: tuple[ExtNat, ...]
    tail_base: ExtNat
    tail_slope: int = 0

    def __post_init__(self):
        slope, base, pfx = self.tail_slope, self.tail_base, self.prefix
        # exact type, as for ExtNat: bool is an int subclass but never a slope
        if type(slope) is not int or slope < 0:
            raise ValueError(f"tail slope must be a natural: {slope!r}")
        if not base.is_finite and slope != 0:
            raise ValueError("infinite tail must have slope 0")
        if type(pfx) is not tuple:
            pfx = tuple(pfx)
            object.__setattr__(self, "prefix", pfx)
        # drop each last entry that equals the tail extended one step back
        n, v = len(pfx), base.value
        while n:
            last, prev = pfx[n - 1], v - slope if slope else v
            if last.__class__ is not ExtNat or last.value != prev:
                break
            n, v = n - 1, prev
        if n < len(pfx):
            object.__setattr__(self, "prefix", pfx[:n])
            object.__setattr__(self, "tail_base", pfx[n])

    @property
    def tail_start(self) -> int:
        return len(self.prefix)

    def at(self, n: int) -> ExtNat:
        if n < 0:
            raise ValueError("negative position")
        if n < len(self.prefix):
            return self.prefix[n]
        if not self.tail_slope:
            return self.tail_base
        return ExtNat(self.tail_base.value + self.tail_slope * (n - len(self.prefix)))

    def add(self, other: "EvAffineSeq") -> "EvAffineSeq":
        """The pointwise sum. The zero sequence, matched by value, is
        neutral: the sum is then the other operand itself."""
        if _is_zero(self):
            return other
        if _is_zero(other):
            return self
        s = max(self.tail_start, other.tail_start)
        prefix = tuple(self.at(i) + other.at(i) for i in range(s))
        b1, b2 = self.at(s), other.at(s)
        if not b1.is_finite or not b2.is_finite:
            return EvAffineSeq(prefix, INF, 0)
        return EvAffineSeq(prefix, b1 + b2, self.tail_slope + other.tail_slope)

    def subsample(self, k: int) -> "EvAffineSeq":
        """The sequence n -> self at (k*n)."""
        if k < 1:
            raise ValueError("subsample step must be >= 1")
        start = self.tail_start
        n0 = (start + k - 1) // k
        prefix = tuple(self.at(k * i) for i in range(n0))
        base = self.at(k * n0)
        slope = 0 if not base.is_finite else self.tail_slope * k
        return EvAffineSeq(prefix, base, slope)

    def stabilization_point(self) -> ExtNat:
        """Least n from which the sequence is constant; infinity if never."""
        if self.tail_slope > 0:
            return INF
        return ExtNat(len(self.prefix))

    def diff(self) -> "EvAffineSeq":
        """n -> at(n) - at(n+1) for a nonincreasing sequence."""
        if self.tail_slope > 0:
            raise ValueError("diff is for nonincreasing sequences")
        vals = self.prefix + (self.tail_base,)
        return EvAffineSeq(tuple(a.sub(b) for a, b in zip(vals, vals[1:])), ZERO, 0)

    def steps(self) -> "EvAffineSeq":
        """n -> at(n+1) - at(n) for a nondecreasing sequence, infinite where
        at(n+1) is."""
        vals = self.prefix + (self.tail_base,)
        prefix = tuple(b.sub(a) for a, b in zip(vals, vals[1:]))
        base = ExtNat(self.tail_slope) if self.tail_base.is_finite else INF
        return EvAffineSeq(prefix, base, 0)

    @staticmethod
    def from_samples(samples: list[ExtNat], stable_from: int) -> "EvAffineSeq":
        """Sequence equal to samples up to stable_from, constant afterwards."""
        if stable_from >= len(samples):
            raise ValueError("need a sample at the stabilization point")
        return EvAffineSeq(tuple(samples[:stable_from]), samples[stable_from], 0)

    def tail_formula(self) -> str:
        start = self.tail_start
        if self.tail_slope == 0:
            return f"{self.tail_base} for n >= {start}"
        c = self.tail_base.value - self.tail_slope * start
        s = "n" if self.tail_slope == 1 else f"{self.tail_slope}*n"
        if c > 0:
            s += f" + {c}"
        elif c < 0:
            s += f" - {-c}"
        return f"{s} for n >= {start}"


def _is_zero(s: EvAffineSeq) -> bool:
    # canonical form: the zero sequence has no prefix and a tail of 0, slope 0
    return not s.prefix and not s.tail_slope and s.tail_base.value == 0


ZERO_SEQ = EvAffineSeq((), ZERO, 0)
LINEAR_SEQ = EvAffineSeq((), ZERO, 1)
