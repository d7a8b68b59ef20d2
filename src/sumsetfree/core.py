"""Ground structures for computations on sets free of fixed-shape sumsets.

A *signature* lists the summand sizes (l1 <= ... <= lr) of the forbidden
sumsets L1 + ... + Lr.  Ground sets live in one of two ambient structures:
an integer interval, or a finite product of cyclic groups.  A GroundSet is
a finite immutable subset of an ambient with constant-time membership; a
SumsetWitness is a decomposition (offset, L1, ..., Lr) certifying that a
sumset lies inside a ground set.  Witnesses are kept in canonical form:
every summand is translated so its basepoint (minimum for intervals,
lexicographic minimum for products) is zero, the total translation being
absorbed into the offset.

Set file format
---------------
UTF-8 text, one element per line, ambient declared first in a header::

    #ambient interval n=16
    #ambient interval n=255 lo=0
    #ambient product 4,4,4

Interval elements are decimal integers; product elements comma-separated
reduced residues ("1,3,2").  The header is the line whose first word is
"#ambient"; other lines starting with '#' are comments.  A malformed line
is reported with its number.  Interval ambients normally carry
{1, ..., n}; lo=0 extends the carrier down to zero for constructions that
produce zero-based images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Union

Element = Union[int, tuple]


class InvalidSignatureError(ValueError):
    """Signature is empty, unsorted-unnormalizable, or has a part < 2."""


class InvalidInputError(ValueError):
    """A scalar argument is outside the documented domain."""


class StructureError(ValueError):
    """An element, file, or index set is malformed for its ambient."""


class PreconditionError(ValueError):
    """A documented precondition does not hold for the given arguments."""


class BudgetExceededError(RuntimeError):
    """A configured resource budget (nodes, decompositions, size) was hit."""


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    """Sorted summand sizes (l1 <= ... <= lr), every size at least 2."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise InvalidSignatureError("signature needs at least one summand size")
        for l in self.lengths:
            if not isinstance(l, int) or l < 2:
                raise InvalidSignatureError(f"summand size {l!r} not an integer >= 2")
        if list(self.lengths) != sorted(self.lengths):
            raise InvalidSignatureError("summand sizes must be sorted ascending")

    @property
    def r(self) -> int:
        return len(self.lengths)

    @property
    def product(self) -> int:
        return prod(self.lengths)

    @property
    def prefix_product(self) -> int:
        """Product of all summand sizes except the last (1 when r == 1)."""
        return prod(self.lengths[:-1])

    @property
    def total(self) -> int:
        return sum(self.lengths)

    def __str__(self) -> str:
        return ",".join(str(l) for l in self.lengths)


def normalize_signature(lengths: Iterable[int]) -> Signature:
    """Sort the given summand sizes ascending and validate them."""
    return Signature(tuple(sorted(lengths)))


# ---------------------------------------------------------------------------
# ambients


@dataclass(frozen=True)
class IntegerInterval:
    """Integers {lo, ..., n} with plain integer addition.

    lo is 1 by default; lo=0 supports zero-based construction images.
    Sums of elements may leave the carrier; membership is only meaningful
    for values inside it.
    """

    n: int
    lo: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidInputError(f"interval endpoint must be a positive integer, got {self.n!r}")
        if self.lo not in (0, 1):
            raise InvalidInputError(f"interval may start at 0 or 1, got lo={self.lo!r}")

    @property
    def cardinality(self) -> int:
        return self.n - self.lo + 1

    def contains(self, x: Element) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and self.lo <= x <= self.n

    def index(self, x: Element) -> int:
        if not self.contains(x):
            raise StructureError(f"{x!r} outside interval carrier [{self.lo}, {self.n}]")
        return x - self.lo

    def element_at(self, i: int) -> int:
        if not 0 <= i < self.cardinality:
            raise StructureError(f"index {i} out of range for {self}")
        return self.lo + i

    @property
    def zero(self) -> int:
        return 0

    def describe(self) -> str:
        if self.lo == 1:
            return f"interval n={self.n}"
        return f"interval n={self.n} lo={self.lo}"


@dataclass(frozen=True)
class CyclicProduct:
    """Product of cyclic groups Z_{n1} x ... x Z_{nk}, coordinatewise mod."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli:
            raise InvalidInputError("product ambient needs at least one modulus")
        for m in self.moduli:
            if not isinstance(m, int) or m < 1:
                raise InvalidInputError(f"modulus {m!r} not a positive integer")

    @property
    def cardinality(self) -> int:
        return prod(self.moduli)

    def contains(self, x: Element) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.moduli)
            and all(isinstance(c, int) and 0 <= c < m for c, m in zip(x, self.moduli))
        )

    def index(self, x: Element) -> int:
        """Mixed-radix index, first coordinate most significant.

        With this convention index order coincides with lexicographic
        order on residue tuples, which fixes the deterministic element
        order used everywhere else.
        """
        if not self.contains(x):
            raise StructureError(f"{x!r} not a reduced residue tuple for moduli {self.moduli}")
        i = 0
        for c, m in zip(x, self.moduli):
            i = i * m + c
        return i

    def element_at(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.cardinality:
            raise StructureError(f"index {i} out of range for {self}")
        out = []
        for m in reversed(self.moduli):
            out.append(i % m)
            i //= m
        return tuple(reversed(out))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def describe(self) -> str:
        return "product " + ",".join(str(m) for m in self.moduli)

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.moduli))


Ambient = Union[IntegerInterval, CyclicProduct]


def elem_add(a: Element, b: Element, ambient: Ambient) -> Element:
    """Ambient addition: plain integer sum, or coordinatewise mod."""
    if isinstance(ambient, IntegerInterval):
        if not isinstance(a, int) or not isinstance(b, int):
            raise StructureError(f"interval elements must be integers, got {a!r}, {b!r}")
        return a + b
    k = len(ambient.moduli)
    if not isinstance(a, tuple) or not isinstance(b, tuple) or len(a) != k or len(b) != k:
        raise StructureError(f"arity mismatch adding {a!r} and {b!r} over moduli {ambient.moduli}")
    return tuple((x + y) % m for x, y, m in zip(a, b, ambient.moduli))


def elem_sub(a: Element, b: Element, ambient: Ambient) -> Element:
    """Ambient subtraction matching elem_add."""
    if isinstance(ambient, IntegerInterval):
        if not isinstance(a, int) or not isinstance(b, int):
            raise StructureError(f"interval elements must be integers, got {a!r}, {b!r}")
        return a - b
    k = len(ambient.moduli)
    if not isinstance(a, tuple) or not isinstance(b, tuple) or len(a) != k or len(b) != k:
        raise StructureError(f"arity mismatch subtracting {b!r} from {a!r} over moduli {ambient.moduli}")
    return tuple((x - y) % m for x, y, m in zip(a, b, ambient.moduli))


def _element_json(x: Element):
    """An element as JSON encodes it: a product element as a list."""
    return list(x) if isinstance(x, tuple) else x


# ---------------------------------------------------------------------------
# ground sets

# Largest bitset, in bits, that a ground set or the detection kernel
# builds (128 MiB); a set file can name an ambient far wider than memory.
_MAX_BITS = 2**30


class GroundSet:
    """Immutable finite subset of an ambient, ordered by linearized index.

    Membership is O(1) via a frozenset.  The bitmask (bit i set iff
    element_at(i) is present) is the detector's input, built in one pass
    over a byte buffer in O(max index / 8 + |elements|) time.  An index of
    2^30 or more raises BudgetExceededError instead of allocating.
    """

    __slots__ = ("ambient", "elements", "_members", "bitmask")

    def __init__(self, ambient: Ambient, elements: Iterable[Element] = ()):
        index = {x: ambient.index(x) for x in elements}  # StructureError off the carrier
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "elements", tuple(sorted(index)))
        object.__setattr__(self, "_members", frozenset(index))
        top = max(index.values(), default=0)
        if top >= _MAX_BITS:
            raise BudgetExceededError(
                f"element index {top} exceeds the bitset limit of {_MAX_BITS} bits"
            )
        buf = bytearray(top // 8 + 1)
        for i in index.values():
            buf[i >> 3] |= 1 << (i & 7)
        object.__setattr__(self, "bitmask", int.from_bytes(buf, "little"))

    def __setattr__(self, name, value):
        raise AttributeError("GroundSet is immutable")

    def __contains__(self, x) -> bool:
        return x in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroundSet)
            and self.ambient == other.ambient
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.elements))

    def __repr__(self) -> str:
        shown = ", ".join(repr(x) for x in self.elements[:6])
        tail = ", ..." if len(self.elements) > 6 else ""
        return f"GroundSet({self.ambient.describe()}; {{{shown}{tail}}} size={len(self)})"

    def as_set(self) -> frozenset:
        return self._members

    def to_text(self) -> str:
        lines = [f"#ambient {self.ambient.describe()}"]
        for x in self.elements:
            if isinstance(x, tuple):
                lines.append(",".join(str(c) for c in x))
            else:
                lines.append(str(x))
        return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise StructureError(f"line {lineno}: {token!r} is not an integer") from None


def _parse_ambient_header(parts: list[str], lineno: int) -> Ambient:
    if not parts:
        raise StructureError(f"line {lineno}: empty #ambient header")
    kind, args = parts[0], parts[1:]
    if kind == "interval":
        n = None
        lo = 1
        for tok in args:
            if tok.startswith("n="):
                n = _parse_int(tok[2:], lineno)
            elif tok.startswith("lo="):
                lo = _parse_int(tok[3:], lineno)
            else:
                raise StructureError(f"line {lineno}: unrecognized interval header token {tok!r}")
        if n is None:
            raise StructureError(f"line {lineno}: interval header missing n=")
        return IntegerInterval(n, lo)
    if kind == "product":
        if len(args) != 1:
            raise StructureError(f"line {lineno}: product header wants one modulus list")
        return CyclicProduct(tuple(_parse_int(t, lineno) for t in args[0].split(",")))
    raise StructureError(f"line {lineno}: unknown ambient kind {kind!r}")


def parse_set_text(text: str) -> GroundSet:
    """Parse the set file format described in the module docstring."""
    ambient = None
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            words = line.split()
            if words[0] == "#ambient":
                if ambient is not None:
                    raise StructureError(f"line {lineno}: duplicate #ambient header")
                ambient = _parse_ambient_header(words[1:], lineno)
            continue
        if ambient is None:
            raise StructureError(f"line {lineno}: element listed before #ambient header")
        if isinstance(ambient, CyclicProduct):
            elements.append(tuple(_parse_int(t, lineno) for t in line.split(",")))
        else:
            elements.append(_parse_int(line, lineno))
    if ambient is None:
        raise StructureError("no #ambient header found")
    return GroundSet(ambient, elements)


def read_set_file(path) -> GroundSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_text(fh.read())


def write_set_file(ground_set: GroundSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ground_set.to_text())


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class SumsetWitness:
    """Canonical decomposition offset + L1 + ... + Lr of a contained sumset.

    Each summand is a tuple of distinct elements sorted in linearized
    order; canonical() translates every summand so its basepoint is the
    ambient zero and absorbs the shifts into the offset.  All l1*...*lr
    sums (with multiplicity) land in the witnessed set.
    """

    ambient: Ambient
    offset: Element
    summands: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        if not self.summands:
            raise StructureError("witness needs at least one summand")
        for L in self.summands:
            if len(L) < 2:
                raise StructureError("every summand needs at least two elements")
            if len(set(L)) != len(L):
                raise StructureError(f"summand {L!r} has repeated elements")

    @property
    def signature(self) -> Signature:
        return normalize_signature(len(L) for L in self.summands)

    def canonical(self) -> "SumsetWitness":
        offset = self.offset
        out = []
        for L in self.summands:
            base = min(L)
            out.append(tuple(sorted(elem_sub(x, base, self.ambient) for x in L)))
            offset = elem_add(offset, base, self.ambient)
        return SumsetWitness(self.ambient, offset, tuple(out))

    def values(self) -> tuple[Element, ...]:
        """Distinct sums of the decomposition, sorted."""
        sums = {self.offset}
        for L in self.summands:
            sums = {elem_add(s, x, self.ambient) for s in sums for x in L}
        return tuple(sorted(sums))

    def value_multiset_size(self) -> int:
        return prod(len(L) for L in self.summands)

    def is_valid_for(self, ground_set: GroundSet) -> bool:
        if ground_set.ambient != self.ambient:
            return False
        return all(v in ground_set for v in self.values())

    def to_dict(self) -> dict:
        return {
            "offset": _element_json(self.offset),
            "summands": [[_element_json(x) for x in L] for L in self.summands],
        }
