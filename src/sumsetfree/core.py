"""Ground structures for computations on sets free of fixed-shape sumsets.

A *signature* lists the summand sizes (l1 <= ... <= lr) of the forbidden
sumsets L1 + ... + Lr.  Ground sets live in one of two ambient structures:
an integer interval, or a finite product of cyclic groups.  A GroundSet is
a finite immutable subset of an ambient, stored as nothing but the sorted
array of its element indices: its elements, membership test and bitmask
are derived from that array on each access.  Code that already holds
sorted indices builds the set from them with no element round trip, and
an interval set's elements are lo + index.  Everything else runs on
index bitsets, a Python int with bit i set for the element at index i.
One codec makes and reads them for every module, _mask and _indices,
both linear in the bit length; _Bitsets translates them, over an
interval by one shift and in a product group by one masked shift pair
per coordinate (_DigitMasks) at CyclicProduct.strides.  Intersection is
AND, its size int.bit_count(), and the differences of a set the OR of
its translates by its members.  _check_bits refuses a bitset, or a
product group for _Bitsets, past 2^30 bits.  A SumsetWitness is a
decomposition (offset, L1, ..., Lr) certifying that a sumset lies inside
a ground set.
Witnesses are kept in canonical form: every summand is translated so its
basepoint (minimum for intervals, lexicographic minimum for products) is
zero, the total translation being absorbed into the offset.

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
produce zero-based images.  Each header key may appear once.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass
from math import exp, inf, log, prod
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
        # an index is the sum of digit * stride; not a field, so eq, hash and repr ignore it
        strides = itertools.accumulate(reversed(self.moduli[1:]), operator.mul, initial=1)
        object.__setattr__(self, "strides", tuple(strides)[::-1])

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
        return sum(map(operator.mul, x, self.strides))

    def element_at(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.cardinality:
            raise StructureError(f"index {i} out of range for {self}")
        digits = []
        for s in self.strides:
            d, i = divmod(i, s)
            digits.append(d)
        return tuple(digits)

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


def _grid(offset: Element, summands, ambient: Ambient) -> dict:
    """The map from each 1-based index (i1, ..., ir) to offset + L1[i1-1]
    + ... + Lr[ir-1], in lexicographic index order, built one summand at
    a time with elem_add."""
    grid = {(): offset}
    for L in summands:
        grid = {
            idx + (i,): elem_add(v, x, ambient)
            for idx, v in grid.items()
            for i, x in enumerate(L, start=1)
        }
    return grid


def _element_json(x: Element):
    """An element as JSON encodes it: a product element as a list."""
    return list(x) if isinstance(x, tuple) else x


# ---------------------------------------------------------------------------
# ground sets

# Largest bitset, in bits, that a ground set or the detection kernel
# builds (128 MiB); a set file can name an ambient far wider than memory.
_MAX_BITS = 2**30


def _too_wide(index: str) -> BudgetExceededError:
    """The refusal of an index, named by the text given, past the limit."""
    return BudgetExceededError(f"element index {index} exceeds the bitset limit of {_MAX_BITS} bits")


def _check_bits(top: int) -> None:
    """Raise BudgetExceededError unless a bitset can hold index top.  An
    index past Python's int-to-str limit is named by its bit length."""
    if top >= _MAX_BITS:
        try:
            name = str(top)
        except ValueError:
            name = f"of {top.bit_length()} bits"
        raise _too_wide(name)


def _finite(value, log_value, name: str, scale=1) -> float:
    """value() if finite, else scale * exp(log_value()), else BudgetExceededError."""
    with suppress(OverflowError):
        if (result := value()) < inf:  # neither inf nor nan
            return result
    ln = log_value()
    try:
        return scale * exp(ln)
    except OverflowError:
        raise BudgetExceededError(
            f"{name} is about 10^{ln / log(10):.1f}, past the float range"
        ) from None


_TOO_DEEP = "a signature of {} summands nests deeper than Python's recursion limit"


def _mask(indices) -> int:
    """The bitmask with bit i set for each index i of a collection, in any
    order: one pass over a byte buffer, O(max / 8 + len), after
    _check_bits on the largest."""
    top = max(indices, default=0)
    _check_bits(top)
    buf = bytearray(top // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _indices(mask: int) -> list[int]:
    """The set bits of mask, ascending, in O(bit length) time and one copy
    of the mask's bytes: each 4 KiB of them, lowest first, is read off one
    bin() with one rfind per set bit, each scanning down to the next."""
    out = []
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for start in range(0, len(data), 4096):
        digits = bin(int.from_bytes(data[start:start + 4096], "little"))
        last = len(digits) - 1 + 8 * start  # the index of digits[-1]
        j = digits.rfind("1")
        while j > 1:  # digits[:2] is "0b"
            out.append(last - j)
            j = digits.rfind("1", 2, j)
    return out


class _DigitMasks(dict):
    """high[dj]: the indices whose digit at one coordinate is at least dj.

    Every mask has one bit per group element, so a mask is built on first
    use and then kept, until the masks kept reach _MAX_BITS bits and start
    afresh; building all of them up front costs a bit per element for
    every residue of every modulus.  ones, bit 0 of every period, is built
    on first use too, by doubling: dividing the all-ones mask by
    2^period - 1 would take CPython's quadratic long division.
    """

    def __init__(self, stride: int, period: int, size: int):
        super().__init__()
        self.stride, self.period, self.size = stride, period, size
        self.ones = None

    def __missing__(self, dj: int) -> int:
        if self.ones is None:
            ones, width = 1, self.period
            while width < self.size:
                ones |= ones << width
                width *= 2
            self.ones = ones & ((1 << self.size) - 1)
        if len(self) * self.size >= _MAX_BITS:
            self.clear()
        # (2^period - 2^(dj stride)) * ones, as two shifts and a subtraction
        mask = self[dj] = (self.ones << self.period) - (self.ones << dj * self.stride)
        return mask


class _Bitsets:
    """Shifts and differences of index bitsets over one ambient.  A shift d
    is the index of a group element, or any integer offset in an interval."""

    def __init__(self, ambient: Ambient):
        self.digits = None  # per coordinate, last first: stride, modulus, masks
        if isinstance(ambient, IntegerInterval):
            return
        size = ambient.cardinality
        _check_bits(size - 1)
        self.digits = [
            (stride, m, _DigitMasks(stride, m * stride, size))
            for stride, m in zip(ambient.strides[::-1], ambient.moduli[::-1])
        ]

    def minus(self, mask: int, d: int) -> int:
        """The set {i : i + d in mask}."""
        if self.digits is None:
            return mask >> d if d >= 0 else mask << -d
        for stride, m, high in self.digits:
            dj = d // stride % m
            if dj:
                up = mask & high[dj]
                mask = (up >> dj * stride) | ((mask ^ up) << (m - dj) * stride)
        return mask

    def plus(self, mask: int, d: int) -> int:
        """The set {i + d : i in mask}."""
        return self.minus(mask, self.diff(d, 0))

    def diff(self, a: int, b: int) -> int:
        """The shift from index a to index b."""
        if self.digits is None:
            return b - a
        return sum((b // stride - a // stride) % m * stride for stride, m, _ in self.digits)

    def add(self, a: int, b: int) -> int:
        """The index of the sum of the group elements at indices a and b."""
        return sum((a // stride + b // stride) % m * stride for stride, m, _ in self.digits)

    def differences(self, mask: int) -> int:
        """Nonzero differences within mask; only positive ones for intervals."""
        out = 0
        for i in _indices(mask):
            out |= self.minus(mask, i)
        return out & ~1

    def meets(self, mask: int, shifts: list[int], k: int, needed: int):
        """Yield (combo, mask & (mask - d) over d in combo) for the k-subsets
        combo of shifts, in order, whose intersection keeps needed elements."""
        for combo in itertools.combinations(shifts, k):
            inter = mask
            for d in combo:
                inter &= self.minus(mask, d)
                if inter.bit_count() < needed:
                    break
            else:
                yield combo, inter


def _prime_factors(m: int):
    """Yield the distinct prime factors of m, ascending, by trial division;
    none for m < 2.  The first is m itself exactly when m is prime, and
    it comes as soon as the least factor is found."""
    f = 2
    while f * f <= m:
        if m % f == 0:
            yield f
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        yield m


class GroundSet:
    """Immutable finite subset of an ambient, ordered by linearized index.

    Only the ambient and `indices`, an array of the sorted element indices
    (8 bytes each), are stored; the rest is derived per access, uncached.
    Two constructors fill that array.  GroundSet(ambient, elements), the
    one for outside input (set files, public callers), maps each element
    to its index with ambient.index, then dedups and sorts.  The private
    _from_indices takes indices that are already sorted and distinct, the
    invariant its callers keep: the constructions, the sequences and the
    search witnesses compute indices and never make elements.  It checks
    only the two ends, inside the ambient and below 2^30.

    len is O(1).  Iteration is lazy: lo + index on an interval, element_at
    on a product; `elements` is the tuple of one iteration.  Membership
    checks the carrier, so any other value is False, then bisects:
    O(log |A|).  `bitmask` (bit i set iff element_at(i) is present), the
    detector's input, is _mask of the indices, O(max index / 8 + |A|).  An
    index of 2^30 or more raises BudgetExceededError when the set is built.
    """

    __slots__ = ("ambient", "indices")

    def __init__(self, ambient: Ambient, elements: Iterable[Element] = ()):
        # StructureError off the carrier
        self._hold(ambient, sorted({ambient.index(x) for x in elements}))

    @classmethod
    def _from_indices(cls, ambient: Ambient, indices) -> "GroundSet":
        """The set of the elements at indices, a sequence of ints that the
        caller keeps sorted and distinct; it is neither sorted nor scanned.
        Only its ends are checked: StructureError when one lies outside
        the ambient, BudgetExceededError when the top one is 2^30 or more."""
        A = cls.__new__(cls)
        A._hold(ambient, indices)
        return A

    def _hold(self, ambient: Ambient, indices) -> None:
        if indices and not (indices[0] >= 0 and indices[-1] < ambient.cardinality):
            bad = indices[0] if indices[0] < 0 else indices[-1]
            raise StructureError(f"index {bad} out of range for {ambient}")
        _check_bits(indices[-1] if indices else 0)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "indices", array("q", indices))

    def __setattr__(self, name, value):
        raise AttributeError("GroundSet is immutable")

    @property
    def elements(self) -> tuple:
        return tuple(self)

    @property
    def bitmask(self) -> int:
        return _mask(self.indices)

    def __contains__(self, x) -> bool:
        if not self.ambient.contains(x):
            return False
        i = self.ambient.index(x)
        j = bisect_left(self.indices, i)
        return j < len(self.indices) and self.indices[j] == i

    def __iter__(self):
        if isinstance(self.ambient, IntegerInterval):
            return map(self.ambient.lo.__add__, self.indices)
        return map(self.ambient.element_at, self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroundSet)
            and self.ambient == other.ambient
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.indices.tobytes()))

    def __repr__(self) -> str:
        shown = ", ".join(repr(x) for x in itertools.islice(self, 6))
        tail = ", ..." if len(self) > 6 else ""
        return f"GroundSet({self.ambient.describe()}; {{{shown}{tail}}} size={len(self)})"

    def to_text(self) -> str:
        lines = [f"#ambient {self.ambient.describe()}"]
        if isinstance(self.ambient, IntegerInterval):
            lines += map(str, self)
        else:
            lines += (",".join(map(str, x)) for x in self)
        return "\n".join(lines) + "\n"


def _elements_json(A: GroundSet) -> list:
    """The elements of A as JSON encodes them, in index order: a product
    element as a list, an interval element as lo + index."""
    if isinstance(A.ambient, IntegerInterval):
        return list(A)
    return [list(x) for x in A]


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
        fields = {}
        for tok in args:
            key, eq, value = tok.partition("=")
            if not eq or key not in ("n", "lo"):
                raise StructureError(f"line {lineno}: unrecognized interval header token {tok!r}")
            if key in fields:
                raise StructureError(f"line {lineno}: repeated interval header key {key}=")
            fields[key] = _parse_int(value, lineno)
        if "n" not in fields:
            raise StructureError(f"line {lineno}: interval header missing n=")
        return IntegerInterval(fields["n"], fields.get("lo", 1))
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
        return tuple(sorted(set(_grid(self.offset, self.summands, self.ambient).values())))

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
