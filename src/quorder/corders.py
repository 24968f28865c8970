"""Circular and linear orderings of a finite carrier.

A circular ordering is a function c on ordered triples with values in
{-1, 0, +1} that vanishes exactly on degenerate triples and has zero
cocycle defect on every quadruple. On a finite carrier of size n >= 3 these
functions correspond exactly to cyclic arrangements of the carrier, which we
canonicalize to start at element 0 so equality is plain sequence equality.
For n <= 2 the all-zero function is the unique circular ordering and is
represented by the identity arrangement.

One translation test decides every order space: a map preserves a cyclic
arrangement exactly when it shifts the arrangement by a fixed number of
places, and a map is strictly increasing for a ranking exactly when it
sends the ranking onto itself. `survivors` runs it in C over a ground set's
byte form (`ByteForm`): each member as a byte string, one point per byte,
as on every table (`groups.MAX_CARRIER_N`). The byte strings are the
members: `survivors` returns the ones kept, and a caller builds order
objects only for what it hands on.
`search.ground_form` builds the form of a whole ground set straight from
`itertools.permutations`; `byte_form` takes it from orders already built.
For each map in turn `survivors` translates the surviving members with
`bytes.translate` and keeps those whose image is a window of their target,
with `map`, `bytes.count` and `compress`. An arrangement's target is
the arrangement doubled, whose n-byte windows are its rotations. A ranking's
target is the ranking itself: a strictly increasing self-map of an n-point
chain sends its ranks 0..n-1 to themselves, so the image must equal the
ranking. The predicates `is_right_invariant`, `is_left_invariant`,
`is_right_order` and `is_left_order` run the same filter on a ground set of
one member. The test suite keeps the definitional triple scans and the raw
triple functions as the oracle this test is checked against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from operator import attrgetter

from .groups import invert
from .quandles import FiniteQuandle
from .values import Value, cached_property


class CyclicOrder(Value):
    """A circular ordering given by its canonical cyclic arrangement."""

    _fields = ("arrangement",)

    def __init__(self, arrangement: Sequence[int]):
        arrangement = tuple(arrangement)
        n = len(arrangement)
        if n == 0:
            raise ValueError("empty arrangement")
        if sorted(arrangement) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {arrangement}")
        if arrangement[0] != 0:
            raise ValueError("canonical arrangements start at element 0")
        # object.__setattr__ keeps the value inline in the instance, where
        # attribute reads are faster than from a materialised __dict__
        object.__setattr__(self, "arrangement", arrangement)

    @classmethod
    def from_cycle(cls, seq: Sequence[int]) -> "CyclicOrder":
        """Canonicalize an arbitrary rotation by starting the cycle at 0."""
        seq = list(seq)
        k = seq.index(0)
        return cls(tuple(seq[k:] + seq[:k]))

    @property
    def size(self) -> int:
        return len(self.arrangement)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        return invert(self.arrangement)

    def evaluate(self, x: int, y: int, z: int) -> int:
        """+1 iff reading the cycle from x meets y before z; 0 on degenerate triples."""
        if x == y or y == z or x == z:
            return 0
        pos = self.positions
        n = self.size
        ry = (pos[y] - pos[x]) % n
        rz = (pos[z] - pos[x]) % n
        return 1 if ry < rz else -1


class LinearOrder(Value):
    """A strict total order given as the ranking from least to greatest."""

    _fields = ("ranking",)

    def __init__(self, ranking: Sequence[int]):
        ranking = tuple(ranking)
        n = len(ranking)
        if n == 0:
            raise ValueError("empty ranking")
        if sorted(ranking) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {ranking}")
        object.__setattr__(self, "ranking", ranking)

    @property
    def size(self) -> int:
        return len(self.ranking)

    @cached_property
    def rank(self) -> tuple[int, ...]:
        return invert(self.ranking)

    def before(self, a: int, b: int) -> bool:
        return self.rank[a] < self.rank[b]


def circular_from_linear(o: LinearOrder) -> CyclicOrder:
    """Close a ranking into a cycle: the ranking read cyclically, canonicalized."""
    return CyclicOrder.from_cycle(o.ranking)


# ---------------------------------------------------------------------------
# a whole ground set filtered at once, in byte form


class ByteForm(Value):
    """A ground set of arrangements or rankings of `size` points in byte form.

    `forms` holds each member as bytes, in ground-set order; the byte
    strings are the members, and only a caller that returns members builds
    objects from them. `targets` holds the bytes each member's image under a
    map must be a window of: the arrangement doubled, whose n-byte windows
    are its rotations, or the ranking itself, whose only n-byte window is
    itself. Built once per carrier size, it serves every quandle of that
    size.
    """

    _fields = ("forms", "circle")

    def __init__(self, forms: tuple[bytes, ...], circle: bool):
        targets = tuple(map(bytes.__add__, forms, forms)) if circle else forms
        self.__dict__.update(forms=forms, circle=circle, size=len(forms[0]), targets=targets)


def byte_form(ground: Sequence[CyclicOrder] | Sequence[LinearOrder]) -> ByteForm:
    """The byte form of a nonempty collection of circular orderings or of rankings."""
    ground = tuple(ground)
    circle = ground[0].__class__ is CyclicOrder
    return ByteForm(tuple(map(bytes, map(attrgetter("arrangement" if circle else "ranking"), ground))), circle)


def survivors(form: ByteForm, maps: Iterable[Sequence[int]]) -> tuple[bytes, ...]:
    """The members of the form that every map preserves, as byte strings, in
    ground-set order.

    Each map is one translation table, through which `bytes.translate`
    maps every member still alive; `bytes.count` then finds each image in
    its target, all in C. A map that fixes every point sends the form onto
    itself, so it keeps every member untested, and the scan stops once no
    member is left.
    """
    forms = form.forms
    n = form.size
    # every triple of n <= 2 points is degenerate: any map preserves the zero ordering
    if form.circle and n <= 2:
        return forms
    targets = form.targets
    identity = bytes(range(n))
    for m in maps:
        table = bytes(m)
        if table == identity:
            continue
        keep = list(map(bytes.count, targets, map(bytes.translate, forms, repeat(table.ljust(256)))))
        forms = tuple(compress(forms, keep))
        if not forms:
            break
        targets = tuple(compress(targets, keep)) if form.circle else forms
    return forms


# ---------------------------------------------------------------------------
# one arrangement or ranking against the translations of a quandle


def _preserved(order: CyclicOrder | LinearOrder, q: FiniteQuandle, maps: Iterable[Sequence[int]]) -> bool:
    if order.size != q.size:
        raise ValueError("carrier sizes differ")
    return bool(survivors(byte_form((order,)), maps))


def is_right_invariant(c: CyclicOrder, q: FiniteQuandle) -> bool:
    """Every right translation preserves the circular ordering."""
    return _preserved(c, q, q.columns)


def is_left_invariant(c: CyclicOrder, q: FiniteQuandle) -> bool:
    """Every left translation preserves the circular ordering."""
    return _preserved(c, q, q.rows)


def is_right_order(o: LinearOrder, q: FiniteQuandle) -> bool:
    """Every right translation is strictly increasing for the ranking."""
    return _preserved(o, q, q.columns)


def is_left_order(o: LinearOrder, q: FiniteQuandle) -> bool:
    """Every left translation is strictly increasing for the ranking."""
    return _preserved(o, q, q.rows)
