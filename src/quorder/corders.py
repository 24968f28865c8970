"""Circular and linear orderings of a finite carrier.

A circular ordering is a function c on ordered triples with values in
{-1, 0, +1} that vanishes exactly on degenerate triples and has zero
cocycle defect on every quadruple. On a finite carrier of size n >= 3 these
functions correspond exactly to cyclic arrangements of the carrier, which we
canonicalize to start at element 0 so equality is plain sequence equality.
For n <= 2 the all-zero function is the unique circular ordering and is
represented by the identity arrangement.

Membership tests on arrangements and rankings are structural. A map
preserves a cyclic arrangement exactly when it shifts the arrangement by a
fixed number of places (a rotation test, O(n) per map); a map is strictly
increasing for a ranking exactly when it is increasing on each consecutive
pair of the ranking (O(n) per map, by transitivity). The invariance
witnesses keep the definitional triple scan, on arrangements and raw triple
functions alike, and the test suite uses them as the reference oracle. Raw
triple functions are enumerated only up to MAX_TRIPLE_FUNCTION_N points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import NotACircularOrdering, ResourceLimit, SmallCarrier
from .quandles import FiniteQuandle


def is_degenerate_triple(x: int, y: int, z: int) -> bool:
    return x == y or y == z or x == z


@dataclass(frozen=True)
class CyclicOrder:
    """A circular ordering given by its canonical cyclic arrangement."""

    arrangement: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "arrangement", tuple(self.arrangement))
        n = len(self.arrangement)
        if n == 0:
            raise ValueError("empty arrangement")
        if sorted(self.arrangement) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.arrangement}")
        if self.arrangement[0] != 0:
            raise ValueError("canonical arrangements start at element 0")

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
        pos = [0] * self.size
        for i, x in enumerate(self.arrangement):
            pos[x] = i
        return tuple(pos)

    def evaluate(self, x: int, y: int, z: int) -> int:
        """+1 iff reading the cycle from x meets y before z; 0 on degenerate triples."""
        if x == y or y == z or x == z:
            return 0
        pos = self.positions
        n = self.size
        ry = (pos[y] - pos[x]) % n
        rz = (pos[z] - pos[x]) % n
        return 1 if ry < rz else -1


@dataclass(frozen=True)
class LinearOrder:
    """A strict total order given as the ranking from least to greatest."""

    ranking: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        n = len(self.ranking)
        if n == 0:
            raise ValueError("empty ranking")
        if sorted(self.ranking) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.ranking}")

    @property
    def size(self) -> int:
        return len(self.ranking)

    @cached_property
    def rank(self) -> tuple[int, ...]:
        pos = [0] * self.size
        for i, x in enumerate(self.ranking):
            pos[x] = i
        return tuple(pos)

    def before(self, a: int, b: int) -> bool:
        return self.rank[a] < self.rank[b]


@dataclass(frozen=True)
class TripleFunction:
    """A total map from ordered triples to {-1, 0, +1}, stored densely."""

    size: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        n = self.size
        if n < 1:
            raise ValueError("empty carrier")
        if len(self.values) != n**3:
            raise ValueError(f"expected {n**3} values, got {len(self.values)}")
        if any(v not in (-1, 0, 1) for v in self.values):
            raise ValueError("values must lie in {-1, 0, 1}")

    @classmethod
    def zero(cls, n: int) -> "TripleFunction":
        return cls(n, (0,) * n**3)

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[int, int, int], int]) -> "TripleFunction":
        values = tuple(fn(x, y, z) for x in range(n) for y in range(n) for z in range(n))
        return cls(n, values)

    def value(self, x: int, y: int, z: int) -> int:
        n = self.size
        return self.values[(x * n + y) * n + z]


@dataclass(frozen=True)
class Violation:
    """Why a raw triple function is not a circular ordering."""

    kind: str  # "zero-pattern" or "cocycle"
    witness: tuple[int, ...]


def cocycle_defect(f: TripleFunction, w: tuple[int, int, int, int]) -> int:
    """Signed alternating sum of f over the four sub-triples of the quadruple."""
    t1, t2, t3, t4 = w
    return (
        f.value(t1, t2, t3)
        - f.value(t1, t2, t4)
        + f.value(t1, t3, t4)
        - f.value(t2, t3, t4)
    )


def validate_triple_function(f: TripleFunction) -> Violation | None:
    """None when f is a circular ordering, else the first violation found.

    Scans the zero pattern first (value 0 exactly on degenerate triples),
    then every quadruple for a nonzero cocycle defect, in lexicographic order.
    """
    n = f.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = f.value(x, y, z)
                if is_degenerate_triple(x, y, z):
                    if v != 0:
                        return Violation("zero-pattern", (x, y, z))
                elif v == 0:
                    return Violation("zero-pattern", (x, y, z))
    for w in product(range(n), repeat=4):
        if cocycle_defect(f, w) != 0:
            return Violation("cocycle", w)
    return None


def cyclic_to_function(c: CyclicOrder) -> TripleFunction:
    return TripleFunction.from_callable(c.size, c.evaluate)


def function_to_cyclic(f: TripleFunction) -> CyclicOrder:
    """Recover the canonical arrangement of a validated triple function.

    Elements other than 0 are sorted by the orientation predicate read off
    f at base point 0; the defect-free cocycle makes that comparator a strict
    total order.
    """
    if f.size <= 2:
        raise SmallCarrier(
            "carriers of size <= 2 admit only the zero ordering; "
            "use the identity arrangement directly"
        )
    violation = validate_triple_function(f)
    if violation is not None:
        raise NotACircularOrdering(violation)
    rest = sorted(range(1, f.size), key=cmp_to_key(lambda u, v: -f.value(0, u, v)))
    return CyclicOrder((0, *rest))


def circular_from_linear(o: LinearOrder) -> CyclicOrder:
    """Close a ranking into a cycle: the ranking read cyclically, canonicalized."""
    return CyclicOrder.from_cycle(o.ranking)


# ---------------------------------------------------------------------------
# invariance of a circular ordering under quandle translations


def _invariance_witness(
    c: CyclicOrder | TripleFunction, q: FiniteQuandle, maps: Sequence[Sequence[int]]
) -> tuple[int, int, int, int] | None:
    """First (s, t1, t2, t3) with c(t1,t2,t3) != c(m(t1), m(t2), m(t3)) for
    m = maps[s], or None."""
    if c.size != q.size:
        raise ValueError("carrier sizes differ")
    ev = c.evaluate if isinstance(c, CyclicOrder) else c.value
    n = q.size
    for s, m in enumerate(maps):
        for t1 in range(n):
            for t2 in range(n):
                for t3 in range(n):
                    if ev(t1, t2, t3) != ev(m[t1], m[t2], m[t3]):
                        return (s, t1, t2, t3)
    return None


def right_invariance_witness(
    c: CyclicOrder | TripleFunction, q: FiniteQuandle
) -> tuple[int, int, int, int] | None:
    """First (s, t1, t2, t3) with c(t1,t2,t3) != c(t1*s, t2*s, t3*s), or None."""
    return _invariance_witness(c, q, q.columns)


def left_invariance_witness(
    c: CyclicOrder | TripleFunction, q: FiniteQuandle
) -> tuple[int, int, int, int] | None:
    """First (s, t1, t2, t3) with c(t1,t2,t3) != c(s*t1, s*t2, s*t3), or None."""
    return _invariance_witness(c, q, q.rows)


def _shifts_all(c: CyclicOrder, maps: Iterable[Sequence[int]]) -> bool:
    """Every map sends the arrangement (n >= 2) onto a rotation of itself."""
    arr = c.arrangement
    image = itemgetter(*arr)
    for m in maps:
        k = arr.index(m[arr[0]])
        if image(m) != arr[k:] + arr[:k]:
            return False
    return True


def _is_invariant(c: CyclicOrder, q: FiniteQuandle, maps: Sequence[Sequence[int]]) -> bool:
    if c.size != q.size:
        raise ValueError("carrier sizes differ")
    # Every triple of a carrier with n <= 2 is degenerate, so any map preserves
    # the zero ordering. For n >= 3 a non-injective map collapses some
    # nondegenerate triple, and it cannot shift the arrangement either.
    return c.size <= 2 or _shifts_all(c, maps)


def is_right_invariant(c: CyclicOrder, q: FiniteQuandle) -> bool:
    """Every right translation preserves the circular ordering."""
    return _is_invariant(c, q, q.columns)


def is_left_invariant(c: CyclicOrder, q: FiniteQuandle) -> bool:
    """Every left translation preserves the circular ordering."""
    return _is_invariant(c, q, q.rows)


# ---------------------------------------------------------------------------
# monotonicity of a ranking under quandle translations


def _monotone(o: LinearOrder, q: FiniteQuandle, maps: Sequence[Sequence[int]]) -> bool:
    """Every map is strictly increasing for the ranking.

    Strict monotonicity is transitive, so comparing the images of each
    consecutive pair of the ranking decides it.
    """
    if o.size != q.size:
        raise ValueError("carrier sizes differ")
    rank = o.rank
    chain = o.ranking
    for m in maps:
        prev = -1
        for x in chain:
            r = rank[m[x]]
            if r <= prev:
                return False
            prev = r
    return True


def is_right_order(o: LinearOrder, q: FiniteQuandle) -> bool:
    """Every right translation is strictly increasing for the ranking."""
    return _monotone(o, q, q.columns)


def is_left_order(o: LinearOrder, q: FiniteQuandle) -> bool:
    """Every left translation is strictly increasing for the ranking."""
    return _monotone(o, q, q.rows)


# ---------------------------------------------------------------------------
# raw enumeration of all circular orderings as functions


def _nondegenerate_triples(n: int) -> list[tuple[int, int, int]]:
    return [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if not is_degenerate_triple(x, y, z)
    ]


def _cocycle_constraints(n: int, index: dict) -> list[dict[int, int]]:
    """Deduped linear constraints sum(coeff * value) = 0 over nondegenerate triples.

    Every quadruple contributes its defect identity; terms at degenerate
    triples are dropped (their value is pinned to 0 by the zero pattern), and
    repeated triples have their coefficients combined.
    """
    seen = set()
    out = []
    for w in product(range(n), repeat=4):
        t1, t2, t3, t4 = w
        terms: dict[int, int] = {}
        for sign, tr in (
            (1, (t1, t2, t3)),
            (-1, (t1, t2, t4)),
            (1, (t1, t3, t4)),
            (-1, (t2, t3, t4)),
        ):
            if not is_degenerate_triple(*tr):
                k = index[tr]
                terms[k] = terms.get(k, 0) + sign
        terms = {k: v for k, v in terms.items() if v != 0}
        if not terms:
            continue
        key = tuple(sorted(terms.items()))
        if key not in seen:
            seen.add(key)
            out.append(terms)
    return out


MAX_TRIPLE_FUNCTION_N = 5


def enumerate_triple_functions(n: int) -> tuple[TripleFunction, ...]:
    """All circular orderings of an n-element carrier, found as raw functions.

    Searches the full space of +-1 assignments on nondegenerate triples
    (degenerate triples are 0 by the zero pattern) by depth-first descent,
    cutting a branch as soon as a fully assigned cocycle constraint fails.
    Every valid assignment is reached, so the result is the complete set.
    """
    if n > MAX_TRIPLE_FUNCTION_N:
        raise ResourceLimit("raw triple-function enumeration", n, MAX_TRIPLE_FUNCTION_N)
    if n <= 2:
        return (TripleFunction.zero(n),)
    triples = _nondegenerate_triples(n)
    index = {t: i for i, t in enumerate(triples)}
    constraints = _cocycle_constraints(n, index)
    by_level: list[list[dict[int, int]]] = [[] for _ in triples]
    for con in constraints:
        by_level[max(con)].append(con)

    m = len(triples)
    vals = [0] * m
    found: list[tuple[int, ...]] = []

    def descend(i: int) -> None:
        if i == m:
            found.append(tuple(vals))
            return
        for v in (1, -1):
            vals[i] = v
            if all(
                sum(coeff * vals[k] for k, coeff in con.items()) == 0
                for con in by_level[i]
            ):
                descend(i + 1)
        vals[i] = 0

    descend(0)

    out = []
    for assignment in sorted(found):
        dense = [0] * n**3
        for t, v in zip(triples, assignment):
            x, y, z = t
            dense[(x * n + y) * n + z] = v
        out.append(TripleFunction(n, tuple(dense)))
    return tuple(out)
