"""The definitional oracle: circular orderings as raw functions on triples.

A circular ordering of an n-element carrier is a function c on ordered
triples with values in {-1, 0, +1} that vanishes exactly on degenerate
triples and has zero cocycle defect on every quadruple. This module checks
that definition literally, triple by triple and quadruple by quadruple, so
the structural membership tests of `quorder.corders` can be diffed against
it. It imports nothing from the package but `CyclicOrder`, the object under
comparison; `test_definitional_oracle_is_independent` keeps it that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from quorder.corders import CyclicOrder


def is_degenerate_triple(x: int, y: int, z: int) -> bool:
    return x == y or y == z or x == z


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


def naive_circular_functions(n: int) -> list[tuple[int, ...]]:
    """Every circular ordering of an n-element carrier as its dense values,
    sorted: all 2^(n(n-1)(n-2)) sign patterns on the nondegenerate triples,
    each checked against every quadruple. Feasible up to n = 3 (64 patterns)."""
    triples = [t for t in product(range(n), repeat=3) if not is_degenerate_triple(*t)]
    index = {t: i for i, t in enumerate(triples)}
    out = []
    for bits in product((1, -1), repeat=len(triples)):
        def c(x, y, z):
            if is_degenerate_triple(x, y, z):
                return 0
            return bits[index[(x, y, z)]]

        if all(
            c(t1, t2, t3) - c(t1, t2, t4) + c(t1, t3, t4) - c(t2, t3, t4) == 0
            for t1, t2, t3, t4 in product(range(n), repeat=4)
        ):
            dense = tuple(c(x, y, z) for x in range(n) for y in range(n) for z in range(n))
            out.append(dense)
    return sorted(out)


# ---------------------------------------------------------------------------
# invariance of a circular ordering under quandle translations


def _invariance_witness(
    c: CyclicOrder | TripleFunction, q, maps: Sequence[Sequence[int]]
) -> tuple[int, int, int, int] | None:
    """First (s, t1, t2, t3) with c(t1,t2,t3) != c(m(t1), m(t2), m(t3)) for
    m = maps[s], or None; q needs only a `size`."""
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
    c: CyclicOrder | TripleFunction, q
) -> tuple[int, int, int, int] | None:
    """First (s, t1, t2, t3) with c(t1,t2,t3) != c(t1*s, t2*s, t3*s), or None."""
    return _invariance_witness(c, q, q.columns)


def left_invariance_witness(
    c: CyclicOrder | TripleFunction, q
) -> tuple[int, int, int, int] | None:
    """First (s, t1, t2, t3) with c(t1,t2,t3) != c(s*t1, s*t2, s*t3), or None."""
    return _invariance_witness(c, q, q.rows)
