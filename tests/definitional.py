"""The definitional oracle: circular orderings as raw functions on triples,
and the quandle and group axioms as scans of a Cayley table.

A circular ordering of an n-element carrier is a function c on ordered
triples with values in {-1, 0, +1} that vanishes exactly on degenerate
triples and has zero cocycle defect on every quadruple. This module checks
that definition literally, triple by triple and quadruple by quadruple, so
the structural membership tests of `quorder.corders` can be diffed against
it. The table scans at the end are the reference for the validation of
`FiniteQuandle` and `FiniteGroup`, the all-pairs column search the
reference for the one `generate_all_quandles` runs, and the orders and
orbits at the end the reference for `quorder.groups`. It imports nothing
from the package but `CyclicOrder`, the object under comparison;
`test_definitional_oracle_is_independent` keeps it that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
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


# ---------------------------------------------------------------------------
# the quandle and group axioms, scanned entry by entry and triple by triple


def first_quandle_violation(table) -> tuple[str, tuple] | None:
    """The first quandle axiom the table fails and its witness, as
    `NotAQuandle` names them (`axiom`, `witness`), or None for a quandle.

    The axioms are checked in order: a nonempty carrier; every row of n
    entries, each an int (bools are ints) in 0..n-1 (row-major order);
    x*x = x; every column a permutation; (a*b)*c = (a*c)*(b*c) for every
    triple (a, b, c) in lexicographic order.
    """
    n = len(table)
    if n == 0:
        return ("nonempty carrier", ())
    for i, row in enumerate(table):
        if len(row) != n:
            return ("square table", (i,))
        for j, v in enumerate(row):
            if not (isinstance(v, int) and 0 <= v < n):
                return ("entry in range", (i, j))
    for x in range(n):
        if table[x][x] != x:
            return ("idempotency", (x, x))
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return ("right-bijectivity", (j,))
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
            return ("right-distributivity", (a, b, c))
    return None


def first_group_violation(table, identity: int) -> tuple[str, tuple] | None:
    """The first group axiom the table fails with this identity, and its
    witness, as `NotAGroup` names them (`reason`, `witness`), or None.

    The axioms are checked in order: a nonempty carrier; every row of n
    entries, each an int (bools are ints) in 0..n-1 (row-major order);
    every row, then every column, a permutation; the identity a point (a
    plain int in 0..n-1) with e*x = x*e = x for every x; (a*b)*c = a*(b*c)
    for every triple (a, b, c) in lexicographic order.
    """
    n = len(table)
    if n == 0:
        return ("empty carrier", ())
    for i, row in enumerate(table):
        if len(row) != n:
            return ("table is not square", (i,))
        for j, v in enumerate(row):
            if not (isinstance(v, int) and 0 <= v < n):
                return ("entry out of range", (i, j))
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            return (f"row {i} is not a permutation", (i,))
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return (f"column {j} is not a permutation", (j,))
    e = identity
    if type(e) is not int or not (0 <= e < n):
        return ("identity index out of range", (e,))
    for x in range(n):
        if table[e][x] != x or table[x][e] != x:
            return ("identity fails", (e, x))
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return ("associativity fails", (a, b, c))
    return None


# ---------------------------------------------------------------------------
# translation facts and structure, read off the table point by point


def first_moved_point(table) -> tuple[int, int, int] | None:
    """The first (s, t, t*s), s-major, with t*s != t: the first right
    translation that moves a point and the first point it moves; None when
    every right translation is the identity."""
    n = len(table)
    for s in range(n):
        for t in range(n):
            if table[t][s] != t:
                return (s, t, table[t][s])
    return None


def first_merged_pair(table) -> tuple[int, int, int, int] | None:
    """The first (s, t1, t2, s*t2) with t1 < t2 and s*t1 = s*t2: the first
    left translation that merges two points, the first point t2 whose image
    an earlier point has, and the first such t1; None when every left
    translation is injective."""
    n = len(table)
    for s in range(n):
        for t2 in range(n):
            for t1 in range(t2):
                if table[s][t1] == table[s][t2]:
                    return (s, t1, t2, table[s][t2])
    return None


def is_trivial_table(table) -> bool:
    """t*s = t for all s and t."""
    return all(table[t][s] == t for t in range(len(table)) for s in range(len(table)))


def is_latin_table(table) -> bool:
    """Every row is a permutation of the points."""
    return all(sorted(row) == list(range(len(table))) for row in table)


def is_involutory_table(table) -> bool:
    """(t*s)*s = t for all s and t."""
    return all(table[table[t][s]][s] == t for t in range(len(table)) for s in range(len(table)))


def orbit_partition(table) -> tuple[tuple[int, ...], ...]:
    """The classes of the equivalence generated by t ~ t*s, each sorted,
    ordered by least point: start from singletons and join the classes of t
    and t*s until nothing changes."""
    n = len(table)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for t in range(n):
            for s in range(n):
                a, b = label[t], label[table[t][s]]
                if a != b:
                    low = min(a, b)
                    label = [low if x in (a, b) else x for x in label]
                    changed = True
    classes: dict[int, list[int]] = {}
    for t in range(n):
        classes.setdefault(label[t], []).append(t)
    return tuple(tuple(c) for c in sorted(classes.values()))


# ---------------------------------------------------------------------------
# quandle generation: column j of a table is the right translation c_j


def column_search_all_pairs(candidates: Sequence[Sequence[Sequence[int]]]) -> list[tuple]:
    """Every assignment of one candidate to each column that satisfies
    self-distributivity, in lexicographic candidate order: the columns are
    assigned in turn, every candidate of a column is tried, and it is kept
    when c_m[c_k[x]] == c_k[c_j[x]] for every x on every pair (k, j), k != j,
    of assigned columns whose m = c_k[j] is assigned and one of k, j, m is
    the new column. The reference for `quorder.search._column_search`."""
    n = len(candidates)
    cols: list = [None] * n
    found: list[tuple] = []

    def consistent(f: int) -> bool:
        for k in range(f + 1):
            ck = cols[k]
            for j in range(f + 1):
                m = ck[j]
                if m > f or j == k or f not in (k, j, m):
                    continue
                cm, cj = cols[m], cols[j]
                for x in range(n):
                    if cm[ck[x]] != ck[cj[x]]:
                        return False
        return True

    def descend(f: int) -> None:
        if f == n:
            found.append(tuple(cols))
            return
        for p in candidates[f]:
            cols[f] = p
            if consistent(f):
                descend(f + 1)
        cols[f] = None

    descend(0)
    return found


def labelled_quandle_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every quandle table on n points: each column j any permutation fixing
    j, the column tuples in lexicographic (product) order, kept when
    `first_quandle_violation` finds nothing."""
    choices = [[p for p in permutations(range(n)) if p[j] == j] for j in range(n)]
    tables = (tuple(zip(*cols)) for cols in product(*choices))
    return [table for table in tables if first_quandle_violation(table) is None]


def automorphism_count(table) -> int:
    """The number of relabellings p of the points with p(i*j) = p(i)*p(j)
    for all i, j: the automorphisms of the quandle."""
    n = len(table)
    return sum(
        all(table[p[i]][p[j]] == p[table[i][j]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


# ---------------------------------------------------------------------------
# permutation groups: a permutation p is a tuple with p[x] the image of x


def perm_order(p: Sequence[int]) -> int:
    """The least k >= 1 with p^k the identity, by applying p until every
    point is back where it started."""
    x = tuple(p)
    k = 1
    while any(x[i] != i for i in range(len(x))):
        x = tuple(p[i] for i in x)
        k += 1
    return k


def element_order(table, identity: int, a: int) -> int:
    """The least k >= 1 with a^k the identity in the group of the table."""
    x = a
    k = 1
    while x != identity:
        x = table[x][a]
        k += 1
    return k


def permutation_orbits(elements, degree: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of the permutation group with these elements on
    0..degree-1, each sorted, ordered by least point: the orbit of x is
    every image p[x]."""
    remaining = set(range(degree))
    out = []
    while remaining:
        start = min(remaining)
        orbit = {p[start] for p in elements}
        out.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(out)
