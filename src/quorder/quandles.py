"""Finite quandles as validated Cayley tables.

The table is row-major with rows holding the left argument: entry (i, j) is
i*j. Right translations are therefore column read-offs and left translations
are row read-offs. The constructor always runs the full axiom check, so
every table built through it, and every quandle the package returns, is
valid. One private path skips it: `search.generate_all_quandles` wraps the
tables its column search finds without a check, only to compare their
canonical forms, and builds each class it returns through the constructor.
A carrier has at most `groups.MAX_CARRIER_N` = 256 points, one byte each,
and right-distributivity is checked in C, one column at a time
(`groups.first_failure`), which also names the first failing triple.

A quandle keeps its translation maps as fields (`rows`, the table, and
`columns`, its transpose) and computes two facts about them once, on first
use: the first right translation that moves a point (`first_moved`) and
the first left translation that merges two points (`first_merged`). The
fast decisions of `search` and the predicates `is_trivial_quandle` and
`is_latin` read them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import permutations

from .errors import NotAQuandle, NotInvertible, ResourceLimit
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    PermutationGroup,
    byte_rows,
    check_carrier,
    closure,
    compose,
    first_failure,
    identity_perm,
    product_table,
)
from .values import Value, cached_property

MAX_CANONICAL_N = 8  # canonical forms (n! relabellings) are computed up to this order


class FiniteQuandle(Value):
    """Quandle on {0..n-1}, entry (i, j) = i*j; a bad table raises NotAQuandle.

    `size`, `rows` (left translations, rows[s][t] = s*t) and `columns` (right
    translations, columns[s][t] = t*s) are plain fields. The cached
    `first_moved` and `first_merged` name the first right translation that
    moves a point and the first left translation that merges two; the fast
    path's certificates and the structure predicates read them.

    A table of more than `groups.MAX_CARRIER_N` points raises ResourceLimit
    before anything else is read. Otherwise NotAQuandle names the first
    axiom that fails and its first witness: a row, then an entry (i, j) that
    is not an int (bools are ints) in 0..n-1, in row-major order; a diagonal
    entry; a column; a triple (a, b, c) in lexicographic order. The entries
    and the triples are checked as a whole in C (`groups.byte_rows`,
    `groups.first_failure`); only a failed entry check scans the rows for
    its witness.
    """

    _fields = ("table", "name")
    _compared = ("table",)

    def __init__(self, table: Sequence[Sequence[int]], name: str | None = None):
        table = tuple(map(tuple, table))
        n = len(table)
        check_carrier(n)
        # the columns are read off during validation
        self.__dict__.update(table=table, name=name, size=n, rows=table, columns=tuple(zip(*table)))
        if n == 0:
            raise NotAQuandle("nonempty carrier", ())
        rows = byte_rows(table, NotAQuandle, "square table", "entry in range")
        for i in range(n):
            if table[i][i] != i:
                raise NotAQuandle("idempotency", (i, i))
        for j, col in enumerate(self.columns):
            if len(set(col)) != n:
                raise NotAQuandle("right-bijectivity", (j,))
        witness = first_failure(rows, _distributive_side)
        if witness:
            raise NotAQuandle("right-distributivity", witness)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def first_moved(self) -> tuple[int, int, int] | None:
        """The first right translation that moves a point, as (s, t, t*s): s
        the least point whose column is not the identity, t the least point
        R_s moves; None on a trivial quandle. Computed on first use and
        kept: the right side of the fast path and `is_trivial_quandle` read
        it."""
        for s, col in enumerate(self.columns):
            for t, image in enumerate(col):
                if image != t:
                    return s, t, image
        return None

    @cached_property
    def first_merged(self) -> tuple[int, int, int, int] | None:
        """The first left translation that merges two points, as
        (s, t1, t2, s*t2): s the least point whose row is not injective, t2
        the least point whose image under L_s an earlier point has, t1 the
        least such point; None on a latin quandle. Computed on first use and
        kept: the left side of the fast path and `is_latin` read it."""
        n = self.size
        for s, row in enumerate(self.rows):
            if len(set(row)) == n:
                continue
            seen: dict[int, int] = {}
            for t, image in enumerate(row):
                if image in seen:
                    return s, seen[image], t, image
                seen[image] = t
        return None

    @cached_property
    def canonical_table(self) -> tuple[tuple[int, ...], ...]:
        """Lexicographically least relabelling of the table, equal across an
        isomorphism class (`_least_relabelling`).

        Computed on first use and kept. A carrier of more than
        MAX_CANONICAL_N points raises ResourceLimit before the scan starts.
        """
        if self.size > MAX_CANONICAL_N:
            raise ResourceLimit("canonical form", self.size, MAX_CANONICAL_N)
        return _least_relabelling(self.table)


def _least_relabelling(table) -> tuple[tuple[int, ...], ...]:
    """The least of the n! relabellings p of the table, row-major, where p
    sends entry (i, j) = v to (p[i], p[j]) = p[v].

    The relabellings are the pairs (ib, pt) of `_relabellings(n)`, shared by
    every table of the order: ib holds the old points in new-label order
    (ib = p^-1) and pt sends old points to new labels (pt = p), so row i of
    the relabelled table is ib.translate(rows[ib[i]]).translate(pt): old row
    ib[i], read in new-label order, relabelled. The rows are byte strings,
    which compare as the tuples of ints do. A candidate is dropped at the
    first row that exceeds the same row of the least table so far, since the
    rows after it cannot make it smaller.
    """
    n = len(table)
    rows = [bytes(row).ljust(256, b"\0") for row in table]
    best = [b"\xff" * n] * n  # above every row of a relabelling
    for ib, pt in _relabellings(n):
        row = ib.translate(rows[ib[0]]).translate(pt)
        if row > best[0]:
            continue
        cand = [row]
        tied = row == best[0]  # every row so far equals best's
        for i in range(1, n):
            row = ib.translate(rows[ib[i]]).translate(pt)
            if tied:
                if row > best[i]:
                    break
                tied = row == best[i]
            cand.append(row)
        else:
            best = cand
    return tuple(map(tuple, best))


@lru_cache(maxsize=1)
def _relabellings(n: int) -> tuple[tuple[bytes, bytes], ...]:
    """The n! relabellings of an n-point carrier in `permutations` order, each
    as (ib, pt): ib the byte string of a permutation, pt =
    bytes.maketrans(ib, ident) its inverse as a 256-byte translation table,
    so ib.translate(pt) is ident. Only the last order asked for is kept
    (1.9 MB at n = 7, 15.8 MB at n = 8)."""
    ident = bytes(range(n))
    maketrans = bytes.maketrans
    return tuple((ib, maketrans(ib, ident)) for ib in map(bytes, permutations(ident)))


def _distributive_side(col: bytes, maps: list[bytes]) -> bytes:
    """(a*c)*(b*c) for all a and b, in row-major order, c the given column:
    row a*c translates the column."""
    return b"".join(map(col.translate, map(maps.__getitem__, col)))


# ---------------------------------------------------------------------------
# built-in families


def trivial_quandle(n: int) -> FiniteQuandle:
    """x*y = x."""
    check_carrier(n)
    table = tuple(tuple(i for _ in range(n)) for i in range(n))
    return FiniteQuandle(table, name=f"trivial:{n}")


def dihedral_quandle(n: int) -> FiniteQuandle:
    """Carrier Z_n with i*j = 2j - i mod n."""
    check_carrier(n)
    table = tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n))
    return FiniteQuandle(table, name=f"dihedral:{n}")


def affine_quandle(n: int, alpha: int) -> FiniteQuandle:
    """Carrier Z_n with i*j = alpha*i + (1-alpha)*j mod n; alpha must be a unit."""
    if math.gcd(alpha, n) != 1:
        raise NotInvertible(alpha, n)
    check_carrier(n)
    table = tuple(
        tuple((alpha * i + (1 - alpha) * j) % n for j in range(n)) for i in range(n)
    )
    return FiniteQuandle(table, name=f"affine:{n}:{alpha}")


def conj_quandle(g: FiniteGroup) -> FiniteQuandle:
    """Conjugation quandle on the carrier of g: i*j = j^-1 i j."""
    n = g.size
    table = tuple(
        tuple(g.mul(g.mul(g.inv(j), i), j) for j in range(n)) for i in range(n)
    )
    return FiniteQuandle(table, name=f"conj:{g.name}" if g.name else None)


def core_quandle(g: FiniteGroup) -> FiniteQuandle:
    """Core quandle on the carrier of g: i*j = j i^-1 j."""
    n = g.size
    table = tuple(
        tuple(g.mul(g.mul(j, g.inv(i)), j) for j in range(n)) for i in range(n)
    )
    return FiniteQuandle(table, name=f"core:{g.name}" if g.name else None)


def generalized_alexander_quandle(g: FiniteGroup, phi: GroupAutomorphism) -> FiniteQuandle:
    """i*j = phi(i j^-1) j for an automorphism phi of g."""
    if phi.group != g:
        raise ValueError("automorphism does not belong to the given group")
    n = g.size
    table = tuple(
        tuple(g.mul(phi(g.mul(i, g.inv(j))), j) for j in range(n)) for i in range(n)
    )
    return FiniteQuandle(table)


def product_quandle(qs: Sequence[FiniteQuandle]) -> FiniteQuandle:
    """Componentwise operation on the product carrier, the factors' tables
    combined left to right by `groups.product_table`."""
    if not qs:
        raise ValueError("product of an empty family")
    check_carrier(math.prod(q.size for q in qs))
    return FiniteQuandle(reduce(product_table, [q.table for q in qs]))


# ---------------------------------------------------------------------------
# the inner group


def inner_group(q: FiniteQuandle) -> PermutationGroup:
    """Permutation group generated by all right translations."""
    return closure(q.columns, q.size)


# ---------------------------------------------------------------------------
# structural predicates


def is_latin(q: FiniteQuandle) -> bool:
    """Every left translation is a bijection: no row merges two points
    (`FiniteQuandle.first_merged`), and an injective self-map of a finite
    carrier is onto."""
    return q.first_merged is None


def is_involutory(q: FiniteQuandle) -> bool:
    """Every right translation squares to the identity."""
    ident = identity_perm(q.size)
    return all(compose(col, col) == ident for col in q.columns)


def is_trivial_quandle(q: FiniteQuandle) -> bool:
    """Every right translation is the identity, s*e = s for all s and e: no
    column moves a point (`FiniteQuandle.first_moved`)."""
    return q.first_moved is None


def orbits(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    """Orbit decomposition of the carrier under the inner group, each orbit
    sorted, ordered by least point.

    The inner group is generated by the right translations, a finite set of
    permutations, so the orbit of x is every point reached from x by
    applying them: the closure of {x} under y -> y*s for all s, whose
    images are row y. Each point's row is read once. The least point not yet
    in an orbit starts the next one, so the orbits come out ordered by least
    point, and no group is built.
    """
    rows = q.rows
    placed: set[int] = set()
    out = []
    for x in range(q.size):
        if x in placed:
            continue
        orbit = {x}
        reached = [x]
        for y in reached:  # grows while it is read
            for z in rows[y]:
                if z not in orbit:
                    orbit.add(z)
                    reached.append(z)
        placed |= orbit
        out.append(tuple(sorted(orbit)))
    return tuple(out)
