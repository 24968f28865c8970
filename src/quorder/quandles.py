"""Finite quandles as validated Cayley tables.

The table is row-major with rows holding the left argument: entry (i, j) is
i*j. Right translations are therefore column read-offs and left translations
are row read-offs. The constructor always runs the full axiom check, so
every table built through it, and every quandle the package returns, is
valid. One private path skips it: `search.generate_all_quandles` wraps the
tables its column search finds without a check, only to compare their
canonical forms, and builds each class it returns through the constructor.
A carrier has at most `groups.MAX_CARRIER_N` = 256 points, one byte each,
and the checks read the table as one row-major byte string
(`groups.byte_table`): the entries, the diagonal and each column, which
must hold every point, are tested in C, and only a failed test looks for
its witness in Python. Right-distributivity is checked in C, one
column at a time, and only on the
columns that the columns checked before them do not reach
(`groups.first_failure`): column c holds exactly when R_c, a permutation
by then, is an automorphism, and R_(x*s) = R_s R_x R_s^-1, so the columns
that hold are closed under the operation. A column that is the identity
map holds without a comparison. At most two columns decide a dihedral
quandle, and none a trivial one. A failure names the first failing triple.

A quandle keeps its translation maps as fields (`rows`, the table, and
`columns`, its transpose) and computes two facts about them once, on first
use: the first right translation that moves a point (`first_moved`) and
the first left translation that merges two points (`first_merged`). The
fast decisions of `search` and the predicates `is_trivial_quandle` and
`is_latin` read them.

The canonical form (`canonical_table`), the least of the table's n!
relabellings, is computed on first use too, up to MAX_CANONICAL_N points.
Each order's relabellings are built once, as byte tables that relabel a
whole table with two `bytes.translate` calls (`_relabellings`), and kept for
every order. A form is the least of those relabellings that can have the
least row 0, taken by one `min` in C (`_least_relabelling`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import chain, permutations, repeat

from .errors import NotAQuandle, NotInvertible, ResourceLimit
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    PermutationGroup,
    byte_table,
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
    entry; a column; a triple (a, b, c) in lexicographic order. Every check
    runs in C on the table's row-major bytes (`groups.byte_table`, then the
    diagonal and each column against the points, then
    `groups.first_failure` on a set of columns that generates the
    quandle); only a failed entry or diagonal check scans the rows for its
    witness.
    """

    _fields = ("table", "name")
    _compared = ("table",)

    def __init__(self, table: Sequence[Sequence[int]], name: str | None = None):
        n = len(table)
        check_carrier(n)
        table = tuple(map(tuple, table))
        self.__dict__.update(table=table, name=name, size=n, rows=table, columns=tuple(zip(*table)))
        if n == 0:
            raise NotAQuandle("nonempty carrier", ())
        flat = byte_table(table, NotAQuandle, "square table", "entry in range")
        points = bytes(range(n))
        if flat[:: n + 1] != points:  # the diagonal
            i = next(i for i in range(n) if table[i][i] != i)
            raise NotAQuandle("idempotency", (i, i))
        for j in range(n):
            if points.translate(None, flat[j::n]):
                raise NotAQuandle("right-bijectivity", (j,))
        witness = first_failure(flat, _distributive_side)
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
        isomorphism class: one C-level `min` over the relabellings whose row
        0 can be least (`_least_relabelling`).

        Computed on first use and kept. A carrier of more than
        MAX_CANONICAL_N points raises ResourceLimit before the scan starts.
        """
        if self.size > MAX_CANONICAL_N:
            raise ResourceLimit("canonical form", self.size, MAX_CANONICAL_N)
        return _least_relabelling(self.table)


def _least_relabelling(table) -> tuple[tuple[int, ...], ...]:
    """The least of the n! relabellings p of the table, row-major, where p
    sends entry (i, j) = v to (p[i], p[j]) = p[v].

    The table is read as its row-major bytes, padded to 256, and each
    relabelling as the pair (P, pt) of `_relabellings(n)`, shared by every
    table of the order: P.translate(flat) reads entry (ib[i], ib[j]) into
    position (i, j), ib = p^-1, and .translate(pt) relabels the entries.
    Byte strings compare in row-major order, as the tuples of rows do, so one
    C-level `min` over the candidates gives the least.

    Only the first-row-minimal candidates are built. Let k(x) be the number
    of points y with x*y = x. The relabelling by p has exactly k(p^-1(0))
    zeros in row 0, and for a point x of greatest k some relabelling with
    p^-1(0) = x starts row 0 with k(x) zeros, so every candidate whose
    p^-1(0) has a smaller k is greater already at row 0. The relabellings
    with p^-1(0) = x are block x of `permutations` order, (n-1)! candidates
    in a row, and only the blocks of greatest k are scanned. No block is cut
    on a table where every point has the same k, as on every connected
    quandle and on trivial:8 and dihedral:8.
    """
    n = len(table)
    flat = bytes(chain.from_iterable(table)).ljust(256, b"\0")
    positions, labels = _relabellings(n)
    k = [row.count(x) for x, row in enumerate(table)]
    top = max(k)
    size = math.factorial(n - 1)
    translate = bytes.translate
    best = min(
        min(map(translate, map(translate, positions[lo : lo + size], repeat(flat)), labels[lo : lo + size]))
        for lo, kx in zip(range(0, n * size, size), k)
        if kx == top
    )
    return tuple(tuple(best[i : i + n]) for i in range(0, n * n, n))


@lru_cache(maxsize=None)
def _relabellings(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The n! relabellings p of an n-point carrier in `permutations` order,
    as two tuples (P, pt) with ib the byte string of a permutation and
    p = ib^-1:

    - P, the position table: P[i*n + j] = ib[i]*n + ib[j], n*n bytes. Row i
      is ib read through a 256-byte table that shifts a point by ib[i]*n,
      so each P is n `bytes.translate` calls and one join.
    - pt = bytes.maketrans(ib, ident), p as a 256-byte translation table,
      so ib.translate(pt) is ident.

    Every order asked for is kept, since a census walks the orders 1..N:
    1.95 MB at n = 7, 2.3 MB for all orders up to 7, and 16.2 MB more at
    n = 8."""
    ident = bytes(range(n))
    shifts = [bytes(a * n + v if v < n else 0 for v in range(256)) for a in range(n)]
    join, maketrans = b"".join, bytes.maketrans
    perms = list(map(bytes, permutations(ident)))
    positions = tuple(join(map(ib.translate, map(shifts.__getitem__, ib))) for ib in perms)
    return positions, tuple(maketrans(ib, ident) for ib in perms)


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
