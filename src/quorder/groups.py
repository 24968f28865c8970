"""Finite groups by Cayley table, and permutation groups by closure.

Elements are always the integers 0..n-1; the table entry at row i, column j
is the product i*j. Permutations are index tuples p with p[x] the image of x,
composed so that ``compose(p, q)`` applies q first. A `PermutationGroup` is
its degree and its element set; `closure` builds the group that permutations
generate, by breadth-first search, and it serves `quandles.inner_group`.

A carrier has at most MAX_CARRIER_N = 256 points, so a point fits in a
byte and a table is one row-major byte string of n^2 points
(`byte_table`), which every table check reads. Its entries are in range
when deleting the bytes 0..n-1 leaves nothing. A row (a slice of n bytes)
or a column (every n-th byte) of points is a permutation when deleting its
bytes from the n points leaves nothing. The three-variable axioms,
associativity here and right-distributivity in `quandles`, are checked by
`first_failure`: both sides of the identity are built column by column
with `bytes.translate` and compared as bytes, and the first failing triple
is read off the comparisons.

Only a covering set of columns is checked. Call column c good when the
identity holds for every (a, b) with that c; the good columns are closed
under the operation, so once the good columns checked generate the carrier,
every column is good:
- right-distributivity on column c says that R_c: x -> x*c is an
  endomorphism, and an automorphism once its column is a permutation. For
  automorphisms R_x and R_s, R_(x*s) = R_s R_x R_s^-1 is one too;
- associativity on column c says (ab)c = a(bc) for all a and b. If it
  holds on x and on s, then (ab)(xs) = ((ab)x)s = (a(bx))s = a((bx)s) =
  a(b(xs)), so it holds on xs: Light's associativity test (A. H. Clifford
  and G. B. Preston, The Algebraic Theory of Semigroups I, 1961, §1.2).
A column c that is the identity map is good for both, (a*b)*c = a*b =
(a*c)*(b*c) and (ab)c = ab = a(bc), so it joins the cover without a
comparison. A cyclic group's table and a dihedral quandle are decided on
at most two columns, so the check costs O(|S|·n^2) for a cover S, not
O(n^3); a trivial quandle, whose columns are all identity maps, is
decided on none.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import permutations

from .errors import NotAGroup, NotAnAutomorphism, NotAPermutation, ResourceLimit
from .values import Value, cached_property

Perm = tuple[int, ...]

MAX_CARRIER_N = 256  # largest carrier a Cayley table is built for: a point fits in a byte


def check_carrier(n: int) -> None:
    """Raise ResourceLimit past MAX_CARRIER_N, before an n-point table with
    n^2 entries is built or checked."""
    if n > MAX_CARRIER_N:
        raise ResourceLimit("carrier size", n, MAX_CARRIER_N)


# ---------------------------------------------------------------------------
# permutation primitives


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def is_permutation(mapping: Sequence[int], degree: int) -> bool:
    """Whether mapping holds each int 0..degree-1 once; bools are ints, and
    1.0 is not."""
    return (
        len(mapping) == degree
        and all(isinstance(x, int) for x in mapping)
        and sorted(mapping) == list(range(degree))
    )


def compose(p: Perm, q: Perm) -> Perm:
    """Composite permutation applying q first, then p."""
    return tuple(p[x] for x in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation, fixed points included; a
    relabelling of the points (a conjugate of p) has the same cycle type."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


# ---------------------------------------------------------------------------
# axiom checks on Cayley tables


def byte_table(table, error, not_square: str, out_of_range: str) -> bytes:
    """The n^2 entries of an n-point table, n at most MAX_CARRIER_N, as one
    row-major byte string, one point per byte: entry (i, j) is byte i*n + j,
    row i the slice from i*n and column j every n-th byte from j.

    The entries are in range when deleting the bytes 0..n-1 from the string
    leaves nothing. A row that is not n long, or an entry that is not an int
    (bools are ints) in 0..n-1, raises error(not_square, (i,)) or
    error(out_of_range, (i, j)) at the first, in row-major order; only then
    are the rows scanned in Python.
    """
    n = len(table)
    try:
        flat = b"".join(map(bytes, table))
    except (TypeError, ValueError):  # an entry that is no int, or not in 0..255
        pass
    else:
        if set(map(len, table)) == {n} and not flat.translate(None, bytes(range(n))):
            return flat
    for i, row in enumerate(table):  # find the first bad row or entry
        if len(row) != n:
            raise error(not_square, (i,))
        for j, v in enumerate(row):
            if not (isinstance(v, int) and 0 <= v < n):
                raise error(out_of_range, (i, j))


def first_failure(flat: bytes, right_side) -> tuple[int, int, int] | None:
    """The first (a, b, c), in lexicographic order, where (a*b)*c differs
    from right_side, or None when the identity holds for every triple.

    The table is its row-major entries, one byte each (`byte_table`). Row x,
    padded to 256 bytes, is the translation map t -> x*t, and column c is
    every n-th byte from c. The entries translated by column c are (a*b)*c
    for all a and b, and right_side(col, maps) builds the other side from
    column c and the row maps, in the same order, so one comparison checks
    the column.

    The columns that hold must be closed under the operation, as they are
    for associativity and, once every column is a permutation, for
    right-distributivity (module docstring). The columns are then walked
    in order, and a column is checked only if the columns checked so far
    do not reach it: the points reached are closed under x -> x*s for every
    checked s, one `bytes.translate` per step. A column that is the
    identity map satisfies both axioms and is checked without a comparison.
    None is returned once every point is reached. At the first column c that fails, every
    column before it holds, so the columns from c on are compared in full
    (`_first_triple`) and the first failing triple is named.
    """
    n = math.isqrt(len(flat))
    pad = bytes(256 - n)
    maps = [flat[i : i + n] + pad for i in range(0, n * n, n)]
    ident = bytes(range(n))
    checked = bytearray()  # the columns checked, all of which hold
    seen = bytearray()  # the points they reach, whose columns hold too
    for c in range(n):
        if c in seen:
            continue
        col = flat[c::n]
        m = col + pad
        if col != ident and flat.translate(m) != right_side(col, maps):
            return _first_triple(flat, maps, right_side, c)
        checked.append(c)
        seen.append(c)
        # the points reached under the new column, and c under every column checked
        fresh = (seen.translate(m) + checked.translate(maps[c])).translate(None, seen)
        while fresh:
            fresh = set(fresh)  # each new point once
            seen.extend(fresh)
            fresh = b"".join(map(checked.translate, map(maps.__getitem__, fresh))).translate(None, seen)
        if len(seen) == n:
            return None


def _first_triple(flat: bytes, maps: list[bytes], right_side, start: int) -> tuple[int, int, int]:
    """The first failing (a, b, c) of a table whose columns before start
    hold and whose column start fails: the first byte i where the two sides
    of column c differ gives the first failing (a, b) = divmod(i, n) for
    that c, and the least (i, c) over the columns from start the first
    failing triple."""
    n = len(maps)
    pad = bytes(256 - n)
    first = (n * n, 0)
    for c in range(start, n):
        col = flat[c::n]
        left = flat.translate(col + pad)
        right = right_side(col, maps)
        if left != right:
            # the highest set bit of the xor lies in the first differing byte
            diff = int.from_bytes(left, "big") ^ int.from_bytes(right, "big")
            first = min(first, (n * n - (diff.bit_length() + 7) // 8, c))
    i, c = first
    return (*divmod(i, n), c)


def _associative_side(col: bytes, maps: list[bytes]) -> bytes:
    """a*(b*c) for all a and b, in row-major order, c the given column."""
    return b"".join(map(col.translate, maps))


# ---------------------------------------------------------------------------
# Cayley-table groups


class FiniteGroup(Value):
    """Group on {0..n-1} given by its full multiplication table.

    Construction validates every axiom eagerly, in this order: at most
    MAX_CARRIER_N points (ResourceLimit), before anything else is read; a
    nonempty square table of ints (bools are ints) in 0..n-1, the first bad
    row or entry named in row-major order; rows, then columns, are
    permutations; the identity is a plain int in 0..n-1 (not 0.0, "0" or
    None) and behaves; associativity holds for every triple, checked in C
    by `first_failure` on a set of columns that generates the group, so
    NotAGroup names the first failing (a, b, c) in lexicographic order.
    Every check reads the table's row-major bytes (`byte_table`): the rows,
    the columns and the identity's row and column are compared with the
    points in C, and only a failed check looks for its witness in Python.
    """

    _fields = ("table", "identity", "name")
    _compared = ("table", "identity")

    def __init__(self, table: Sequence[Sequence[int]], identity: int, name: str | None = None):
        n = len(table)
        check_carrier(n)
        table = tuple(map(tuple, table))
        self.__dict__.update(table=table, identity=identity, name=name)
        if n == 0:
            raise NotAGroup("empty carrier")
        flat = byte_table(table, NotAGroup, "table is not square", "entry out of range")
        points = bytes(range(n))
        for i in range(n):
            if points.translate(None, flat[i * n : i * n + n]):
                raise NotAGroup(f"row {i} is not a permutation", (i,))
        for j in range(n):
            if points.translate(None, flat[j::n]):
                raise NotAGroup(f"column {j} is not a permutation", (j,))
        e = identity
        if type(e) is not int or not (0 <= e < n):
            raise NotAGroup("identity index out of range", (e,))
        if flat[e * n : e * n + n] != points or flat[e::n] != points:
            x = next(x for x in range(n) if table[e][x] != x or table[x][e] != x)
            raise NotAGroup("identity fails", (e, x))
        witness = first_failure(flat, _associative_side)
        if witness:
            raise NotAGroup("associativity fails", witness)

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        inv = [0] * self.size
        for a in range(self.size):
            inv[a] = self.table[a].index(self.identity)
        return tuple(inv)

    def inv(self, a: int) -> int:
        return self.inverses[a]


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with addition mod n and identity 0."""
    if n < 1:
        raise NotAGroup("carrier must be nonempty")
    check_carrier(n)
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(table, 0, name=f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """Sym(n) as a Cayley table over the lexicographically sorted permutations."""
    check_carrier(math.factorial(n))
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(tuple(index[compose(p, q)] for q in elems) for p in elems)
    return FiniteGroup(table, index[identity_perm(n)], name=f"S{n}")


def product_table(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The componentwise operation of two tables; the pair (x, y) over sizes
    (k, m) is the point x*m + y, so the last factor varies fastest."""
    m = len(b)
    n = len(a) * m
    return tuple(tuple(a[x // m][y // m] * m + b[x % m][y % m] for y in range(n)) for x in range(n))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; the pair (a, b) is the element a*|h| + b."""
    check_carrier(g.size * h.size)
    name = f"{g.name}x{h.name}" if g.name and h.name else None
    return FiniteGroup(product_table(g.table, h.table), g.identity * h.size + h.identity, name=name)


class GroupAutomorphism(Value):
    """A bijection of the carrier preserving the group operation."""

    _fields = ("group", "map")

    def __init__(self, group: FiniteGroup, map: Sequence[int]):
        m = tuple(map)
        self.__dict__.update(group=group, map=m)
        n = group.size
        if not is_permutation(m, n):
            raise NotAnAutomorphism("map is not a bijection")
        for x in range(n):
            for y in range(n):
                if m[group.mul(x, y)] != group.mul(m[x], m[y]):
                    raise NotAnAutomorphism("map does not preserve products", (x, y))

    def __call__(self, x: int) -> int:
        return self.map[x]


def scaling_automorphism(g: FiniteGroup, alpha: int) -> GroupAutomorphism:
    """The map x -> x^alpha; multiplication by alpha on Z_n.

    Every element's order divides |g|, so x^alpha = x^(alpha mod |g|).
    Validated on construction, so a non-unit alpha raises NotAnAutomorphism.
    """
    mapping = []
    for x in range(g.size):
        acc = g.identity
        for _ in range(alpha % g.size):
            acc = g.mul(acc, x)
        mapping.append(acc)
    return GroupAutomorphism(g, tuple(mapping))


# ---------------------------------------------------------------------------
# permutation groups


class PermutationGroup(Value):
    """A set of permutations of {0..degree-1} closed under the group operations."""

    _fields = ("degree", "elements")

    def __init__(self, degree: int, elements: Iterable[Perm]):
        elements = frozenset(tuple(p) for p in elements)
        self.__dict__.update(degree=degree, elements=elements)
        for p in elements:
            if not is_permutation(p, degree):
                raise NotAPermutation(p)
        if identity_perm(degree) not in elements:
            raise NotAPermutation(identity_perm(degree))

    @property
    def order(self) -> int:
        return len(self.elements)


def closure(generators: Iterable[Perm], degree: int, max_size: int | None = 10000) -> PermutationGroup:
    """Smallest permutation group containing the generators, by breadth-first
    search.

    Every generator is validated first. The group H built so far starts as
    the identity; a generator already in H is skipped, and one that is not is
    kept. Every element of H, old or new, is then multiplied by each kept
    generator until nothing new appears. The result holds the identity and is
    closed under right multiplication by the kept generators, so in a finite
    group it is the generated group.

    Only the generators are validated: every element is composed from them,
    so the group is built without the constructor's check of each element.

    Elements are counted one at a time, the identity first, so ResourceLimit
    is raised the moment the group reaches max_size + 1 elements, with exactly
    that count as the requested size. A group of max_size elements passes;
    None means no cap.
    """
    gens = []
    for g in generators:
        g = tuple(g)
        if not is_permutation(g, degree):
            raise NotAPermutation(g)
        gens.append(g)
    cap = math.inf if max_size is None else max_size
    elements = [identity_perm(degree)]
    seen = set(elements)
    if len(seen) > cap:
        raise ResourceLimit("permutation closure", 1, max_size)
    kept: list[Perm] = []
    for g in gens:
        if g in seen:
            continue
        kept.append(g)
        for p in elements:  # elements grows while it is scanned
            for t in kept:
                pt = compose(p, t)
                if pt not in seen:
                    seen.add(pt)
                    elements.append(pt)
                    if len(seen) > cap:
                        raise ResourceLimit("permutation closure", len(seen), max_size)
    group = object.__new__(PermutationGroup)
    group.__dict__.update(degree=degree, elements=frozenset(seen))
    return group


def is_cyclic(g: PermutationGroup) -> bool:
    """True iff some element has order |g|: the lcm of its cycle lengths."""
    return any(math.lcm(*cycle_type(p)) == g.order for p in g.elements)


def is_semiregular(g: PermutationGroup) -> bool:
    """True iff every point's orbit has |g| points."""
    return all(len({p[x] for p in g.elements}) == g.order for x in range(g.degree))
