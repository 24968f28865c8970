"""Decision procedures and closed-form enumeration for the five order spaces
of a quandle, one row each in SPACES: RCO, LCO and BCO (circular orderings
invariant under right, left and both translations) and RO and LO (right and
left orderings).

Two tiers answer every orderability question. The structural fast path
rests on the fixed-point lemma: s*s = s, so every translation fixes its own
base point, and an order-preserving bijection of a finite circle or chain
that fixes a point is the identity. Beyond two points, then, only trivial
quandles are right circularly orderable or right orderable, and no quandle
is left or bi-circularly orderable, or left orderable. One function per side
decides both the circle and the chain, and no decision builds a permutation
group. A negative verdict carries a pointwise certificate naming one
translation that breaks the order: on the right side (RCO, RO) the first
right translation that moves a point, on the left side (LCO, BCO, LO) the
first non-injective left translation, else L_0, which moves 1. Both facts
are computed once per quandle and kept (`FiniteQuandle.first_moved` and
`first_merged`), so the five fast paths, and `is_trivial_quandle` and
`is_latin`, read them instead of scanning the translations again. A fast
verdict builds its evidence when first read (`Verdict`): the identity
arrangement or ranking for a yes, its side's certificate for a no.

By the same lemma a finite order space is either its whole ground set of
arrangements or rankings or empty, so `enumerate_space` is a closed form:
it takes the fast verdict, builds nothing for a no, and returns the ground
set unfiltered for a yes. The brute tier filters byte forms with the
translation test, `corders.survivors`, which runs in C one map at a time.
`ground_form` builds a ground set's byte form straight from the tuples
`itertools.permutations` yields, and the brute tier makes order objects
only for what it returns: `brute_space` for the members it keeps, and
`decide`'s brute strategy for the first of them, its witness.
`embedding_image` re-checks the image of the ranking space with the same
filter, on the arrangements it already holds. The brute tier is the
independent oracle, and only oracle paths run it: `decide`'s auto strategy
diffs the two tiers up to ORACLE_MAX_N points, and `census` diffs every
fast-path verdict against the size the same filter finds on byte forms
built once per order, without building any order object for them.

The census classifies the quandles of each order up to isomorphism by one
relabelling search: the canonical form, the least of a table's n!
relabellings, computed once per quandle by one C-level `min`
(`FiniteQuandle.canonical_table`). Two quandles are isomorphic exactly
when their forms are equal, and each class is reported as its form.

`DECIDERS` and `ENUMERATORS` hold, per CLI property, `decide` and
`enumerate_space` with a row's kind bound by `functools.partial`; the ten
per-space names (`decide_right_circular` ... `enumerate_left_orderings`)
are those same objects, with no body of their own.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import chain, permutations
from operator import attrgetter

from .corders import (
    ByteForm,
    CyclicOrder,
    LinearOrder,
    byte_form,
    circular_from_linear,
    survivors,
)
from .errors import (
    DegenerateTriple,
    DiagonalPair,
    InternalInconsistency,
    ResourceLimit,
)
from .groups import Perm, cycle_type

# uncalled here: perfbench/tracing.py wraps these names; they can go once the
# benchmark reads its layer times from a Stats collector instead
from .corders import is_left_invariant, is_left_order, is_right_invariant, is_right_order  # noqa: F401
from .groups import closure, is_cyclic, is_semiregular  # noqa: F401
from .quandles import FiniteQuandle, is_involutory, is_latin, is_trivial_quandle
from .quandles import orbits as quandle_orbits
from .values import Value, cached_property


class SearchCaps(Value):
    """Ground-set limits (the CLI's --max-enum); exceeding one raises ResourceLimit.

    They bound output, not work: `enumerate_space` checks them only when a
    nonempty space is about to be listed, and an empty space is returned on
    any carrier. The brute tier checks them before every scan.
    """

    _fields = ("max_circular_n", "max_linear_n")

    # (n-1)! arrangements and n! rankings are listed up to these n
    def __init__(self, max_circular_n: int = 10, max_linear_n: int = 8):
        self.__dict__.update(max_circular_n=max_circular_n, max_linear_n=max_linear_n)


DEFAULT_CAPS = SearchCaps()
ORACLE_MAX_N = 6  # auto decisions cross-check against brute force up to this n
MAX_GENERATE_N = 7  # quandles are generated up to this order

# certificate kinds
NON_INJECTIVE_LEFT = "non-injective-left-translation"
NON_IDENTITY_RIGHT = "non-identity-right-translation"
NON_IDENTITY_LEFT = "non-identity-left-translation"
EXHAUSTED = "exhaustive-search"


class Certificate(Value):
    """Structural reason backing a negative verdict, with checkable data.

    Unhashable, since `data` is a dict.
    """

    _fields = ("kind", "data", "detail")

    def __init__(self, kind: str, data: dict, detail: str):
        fields = self.__dict__
        fields["kind"] = kind
        fields["data"] = data
        fields["detail"] = detail


class Verdict(Value):
    """Decision result: a witness when yes, a certificate when no.

    `Verdict(answer, witness=..., certificate=...)` sets the evidence at once.
    The fast path's verdicts (`_lazy_verdict`) build their evidence on first
    read (`values.cached_property`), the identity order for a yes and their
    side's certificate for a no, so a caller that reads only `.answer`, as
    `census` does, builds neither. Equality, hashing and repr read the
    fields, so a lazy verdict compares, hashes and prints as the eager one
    with the same evidence does.
    """

    _fields = ("answer", "witness", "certificate")

    def __init__(
        self,
        answer: bool,
        witness: CyclicOrder | LinearOrder | None = None,
        certificate: Certificate | None = None,
    ):
        if answer and witness is None:
            raise ValueError("positive verdict requires a witness")
        if not answer and certificate is None:
            raise ValueError("negative verdict requires a certificate")
        fields = self.__dict__
        fields["answer"] = answer
        fields["witness"] = witness
        fields["certificate"] = certificate

    @cached_property
    def witness(self) -> CyclicOrder | LinearOrder | None:
        _, q, circle = self._recipe
        return _identity_order(q.size, circle) if self.answer else None

    @cached_property
    def certificate(self) -> Certificate | None:
        certify, q, circle = self._recipe
        return None if self.answer else certify(q, circle)


def _lazy_verdict(answer: bool, certify, q: FiniteQuandle, circle: bool) -> Verdict:
    """A verdict whose witness (a yes) is the identity order of q's points
    and whose certificate (a no) is certify(q, circle), built when read."""
    verdict = object.__new__(Verdict)
    verdict.__dict__.update(answer=answer, _recipe=(certify, q, circle))
    return verdict


class OrderSpace(Value):
    """A fully enumerated, canonically sorted order space of a quandle."""

    _fields = ("kind", "members")  # kind: RCO | LCO | BCO | RO | LO

    def __init__(self, kind: str, members: tuple):
        self.__dict__.update(kind=kind, members=members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members


# ---------------------------------------------------------------------------
# ground sets


def _unchecked(cls: type, field: str, values: Iterable, **shared) -> tuple:
    """One `cls` per value, held in `field`, with the `shared` fields set on
    every object, built without the constructor or its checks, for values
    known to pass them: the tuples `permutations` yields (or their byte
    forms, read back as tuples), and the tables the column search finds (of
    which only the size and the canonical form are read)."""
    new, put = object.__new__, object.__setattr__
    objects = []
    for value in values:
        obj = new(cls)
        put(obj, field, value)
        if shared:
            vars(obj).update(shared)
        objects.append(obj)
    return tuple(objects)


def _arrangements(n: int, circle: bool, caps: SearchCaps) -> Iterable[tuple[int, ...]]:
    """The ground set of n points as tuples straight from `permutations`, in
    lexicographic order, once the caps allow it: the (n-1)! cyclic
    arrangements starting at 0 (circle; one, the zero ordering, for n <= 2)
    or the n! rankings."""
    if n < 1:
        raise ValueError("carrier must be nonempty")
    if circle:
        if n > caps.max_circular_n:
            raise ResourceLimit("circular-ordering enumeration", n, caps.max_circular_n)
        return map((0,).__add__, permutations(range(1, n)))
    if n > caps.max_linear_n:
        raise ResourceLimit("ranking enumeration", n, caps.max_linear_n)
    return permutations(range(n))


def enumerate_circular_orderings(n: int, caps: SearchCaps = DEFAULT_CAPS) -> tuple[CyclicOrder, ...]:
    """All circular orderings of an n-element carrier, as canonical arrangements.

    One zero ordering for n <= 2, else the (n-1)! arrangements starting at 0,
    in lexicographic order.
    """
    return _unchecked(CyclicOrder, "arrangement", _arrangements(n, True, caps))


def enumerate_rankings(n: int, caps: SearchCaps = DEFAULT_CAPS) -> tuple[LinearOrder, ...]:
    """All n! rankings of the carrier in lexicographic order."""
    return _unchecked(LinearOrder, "ranking", _arrangements(n, False, caps))


def ground_form(n: int, circle: bool, caps: SearchCaps = DEFAULT_CAPS) -> ByteForm:
    """The byte form of the arrangements (circle) or the rankings of n points,
    each member the byte string of a `permutations` tuple, under the same
    caps as `enumerate_circular_orderings` and `enumerate_rankings` and in
    the same order; no CyclicOrder or LinearOrder is built."""
    return ByteForm(tuple(map(bytes, _arrangements(n, circle, caps))), circle)


def _orders(circle: bool, forms: Iterable[bytes]) -> tuple:
    """The CyclicOrder (circle) or LinearOrder that each byte form holds."""
    if circle:
        return _unchecked(CyclicOrder, "arrangement", map(tuple, forms))
    return _unchecked(LinearOrder, "ranking", map(tuple, forms))


# ---------------------------------------------------------------------------
# the structural fast path: one function per side, for the circle and the chain

# why a translation that moves a point breaks a circular ordering
_CIRCLE = (
    "it fixes its base point, and an order-preserving bijection of a finite circle "
    "with a fixed point is the identity"
)


def _identity_order(n: int, circle: bool) -> CyclicOrder | LinearOrder:
    return (CyclicOrder if circle else LinearOrder)(tuple(range(n)))


def _fast_right(q: FiniteQuandle, circle: bool) -> Verdict:
    """RCO (circle) or RO: R_s fixes s, so a right translation that preserves
    the order is the identity, and only trivial quandles qualify. Every
    quandle on at most two points is trivial, so the circle needs no n <= 2
    case."""
    return _lazy_verdict(q.first_moved is None, _right_certificate, q, circle)


def _right_certificate(q: FiniteQuandle, circle: bool) -> Certificate:
    """`_fast_right`'s no: the first right translation that moves a point
    (`FiniteQuandle.first_moved`)."""
    s, t, image = q.first_moved
    why = _CIRCLE if circle else "a strictly increasing bijection of a finite chain is the identity"
    return Certificate(
        NON_IDENTITY_RIGHT,
        {"base": s, "point": t, "image": image},
        f"right translation by {s} moves {t} to {image}; {why}",
    )


def _fast_left(q: FiniteQuandle, circle: bool) -> Verdict:
    """LCO and BCO (circle) or LO: no left translation is the identity, so
    beyond two points (the circle) or one point (the chain) the answer is no."""
    return _lazy_verdict(q.size <= (2 if circle else 1), _left_certificate, q, circle)


def _left_certificate(q: FiniteQuandle, circle: bool) -> Certificate:
    """`_fast_left`'s no: the first non-injective left translation
    (`FiniteQuandle.first_merged`), else L_0, which fixes 0 and moves 1."""
    merged = q.first_merged
    if merged is not None:
        s, t1, t2, image = merged
        return Certificate(
            NON_INJECTIVE_LEFT,
            {"base": s, "pair": [t1, t2], "image": image},
            f"left translation by {s} sends both {t1} and {t2} to {image}",
        )
    # in a quandle s*t = t forces s = t, so row 0 moves the point 1
    image = q.op(0, 1)
    why = _CIRCLE if circle else "a strictly increasing self-map of a finite chain is the identity"
    return Certificate(
        NON_IDENTITY_LEFT,
        {"base": 0, "point": 1, "image": image},
        f"left translation by 0 moves 1 to {image}; {why}",
    )


# ---------------------------------------------------------------------------
# the order spaces


class _Space(Value):
    """One order space: a ground set, the arrangements (circle) or the
    rankings, filtered by the translations `maps` returns, each of which must
    send a member onto itself. `corders.survivors` runs that test for every
    brute-tier path on byte forms: `brute_space`, `_brute` and `census` on
    the form `ground_form` builds, `embedding_image` on the form of the
    arrangements it holds.
    """

    _fields = ("circle", "maps", "fast", "prop", "flag", "label", "exhausted")

    def __init__(
        self,
        circle: bool,  # arrangements, or rankings
        maps: Callable[[FiniteQuandle], Iterable[Sequence[int]]],  # the translations tested
        fast: Callable[[FiniteQuandle], Verdict],
        prop: str,  # CLI property name
        flag: str,  # census field holding the decision
        label: str,  # what a decision decides
        exhausted: str,  # brute-force refutation, given the ground size
    ):
        self.__dict__.update(
            circle=circle, maps=maps, fast=fast,
            prop=prop, flag=flag, label=label, exhausted=exhausted,
        )


_columns, _rows = attrgetter("columns"), attrgetter("rows")

SPACES = {
    "RCO": _Space(
        True, _columns, lambda q: _fast_right(q, True),
        "right-circular", "right_circularly_orderable", "right-circular orderability",
        "none of the {} circular orderings is right-invariant",
    ),
    "LCO": _Space(
        True, _rows, lambda q: _fast_left(q, True),
        "left-circular", "left_circularly_orderable", "left-circular orderability",
        "none of the {} circular orderings is left-invariant",
    ),
    "BCO": _Space(
        True, lambda q: chain(q.columns, q.rows), lambda q: _fast_left(q, True),
        "bi-circular", "bi_circularly_orderable", "bi-circular orderability",
        "none of the {} circular orderings is both-invariant",
    ),
    "RO": _Space(
        False, _columns, lambda q: _fast_right(q, False),
        "right-order", "right_orderable", "right orderability",
        "none of the {} rankings is a right ordering",
    ),
    "LO": _Space(
        False, _rows, lambda q: _fast_left(q, False),
        "left-order", "left_orderable", "left orderability",
        "none of the {} rankings is a left ordering",
    ),
}

# one-sided spaces by side: (rankings, circular orderings)
_SIDES = {"right": ("RO", "RCO"), "left": ("LO", "LCO")}


def enumerate_space(kind: str, q: FiniteQuandle, caps: SearchCaps = DEFAULT_CAPS) -> OrderSpace:
    """Every member of the named order space, in ground-set order, in closed
    form: empty on a fast-path no (no ground set is built and the caps are
    not consulted), else the whole ground set, since a nonempty space is all
    of it."""
    space = SPACES[kind]
    if not space.fast(q).answer:
        return OrderSpace(kind, ())
    ground = enumerate_circular_orderings if space.circle else enumerate_rankings
    return OrderSpace(kind, ground(q.size, caps))


def brute_space(kind: str, q: FiniteQuandle, caps: SearchCaps = DEFAULT_CAPS) -> OrderSpace:
    """The named order space by definition: the ground set's byte form
    filtered by the space's translation test, every map of it in turn, and
    only the members kept built as orders. The oracle for `enumerate_space`."""
    space = SPACES[kind]
    kept = survivors(ground_form(q.size, space.circle, caps), space.maps(q))
    return OrderSpace(kind, _orders(space.circle, kept))


def _brute(kind: str, q: FiniteQuandle, caps: SearchCaps) -> Verdict:
    """The brute tier's decision: a yes builds one order, the first member
    the filter keeps; a no reports the size of the ground set scanned."""
    space = SPACES[kind]
    form = ground_form(q.size, space.circle, caps)
    found = survivors(form, space.maps(q))
    if found:
        return Verdict(True, witness=_orders(space.circle, found[:1])[0])
    checked = len(form.forms)
    return Verdict(False, certificate=Certificate(EXHAUSTED, {"checked": checked}, space.exhausted.format(checked)))


def _agree(kind: str, fast: bool, exhaustive: bool) -> None:
    """Raise InternalInconsistency unless the fast path's answer for the
    space matches the one an exhaustive scan gave."""
    if fast != exhaustive:
        raise InternalInconsistency(
            kind,
            {"fast": fast, "brute": exhaustive},
            f"fast path and exhaustive search disagree on {SPACES[kind].label}: "
            f"{fast} vs {exhaustive}",
        )


def decide(
    kind: str, q: FiniteQuandle, strategy: str = "auto", caps: SearchCaps = DEFAULT_CAPS
) -> Verdict:
    """Decide whether the named space is nonempty. Runs the requested tiers;
    'auto' diffs them on carriers of at most ORACLE_MAX_N points."""
    if strategy not in ("auto", "fast", "brute"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "brute":
        return _brute(kind, q, caps)
    verdict = SPACES[kind].fast(q)
    if strategy == "auto" and q.size <= ORACLE_MAX_N:
        _agree(kind, verdict.answer, _brute(kind, q, caps).answer)
    return verdict


# By CLI property, `decide` / `enumerate_space` with each row's kind bound. The
# CLI and the census dispatch through these, so rebinding an entry reaches both.
DECIDERS = {space.prop: partial(decide, kind) for kind, space in SPACES.items()}
ENUMERATORS = {space.prop: partial(enumerate_space, kind) for kind, space in SPACES.items()}
# the per-space names, each its dict entry: perfbench/tracing.py wraps them by
# name and swaps the entries by identity; they can go once it no longer does
(decide_right_circular, decide_left_circular, decide_bicircular,
 decide_right_orderable, decide_left_orderable) = DECIDERS.values()
(enumerate_rco, enumerate_lco, enumerate_bicircular,
 enumerate_right_orderings, enumerate_left_orderings) = ENUMERATORS.values()


def _points(q: FiniteQuandle, values) -> bool:
    """True iff values is a list of plain ints (not bools), each a point of q."""
    return isinstance(values, (list, tuple)) and all(
        type(v) is int and 0 <= v < q.size for v in values
    )


# the spaces a pointwise certificate kind refutes, each with the least
# carrier size on which it does: a translation that moves a point or merges
# two breaks every circle of three or more points and every chain of two or more
_REFUTES = {
    NON_IDENTITY_RIGHT: {"RCO": 3, "RO": 2},
    NON_INJECTIVE_LEFT: {"LCO": 3, "BCO": 3, "LO": 2},
    NON_IDENTITY_LEFT: {"LCO": 3, "BCO": 3, "LO": 2},
}


def recheck_certificate(q: FiniteQuandle, cert: Certificate, kind: str) -> bool:
    """Re-validate a certificate as a refutation of the named space of q.

    A pointwise reason is accepted only for the spaces its fact refutes on a
    carrier of this size, and is then checked against the table; an
    exhaustive-search certificate only when its detail names this space and
    the scan, redone under the default caps, refutes the space over exactly
    the stated number of candidates. An unknown certificate kind and
    malformed data (not a dict, a missing key, an index that is not a plain
    int naming a point) are rejected, never raised on.
    """
    space = SPACES[kind]
    data = cert.data
    if not isinstance(data, dict) or not isinstance(cert.kind, str):
        return False
    if cert.kind == EXHAUSTED:
        return (
            cert.detail == space.exhausted.format(data.get("checked"))
            and _brute(kind, q, DEFAULT_CAPS).certificate == cert
        )
    least = _REFUTES.get(cert.kind, {}).get(kind)
    if least is None or q.size < least:
        return False
    if cert.kind == NON_INJECTIVE_LEFT:
        s, pair, image = data.get("base"), data.get("pair"), data.get("image")
        if not (_points(q, [s, image]) and _points(q, pair) and len(pair) == 2):
            return False
        t1, t2 = pair
        return t1 != t2 and q.op(s, t1) == q.op(s, t2) == image
    s, t, image = data.get("base"), data.get("point"), data.get("image")
    if not _points(q, [s, t, image]):
        return False
    moved = q.op(t, s) if cert.kind == NON_IDENTITY_RIGHT else q.op(s, t)
    return moved == image != t


# ---------------------------------------------------------------------------
# subbasis sets


def _side(side: str) -> tuple[str, str]:
    if side not in _SIDES:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return _SIDES[side]


def _check_points(q: FiniteQuandle, values) -> None:
    for v in values:
        if not _points(q, [v]):
            raise ValueError(f"{v!r} is not a point of the {q.size}-point carrier")


def subbasic_circular(
    q: FiniteQuandle, side: str, triple: tuple[int, int, int], caps: SearchCaps = DEFAULT_CAPS
) -> tuple[CyclicOrder, ...]:
    """Members of RCO (side='right') or LCO taking the value +1 on the given
    nondegenerate triple of points; an entry that is not a point raises
    ValueError."""
    x, y, z = triple
    if x == y or y == z or x == z:
        raise DegenerateTriple(f"triple {triple} has a repeated entry")
    _check_points(q, triple)
    _, circular = _side(side)
    return tuple(c for c in enumerate_space(circular, q, caps) if c.evaluate(*triple) == 1)


def subbasic_linear(
    q: FiniteQuandle, side: str, pair: tuple[int, int], caps: SearchCaps = DEFAULT_CAPS
) -> tuple[LinearOrder, ...]:
    """Members of RO (side='right') or LO placing a strictly before b; an
    entry that is not a point raises ValueError."""
    a, b = pair
    if a == b:
        raise DiagonalPair(f"pair {pair} lies on the diagonal")
    _check_points(q, pair)
    linear, _ = _side(side)
    return tuple(o for o in enumerate_space(linear, q, caps) if o.before(a, b))


# ---------------------------------------------------------------------------
# the ranking -> circular ordering map with fibers


class EmbeddingReport(Value):
    """Image and fiber partition of closing every ranking into a cycle."""

    _fields = ("side", "domain", "image", "fibers")

    def __init__(
        self,
        side: str,
        domain: tuple[LinearOrder, ...],
        image: tuple[CyclicOrder, ...],
        fibers: tuple[tuple[CyclicOrder, tuple[LinearOrder, ...]], ...],
    ):
        self.__dict__.update(side=side, domain=domain, image=image, fibers=fibers)

    @property
    def domain_size(self) -> int:
        return len(self.domain)

    @property
    def image_size(self) -> int:
        return len(self.image)

    def fiber_sizes(self) -> tuple[int, ...]:
        return tuple(len(members) for _, members in self.fibers)


def embedding_image(
    q: FiniteQuandle, side: str, caps: SearchCaps = DEFAULT_CAPS
) -> EmbeddingReport:
    """Close every right (or left) ordering into a cycle and report the fibers.

    The image is re-verified against the matching invariance test, all at
    once; rankings that are cyclic rotations of one another share an image
    point, so fibers of size greater than one are expected and reported as-is.
    """
    linear, circular = _side(side)
    space = enumerate_space(linear, q, caps)
    buckets: dict[CyclicOrder, list[LinearOrder]] = {}
    for o in space:
        c = circular_from_linear(o)
        buckets.setdefault(c, []).append(o)
    invariant = set(survivors(byte_form(buckets), SPACES[circular].maps(q))) if buckets else set()
    for c in buckets:
        if bytes(c.arrangement) not in invariant:
            raise InternalInconsistency(
                circular,
                {"ordering-image": True, "invariance": False},
                f"image of a {side} ordering failed the {side}-invariance re-check: {c}",
            )
    image = tuple(sorted(buckets, key=lambda c: c.arrangement))
    fibers = tuple((c, tuple(buckets[c])) for c in image)
    return EmbeddingReport(side, tuple(space.members), image, fibers)


# ---------------------------------------------------------------------------
# quandle catalog


def are_isomorphic(q1: FiniteQuandle, q2: FiniteQuandle) -> bool:
    """True iff some relabelling permutation p carries one table to the other:
    q2(p[i], p[j]) = p[q1(i, j)] for all i, j. Both then have the same
    canonical form, the least such relabelling, and a quandle computes its
    form once (`FiniteQuandle.canonical_table`), so a test against a
    quandle already met costs one comparison of tables.
    """
    return q1.size == q2.size and q1.canonical_table == q2.canonical_table


def canonical_form(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabelling of the table, equal across a
    class: `FiniteQuandle.canonical_table`, computed once per quandle."""
    return q.canonical_table


def _transpose(table) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*table))


def _column_search(candidates: list[list[Perm]]) -> list[tuple[Perm, ...]]:
    """Every assignment of one candidate to each column that satisfies
    self-distributivity, in lexicographic candidate order.

    Column f is assigned after columns 0..f-1. When sigma = c_0 sends some
    j < f to f, the triple (0, j, f) forces c_f = sigma . c_j . sigma^-1, so
    that one permutation is tried, if it is a candidate, instead of every
    candidate; any other would fail that triple's test. A column that
    passes is tested only on the triples (k, j, m = c_k[j]) that name f
    with every index at most f: k = f, j = f, or m = f with j = c_k^-1(f).
    Every other such triple was tested when its own last column was
    assigned, so the search keeps exactly the branches a test of all
    triples would. (k = j is never tested: then m = k and both sides are
    c_k . c_k.)

    The depth-first search runs on an explicit stack of the choices left at
    each assigned column, not by recursion, and no function in it refers to
    itself, so it builds no reference cycle: its state is freed as soon as
    it returns, without the cyclic garbage collector.
    """
    n = len(candidates)
    span = range(n)
    cols: list[Perm | None] = [None] * n
    inverses: list[list[int] | None] = [None] * n
    allowed = [set(column) for column in candidates]
    found: list[tuple[Perm, ...]] = []

    def consistent(f: int) -> bool:
        # c_m[c_k[x]] == c_k[c_j[x]] for every x, on each triple naming f
        cf = cols[f]
        for j in range(f):  # k = f
            m = cf[j]
            if m < f:
                cm, cj = cols[m], cols[j]
                for x in span:
                    if cm[cf[x]] != cf[cj[x]]:
                        return False
        for k in range(f):
            ck = cols[k]
            m = ck[f]  # j = f
            if m <= f:
                cm = cols[m]
                for x in span:
                    if cm[ck[x]] != ck[cf[x]]:
                        return False
            j = inverses[k][f]  # m = f
            if j < f:
                cj = cols[j]
                for x in span:
                    if cf[ck[x]] != ck[cj[x]]:
                        return False
        return True

    pending = [iter(candidates[0])]  # pending[f]: the choices left for column f
    while pending:
        f = len(pending) - 1
        for p in pending[f]:
            cols[f] = p
            if consistent(f):
                break
        else:
            pending.pop()
            continue
        if f + 1 == n:
            found.append(tuple(cols))
            continue
        inverses[f] = sorted(span, key=p.__getitem__)
        f += 1
        choices = candidates[f]
        unsigma = inverses[0]
        j = unsigma[f]
        if j < f:
            sigma, cj = cols[0], cols[j]
            forced = tuple([sigma[cj[y]] for y in unsigma])
            choices = (forced,) if forced in allowed[f] else ()
        pending.append(iter(choices))
    return found


def generate_all_quandles(n: int, up_to_iso: bool = False) -> tuple[FiniteQuandle, ...]:
    """Every quandle of order n, by column-wise backtracking.

    Columns are the right-translation permutations c_0, ..., c_{n-1}; column
    j must fix j, and self-distributivity pins column m = c_k[j] to the
    conjugate c_k . c_j . c_k^-1. `_column_search` assigns the columns in
    turn. A column that column 0 forces (m = c_0[j] with j < m) is derived
    as that conjugate instead of branched over, and each column assigned is
    tested pointwise, as c_m[c_k[x]] == c_k[c_j[x]] for every x, on the
    O(n) triples that name it, so the search keeps exactly the tables a test
    of all triples over all candidates would, in the same order. The
    labelled output follows the lexicographic order of the column tuples
    (c_0, ..., c_{n-1}).

    With up_to_iso the search is orderly. Column 0 takes one fixed
    permutation of each cycle type, and every later column only cycle types
    no greater than column 0's (sorted cycle lengths, compared as tuples).
    No class is lost: relabel a point whose right translation has the
    greatest cycle type to 0, then relabel the other points so that R_0
    becomes the fixed permutation of its type, which a relabelling fixing 0
    can do because it conjugates R_0 by a permutation of 1..n-1. Each table
    found gets one canonical form, the least relabelling of its table, and
    no other relabelling search: `are_isomorphic` dedupes the tables by
    comparing their forms, and each class is returned as its form, with the
    classes sorted by those forms: the numbering `census` reports.

    Every quandle returned passes the FiniteQuandle constructor's axiom
    check, once: the labelled output is every table found, each built by
    the constructor, while with up_to_iso the tables found are wrapped for
    the dedupe without a check (`_unchecked`) and only the class forms are
    built by the constructor. A form is a relabelling of its table, so it
    is a quandle exactly when the table is, and a table the column search
    should not have found still raises NotAQuandle.
    """
    if n > MAX_GENERATE_N:
        raise ResourceLimit("quandle generation", n, MAX_GENERATE_N)
    if n < 1:
        raise ValueError("carrier must be nonempty")
    perms = list(permutations(range(n)))
    candidates = [[p for p in perms if p[j] == j] for j in range(n)]
    if not up_to_iso:
        return tuple(FiniteQuandle(_transpose(cols)) for cols in _column_search(candidates))
    types = {p: cycle_type(p) for p in set(chain.from_iterable(candidates))}
    firsts: dict[tuple[int, ...], Perm] = {}
    for p in candidates[0]:
        firsts.setdefault(types[p], p)
    reps: list[FiniteQuandle] = []
    for ctype, first in firsts.items():
        bounded = [[first]] + [[p for p in column if types[p] <= ctype] for column in candidates[1:]]
        found = _column_search(bounded)
        for q in _unchecked(FiniteQuandle, "table", map(_transpose, found), size=n):
            if not any(are_isomorphic(q, r) for r in reps):
                reps.append(q)
    return tuple(FiniteQuandle(t) for t in sorted(canonical_form(q) for q in reps))


def census(max_n: int, caps: SearchCaps = DEFAULT_CAPS) -> list[dict]:
    """Orderability flags, order-space sizes, and structure for every
    isomorphism class up to max_n.

    The classes are `generate_all_quandles(n, up_to_iso=True)`, each its
    canonical (lexicographically least) table, numbered in that order, so
    reports are stable under relabeling. The space sizes record how large
    the five finite spaces actually come out, not just whether they are
    empty. Every order's ground sets (the arrangements and the rankings)
    are built once, as byte forms straight from `itertools.permutations`
    (`ground_form`), lowest order first and before any class is generated,
    so an order over the caps is refused before any work; each is shared by
    every class of its order, and no CyclicOrder or LinearOrder is built for
    them. Each one-sided space (RCO, LCO, RO, LO) is scanned once per
    class: its size is the brute tier's filter of the ground set (the byte
    kernel `corders.survivors`, which `brute_space` runs too). BCO is
    RCO ∩ LCO by definition, so its members are the arrangements both of
    those filters kept, intersected only when neither is empty, and no
    arrangement is tested for it again. Every space's flag is the fast path's answer,
    through DECIDERS, diffed against its size on every class; census reads
    only the answers, so no witness or certificate is built. The spaces'
    maps, deciders and record keys are read once per call, each record is
    built in one pass, and the structure columns read the translation facts
    the fast path computed.
    A max_n above MAX_GENERATE_N raises ResourceLimit before any order is
    generated.
    """
    if max_n > MAX_GENERATE_N:
        raise ResourceLimit("quandle generation", max_n, MAX_GENERATE_N)
    # SPACES lists RCO, LCO, BCO, RO, LO: the order of the sizes and the fields
    rco, lco, ro, lo = (SPACES[kind] for kind in ("RCO", "LCO", "RO", "LO"))
    checks = [(kind, DECIDERS[space.prop], space.flag) for kind, space in SPACES.items()]
    size_keys = [f"{kind.lower()}_size" for kind in SPACES]
    grounds = [(ground_form(n, True, caps), ground_form(n, False, caps)) for n in range(1, max_n + 1)]
    records = []
    for n, (circles, rankings) in enumerate(grounds, 1):
        for class_id, q in enumerate(generate_all_quandles(n, up_to_iso=True)):
            right = survivors(circles, rco.maps(q))
            left = survivors(circles, lco.maps(q))
            both = len(set(right).intersection(left)) if right and left else 0
            chains = survivors(rankings, ro.maps(q)), survivors(rankings, lo.maps(q))
            sizes = (len(right), len(left), both, *map(len, chains))
            record = {"order": n, "class_id": class_id, "representative_table": [list(row) for row in q.table]}
            for (kind, decider, flag_key), size in zip(checks, sizes):
                record[flag_key] = flag = decider(q, strategy="fast", caps=caps).answer
                _agree(kind, flag, size > 0)
            record.update(zip(size_keys, sizes))
            record["latin"] = is_latin(q)
            record["involutory"] = is_involutory(q)
            record["trivial"] = is_trivial_quandle(q)
            record["orbits"] = [list(orbit) for orbit in quandle_orbits(q)]
            records.append(record)
    return records
