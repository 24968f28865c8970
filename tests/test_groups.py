import math
from itertools import permutations, product

import pytest
from definitional import element_order, first_group_violation, perm_order, permutation_orbits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quorder import (
    FiniteGroup,
    GroupAutomorphism,
    NotAGroup,
    NotAnAutomorphism,
    NotAPermutation,
    PermutationGroup,
    ResourceLimit,
    closure,
    cyclic_group,
    direct_product,
    inner_group,
    is_cyclic,
    is_semiregular,
    scaling_automorphism,
    symmetric_group,
)
from quorder import groups
from quorder.cli import quandle_from_builtin
from quorder.groups import compose, cycle_type, identity_perm, invert, is_permutation

Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

# 5-element loop (latin square with identity 0) that is not associative:
# (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestGroupFromTable:
    def test_cyclic_3_table_is_valid(self):
        g = FiniteGroup(Z3_TABLE, identity=0)
        assert g.size == 3
        assert g.mul(1, 2) == 0

    def test_non_bijective_row_rejected(self):
        with pytest.raises(NotAGroup, match="row 1"):
            FiniteGroup([[0, 1], [1, 1]], identity=0)

    def test_identity_failure_rejected(self):
        with pytest.raises(NotAGroup, match="identity"):
            FiniteGroup([[1, 0], [0, 1]], identity=0)

    @pytest.mark.parametrize(
        "table, witness",
        [
            ([[0.0]], (0, 0)),
            ([[0, 1], [1, 0.0]], (1, 1)),
            ([[0, "1"], [1, 0]], (0, 1)),
            ([[0, None], [1, 0]], (0, 1)),
            ([[1, 0.0], [0, 1]], (0, 1)),  # named before the identity fails at (0, 0)
        ],
    )
    def test_non_int_entry_is_out_of_range(self, table, witness):
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup(table, identity=0)
        assert (exc.value.reason, exc.value.witness) == ("entry out of range", witness)

    @pytest.mark.parametrize("identity", [0.0, "0", None, -1, 2])
    def test_identity_that_is_not_a_point_is_out_of_range(self, identity):
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup([[0, 1], [1, 0]], identity)
        assert (exc.value.reason, exc.value.witness) == ("identity index out of range", (identity,))
        assert first_group_violation([[0, 1], [1, 0]], identity) == ("identity index out of range", (identity,))

    def test_bool_entries_are_accepted(self):
        assert FiniteGroup([[False, True], [True, False]], identity=0) == FiniteGroup([[0, 1], [1, 0]], 0)

    def test_associativity_failure_rejected(self):
        with pytest.raises(NotAGroup, match="associativity") as exc:
            FiniteGroup(NONASSOC_LOOP, identity=0)
        assert exc.value.witness == (1, 1, 2)

    def test_s3_built_from_permutation_composition(self):
        # independent construction: compose the six permutations of 3 points
        elems = sorted(permutations(range(3)))
        index = {p: i for i, p in enumerate(elems)}
        table = [[index[compose(p, q)] for q in elems] for p in elems]
        g = FiniteGroup(table, identity=index[(0, 1, 2)])
        assert g.size == 6
        assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))
        assert g.table == symmetric_group(3).table

    def test_translations_are_bijections(self):
        for g in (cyclic_group(4), symmetric_group(3)):
            n = g.size
            for a in range(n):
                assert sorted(g.mul(a, x) for x in range(n)) == list(range(n))
                assert sorted(g.mul(x, a) for x in range(n)) == list(range(n))


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1 in
    order: a loop with identity 0. Filled cell by cell, row-major."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield tuple(map(tuple, rows))
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(cell + 1)
        rows[i][j] = None

    return list(fill(0))


# 6-element loop (identity 0) that is associative on column 1, (ab)1 =
# a(b1) for all a and b, but not a group: 1*1 = 0, so columns 0 and 1 reach
# only each other, and column 2, checked next, first fails at (4, 2, 2),
# after the loop's first failing triple (2, 2, 4)
LOOP_6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


class TestColumnCover:
    """Associativity is checked only on the columns that the columns checked
    before them do not generate (Light's test)."""

    @pytest.mark.parametrize(
        # the identity's column is an identity map, which holds uncompared
        "build, count", [(lambda: cyclic_group(256), 1), (lambda: symmetric_group(5), 4)], ids=["Z256", "S5"]
    )
    def test_groups_are_accepted_on_a_cover(self, monkeypatch, build, count):
        g = build()
        columns = []
        side = groups._associative_side
        monkeypatch.setattr(groups, "_associative_side", lambda col, maps: columns.append(col) or side(col, maps))
        FiniteGroup(g.table, g.identity)
        assert len(columns) == count

    def test_loop_associative_on_column_1_is_rejected(self):
        n = len(LOOP_6)
        assert all(LOOP_6[LOOP_6[a][b]][1] == LOOP_6[a][LOOP_6[b][1]] for a in range(n) for b in range(n))
        assert first_group_violation(LOOP_6, 0) == ("associativity fails", (2, 2, 4))
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup(LOOP_6, identity=0)
        assert (exc.value.reason, exc.value.witness) == ("associativity fails", (2, 2, 4))


# group tables with identity 0 on 1-8 points, and one on 24
SMALL_GROUPS = [cyclic_group(n).table for n in range(1, 9)] + [
    direct_product(cyclic_group(2), cyclic_group(2)).table,
    direct_product(cyclic_group(2), cyclic_group(4)).table,
    direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2))).table,
    symmetric_group(3).table,
]
S4 = symmetric_group(4).table


@st.composite
def with_edge_entries(draw, tables):
    """One of the tables with one to three entries replaced by n, 255, 256,
    -1, True or False: bytes() refuses -1 and 256 and takes n and 255,
    which are no points, and a bool is the point 0 or 1 (no point on one
    point, for True)."""
    table = [list(row) for row in draw(st.sampled_from(tables))]
    n = len(table)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(st.sampled_from((n, 255, 256, -1, True, False)))
    return table


@st.composite
def swapped_within_a_row(draw, tables):
    """One of the tables, of two points or more, with two entries of one row
    swapped: every row stays a permutation, and the two columns repeat a
    point."""
    table = [list(row) for row in draw(st.sampled_from(tables))]
    n = len(table)
    i = draw(st.integers(0, n - 1))
    j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    table[i][j], table[i][k] = table[i][k], table[i][j]
    return table


def assert_group_validates_like_scan(table, identity):
    """FiniteGroup accepts the table iff the reference scan does, and
    otherwise raises the scan's reason and witness."""
    expected = first_group_violation(table, identity)
    if expected is None:
        FiniteGroup(table, identity=identity)
    else:
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup(table, identity=identity)
        assert (exc.value.reason, exc.value.witness) == expected


class TestValidationOracle:
    """The byte-table check against the definitional triple scan."""

    def test_reduced_latin_squares_up_to_order_5(self):
        # a reduced square is a group table with identity 0 exactly when it
        # is associative: 1, 1, 1, 4 and 6 of the 1, 1, 1, 4 and 56 squares
        accepted = []
        for n in range(1, 6):
            squares = reduced_latin_squares(n)
            count = 0
            for table in squares:
                expected = first_group_violation(table, 0)
                if expected is None:
                    assert FiniteGroup(table, identity=0).table == table
                    count += 1
                else:
                    assert expected[0] == "associativity fails"
                    with pytest.raises(NotAGroup) as exc:
                        FiniteGroup(table, identity=0)
                    assert (exc.value.reason, exc.value.witness) == expected
            accepted.append((count, len(squares)))
        assert accepted == [(1, 1), (1, 1), (1, 1), (4, 4), (6, 56)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-1, n), min_size=n - 1, max_size=n + 1), min_size=n, max_size=n
                ),
                st.integers(-1, n),
            )
        )
    )
    def test_arbitrary_small_tables(self, case):
        assert_group_validates_like_scan(*case)

    @settings(max_examples=200, deadline=None)
    @given(with_edge_entries(SMALL_GROUPS))
    def test_entries_at_the_byte_edges(self, table):
        assert_group_validates_like_scan(table, 0)

    @settings(max_examples=100, deadline=None)
    @given(swapped_within_a_row(SMALL_GROUPS[1:] + [S4]))
    def test_permutation_rows_with_a_column_that_is_not(self, table):
        assert_group_validates_like_scan(table, 0)


class TestCyclicGroup:
    def test_trivial(self):
        g = cyclic_group(1)
        assert g.size == 1 and g.identity == 0

    def test_z3_table(self):
        assert cyclic_group(3).table == tuple(tuple(r) for r in Z3_TABLE)

    def test_z4_is_abelian(self):
        t = cyclic_group(4).table
        assert all(t[a][b] == t[b][a] for a in range(4) for b in range(4))

    def test_inverses(self):
        g = cyclic_group(5)
        assert g.inverses == (0, 4, 3, 2, 1)


class TestDirectProduct:
    def test_klein_four_self_inverse(self):
        g = direct_product(cyclic_group(2), cyclic_group(2))
        assert g.size == 4
        assert all(g.mul(x, x) == g.identity for x in range(4))

    def test_identity_factor(self):
        g = direct_product(cyclic_group(1), cyclic_group(3))
        assert g.table == cyclic_group(3).table

    def test_z2_x_z3_is_cyclic_of_order_6(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        # element (1, 1) packs to 1*3 + 1 = 4
        assert element_order(g.table, g.identity, 4) == 6

    def test_encoding_is_row_major(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        # (1, 2) * (1, 2) = (0, 1): 5 * 5 = 1
        assert g.mul(5, 5) == 1

    def test_three_factors_pack_last_fastest(self):
        # the last factor is Z2 with its identity labelled 1
        factors = [cyclic_group(2), symmetric_group(3), FiniteGroup(((1, 0), (0, 1)), 1)]
        g = direct_product(direct_product(*factors[:2]), factors[2])
        points = list(product(range(2), range(6), range(2)))  # element x is the triple points[x]
        assert points[g.identity] == tuple(f.identity for f in factors)
        for x, xs in enumerate(points):
            for y, ys in enumerate(points):
                assert points[g.mul(x, y)] == tuple(f.mul(a, b) for f, a, b in zip(factors, xs, ys))


@st.composite
def generator_sets(draw):
    """A degree in 1..6 and up to four permutations of that degree, shuffled
    together with up to three repeats of them or of the identity."""
    degree = draw(st.integers(1, 6))
    perms = st.permutations(list(range(degree))).map(tuple)
    gens = draw(st.lists(perms, max_size=4))
    redundant = draw(st.lists(st.sampled_from(gens + [identity_perm(degree)]), max_size=3))
    return degree, draw(st.permutations(gens + redundant))


def _naive_closure(gens, degree):
    """Identity and generators, closed under products with the generators and
    under inverses, by repeating both until nothing new appears."""
    elements = {identity_perm(degree), *gens}
    while True:
        new = {compose(g, p) for p in elements for g in gens} | {invert(p) for p in elements}
        if new <= elements:
            return elements
        elements |= new


class TestClosure:
    def test_identity_only(self):
        g = closure([identity_perm(3)], 3)
        assert g.order == 1

    def test_three_cycle(self):
        g = closure([(1, 2, 0)], 3)
        assert g.order == 3

    def test_two_reflections_generate_sym3(self):
        # x -> -x and x -> 2 - x mod 3
        neg = tuple((-x) % 3 for x in range(3))
        two_minus = tuple((2 - x) % 3 for x in range(3))
        g = closure([neg, two_minus], 3)
        assert g.order == 6
        assert g.elements == frozenset(permutations(range(3)))

    def test_contains_generators_and_is_fixed_point(self):
        gens = [(1, 0, 2, 3), (0, 2, 1, 3)]
        g = closure(gens, 4)
        assert all(tuple(x) in g.elements for x in gens)
        again = closure(g.elements, 4)
        assert again.elements == g.elements

    def test_order_divides_degree_factorial(self):
        for gens, degree in [([(1, 2, 0)], 3), ([(1, 0, 3, 2), (2, 3, 0, 1)], 4)]:
            g = closure(gens, degree)
            assert math.factorial(degree) % g.order == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            closure([(0, 0, 1)], 3)

    def test_rejects_images_that_are_not_ints(self):
        with pytest.raises(NotAPermutation):
            closure([(1.0, 0.0)], 2)
        assert closure([(True, False)], 2).order == 2

    def test_permutation_group_rejects_images_that_are_not_ints(self):
        with pytest.raises(NotAPermutation):
            PermutationGroup(2, [(0, 1), (1.0, 0.0)])

    def test_closure_checks_only_the_generators(self, monkeypatch):
        # the 24 columns of conj:s4 are checked; the 24 elements composed
        # from them are not checked again
        checked = []
        is_perm = groups.is_permutation

        def counted(mapping, degree):
            checked.append(tuple(mapping))
            return is_perm(mapping, degree)

        q = quandle_from_builtin("conj:s4")
        monkeypatch.setattr(groups, "is_permutation", counted)
        g = inner_group(q)
        assert sorted(checked) == sorted(q.columns)
        assert g.order == 24 and g == PermutationGroup(24, g.elements)

    def test_resource_limit(self):
        # Sym(5) has 120 elements; the count stops at the first one over the cap
        with pytest.raises(ResourceLimit) as info:
            closure([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 5, max_size=10)
        assert str(info.value) == "permutation closure: requested 11 exceeds cap 10"

    def test_the_identity_counts_against_the_cap(self):
        with pytest.raises(ResourceLimit) as info:
            closure([], 3, max_size=0)
        assert str(info.value) == "permutation closure: requested 1 exceeds cap 0"
        assert closure([], 3, max_size=1).order == 1

    @settings(max_examples=150, deadline=None)
    @given(generator_sets(), st.integers(0, 720))
    # the identity, a repeat, a power and an inverse: generators already in
    # the group found so far, which are skipped
    @example((3, [(0, 1, 2), (1, 2, 0), (1, 2, 0), (2, 0, 1), (1, 0, 2), (1, 0, 2)]), 6)
    # the 4-cycle's group is found first; every element of it, not only the
    # transposition, must then be multiplied by the transposition
    @example((4, [(1, 2, 3, 0), (1, 0, 2, 3)]), 24)
    def test_matches_naive_fixpoint(self, case, max_size):
        degree, gens = case
        expected = _naive_closure(gens, degree)
        g = closure(gens, degree, max_size=None)
        assert g.elements == expected
        assert all(invert(p) in g.elements for p in gens)
        assert is_cyclic(g) == any(perm_order(p) == len(expected) for p in expected)
        if len(expected) > max_size:
            with pytest.raises(ResourceLimit):
                closure(gens, degree, max_size=max_size)
        else:
            assert closure(gens, degree, max_size=max_size).elements == expected
        # the cap is exact: the group's own order passes, one less does not
        assert closure(gens, degree, max_size=len(expected)).elements == expected
        with pytest.raises(ResourceLimit):
            closure(gens, degree, max_size=len(expected) - 1)


# carriers of the benchmark's check workload whose translations generate
# groups of order 1 to 576
ORACLE_SPECS = (
    "conj:s4",
    "core:s4",
    "dihedral:16",
    "dihedral:24",
    "dihedral:25",
    "dihedral:30",
    "dihedral:36",
    "affine:11:2",
    "alexander:z13:2",
    "core:z3xz3",
    "product:dihedral:3+dihedral:5",
)


class TestClosureAgainstSympy:
    """Group orders against sympy's Schreier-Sims, a test-only oracle."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_translation_group_orders(self, spec):
        pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation
        from sympy.combinatorics import PermutationGroup as SympyGroup

        q = quandle_from_builtin(spec)
        sides = [q.columns]
        if all(is_permutation(row, q.size) for row in q.rows):
            sides += [q.rows, q.columns + q.rows]
        for maps in sides:
            expected = SympyGroup([Permutation(list(m)) for m in maps]).order()
            assert closure(maps, q.size).order == expected


class TestIsCyclic:
    def test_order_one(self):
        assert is_cyclic(closure([], 3))

    def test_four_cycle(self):
        assert is_cyclic(closure([(1, 2, 3, 0)], 4))

    def test_sym3_not_cyclic(self):
        g = closure(list(permutations(range(3))), 3)
        assert g.order == 6
        assert max(perm_order(p) for p in g.elements) == 3
        assert not is_cyclic(g)

    def test_abelian_groups_of_two_generators(self):
        klein = closure([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
        assert klein.order == 4 and not is_cyclic(klein)
        z6 = closure([(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)], 5)
        assert z6.order == 6 and is_cyclic(z6)


class TestIsSemiregular:
    def test_order_one_any_degree(self):
        assert is_semiregular(closure([], 5))

    def test_double_transposition(self):
        assert is_semiregular(closure([(1, 0, 3, 2)], 4))

    def test_fixed_point_breaks_semiregularity(self):
        g = closure([(1, 0, 2)], 3)
        assert not is_semiregular(g)
        assert (1, 0, 2) in g.elements  # non-identity, and it fixes 2

    def test_formulations_agree(self):
        groups = [
            closure([], 4),
            closure([(1, 0, 2)], 3),
            closure([(1, 2, 0)], 3),
            closure([(1, 0, 3, 2)], 4),
            closure(list(permutations(range(3))), 3),
            closure([(1, 2, 3, 0)], 4),
        ]
        for g in groups:
            by_orbits = all(len(o) == g.order for o in permutation_orbits(g.elements, g.degree))
            ident = identity_perm(g.degree)
            by_fixed_points = not any(
                p != ident and any(p[x] == x for x in range(g.degree)) for p in g.elements
            )
            divisibility = g.degree % g.order == 0 if by_orbits else True
            assert by_orbits == by_fixed_points == is_semiregular(g)
            assert divisibility


class TestAutomorphisms:
    def test_doubling_on_z5(self):
        g = cyclic_group(5)
        phi = GroupAutomorphism(g, (0, 2, 4, 1, 3))
        assert phi(1) == 2
        assert scaling_automorphism(g, 2).map == phi.map

    def test_non_bijective_rejected(self):
        with pytest.raises(NotAnAutomorphism):
            GroupAutomorphism(cyclic_group(3), (0, 0, 1))

    def test_map_of_non_ints_rejected(self):
        with pytest.raises(NotAnAutomorphism, match="bijection"):
            GroupAutomorphism(cyclic_group(2), (0.0, 1.0))

    def test_non_homomorphism_rejected(self):
        with pytest.raises(NotAnAutomorphism):
            GroupAutomorphism(cyclic_group(4), (0, 2, 1, 3))

    def test_scaling_by_non_unit_rejected(self):
        with pytest.raises(NotAnAutomorphism):
            scaling_automorphism(cyclic_group(4), 2)


class TestPermHelpers:
    def test_compose_applies_right_first(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        assert compose(p, q) == (1, 0, 2)

    def test_invert(self):
        p = (2, 0, 1)
        assert compose(p, invert(p)) == identity_perm(3)

    def test_cycle_lengths_give_the_order(self):
        # is_cyclic reads an element's order as the lcm of its cycle lengths
        assert math.lcm(*cycle_type((1, 2, 0, 4, 3))) == perm_order((1, 2, 0, 4, 3)) == 6
        for degree in range(1, 6):
            for p in permutations(range(degree)):
                assert math.lcm(*cycle_type(p)) == perm_order(p), p
