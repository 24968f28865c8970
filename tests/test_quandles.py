import functools
import math
from itertools import chain, islice, permutations, product

import pytest
from definitional import first_quandle_violation, permutation_orbits
from hypothesis import given, settings
from hypothesis import strategies as st
from test_groups import with_edge_entries

from quorder import (
    FiniteGroup,
    FiniteQuandle,
    NotAQuandle,
    NotInvertible,
    ResourceLimit,
    affine_quandle,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_quandle,
    direct_product,
    generalized_alexander_quandle,
    generate_all_quandles,
    inner_group,
    is_involutory,
    is_latin,
    is_trivial_quandle,
    orbits,
    product_quandle,
    scaling_automorphism,
    symmetric_group,
    trivial_quandle,
)
from quorder import quandles
from quorder.cli import quandle_from_builtin
from quorder.groups import MAX_CARRIER_N, check_carrier, identity_perm, is_cyclic

# the order-3 quandle with orbit decomposition {0,1} | {2}, written 0-indexed
THREE_ELT = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]


def three_element_quandle():
    return FiniteQuandle(THREE_ELT)


class TestValidation:
    def test_three_element_table_is_valid(self):
        q = three_element_quandle()
        assert q.size == 3

    def test_trivial_table_is_valid(self):
        FiniteQuandle([[0, 0, 0], [1, 1, 1], [2, 2, 2]])

    def test_idempotency_violation(self):
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle([[1, 0], [0, 1]])
        assert exc.value.axiom == "idempotency"
        assert exc.value.witness == (0, 0)

    def test_column_bijectivity_violation(self):
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle([[0, 0, 0], [1, 1, 0], [2, 2, 2]])
        assert exc.value.axiom == "right-bijectivity"

    @pytest.mark.parametrize(
        "table, witness",
        [
            ([[0.0]], (0, 0)),
            ([[0, 0], [1.0, 1]], (1, 0)),
            ([[0, "1"], [0, 1]], (0, 1)),
            ([[0, None], [0, 1]], (0, 1)),
            ([[0, 0.5], [1, 1]], (0, 1)),
            ([[1, 0.0], [0, 1]], (0, 1)),  # named before idempotency fails at (0, 0)
        ],
    )
    def test_non_int_entry_is_out_of_range(self, table, witness):
        # 0.0 and 1.0 equal points, and are still named before any axiom
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(table)
        assert (exc.value.axiom, exc.value.witness) == ("entry in range", witness)

    def test_bool_entries_are_accepted(self):
        assert FiniteQuandle([[False, False], [True, True]]) == trivial_quandle(2)
        assert FiniteQuandle([[False]]) == trivial_quandle(1)

    def test_distributivity_violation(self):
        # diagonal idempotent, all columns permutations, but (0*2)*0 != (0*0)*(2*0)
        bad = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(bad)
        assert exc.value.axiom == "right-distributivity"
        assert exc.value.witness == (0, 1, 0)


def assert_validates_like_scan(table):
    """FiniteQuandle accepts the table iff the reference scan does, and
    otherwise raises the scan's axiom and witness."""
    expected = first_quandle_violation(table)
    if expected is None:
        assert FiniteQuandle(table).table == tuple(map(tuple, table))
    else:
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(table)
        assert (exc.value.axiom, exc.value.witness) == expected


def relabel(table, p):
    """The table with every point x renamed p[x]."""
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[p[i]][p[j]] = p[v]
    return out


@st.composite
def relabelled_or_transposed(draw, tables):
    """A random relabelling of one of the tables, and in half the draws one
    transposition of two off-diagonal entries within a column: the diagonal
    stays fixed and the columns stay bijective, so only distributivity can
    fail."""
    table = draw(st.sampled_from(tables))
    n = len(table)
    out = relabel(table, draw(st.permutations(range(n))))
    if n >= 3 and draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        i, j = draw(st.lists(st.integers(0, n - 1).filter(lambda x: x != c), min_size=2, max_size=2, unique=True))
        out[i][c], out[j][c] = out[j][c], out[i][c]
    return out


ORDER_5_CLASSES = [q.table for n in range(1, 6) for q in generate_all_quandles(n, up_to_iso=True)]
DIHEDRAL_36 = [quandle_from_builtin("dihedral:36").table]
COVERED = [quandle_from_builtin(spec).table for spec in ("conj:s4", "product:dihedral:3+dihedral:5")]
UP_TO_8 = ORDER_5_CLASSES + [
    quandle_from_builtin(spec).table
    for spec in ("dihedral:6", "conj:s3", "product:trivial:2+dihedral:3", "affine:7:3", "trivial:7", "dihedral:8")
]


@st.composite
def repeated_in_the_last_row(draw, tables):
    """One of the tables with a column c < n - 1 that repeats a point in its
    last row only: entry (n - 1, c) is set to the entry (k, c) of an
    earlier row. The diagonal is unchanged."""
    table = [list(row) for row in draw(st.sampled_from(tables))]
    n = len(table)
    c, k = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
    table[n - 1][c] = table[k][c]
    return table


@st.composite
def transposed_outside_cover(draw, tables):
    """One of the tables, unrelabelled, with two off-diagonal entries of
    one column c >= 2 swapped: columns 0 and 1, which are checked first,
    and the diagonal are unchanged, and every column stays a permutation."""
    table = [list(row) for row in draw(st.sampled_from(tables))]
    n = len(table)
    c = draw(st.integers(2, n - 1))
    i, j = draw(st.lists(st.integers(0, n - 1).filter(lambda x: x != c), min_size=2, max_size=2, unique=True))
    table[i][c], table[j][c] = table[j][c], table[i][c]
    return table


class TestValidationOracle:
    """The byte-table check against the definitional triple scan."""

    def test_every_table_with_idempotent_bijective_columns_up_to_order_4(self):
        # column c is any permutation fixing c; the quandles among these
        # tables are exactly the labelled quandles: 1, 1, 5 and 36
        accepted = []
        for n in range(1, 5):
            choices = [[p for p in permutations(range(n)) if p[c] == c] for c in range(n)]
            count = 0
            for cols in product(*choices):
                table = [[cols[j][i] for j in range(n)] for i in range(n)]
                assert_validates_like_scan(table)
                count += first_quandle_violation(table) is None
            accepted.append(count)
        assert accepted == [1, 1, 5, 36]

    @settings(max_examples=150, deadline=None)
    @given(relabelled_or_transposed(ORDER_5_CLASSES))
    def test_relabelled_classes_up_to_order_5(self, table):
        assert_validates_like_scan(table)

    @settings(max_examples=15, deadline=None)
    @given(relabelled_or_transposed(DIHEDRAL_36))
    def test_relabelled_dihedral_36(self, table):
        assert_validates_like_scan(table)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-1, n), min_size=n - 1, max_size=n + 1), min_size=n, max_size=n
            )
        )
    )
    def test_arbitrary_small_tables(self, table):
        # ragged rows and out-of-range entries reach the row-major scan
        assert_validates_like_scan(table)

    @settings(max_examples=60, deadline=None)
    @given(transposed_outside_cover(COVERED))
    def test_transposition_outside_the_first_columns(self, table):
        assert_validates_like_scan(table)

    @settings(max_examples=200, deadline=None)
    @given(with_edge_entries(UP_TO_8))
    def test_entries_at_the_byte_edges(self, table):
        assert_validates_like_scan(table)

    @settings(max_examples=40, deadline=None)
    @given(repeated_in_the_last_row(DIHEDRAL_36 + COVERED[:1]))
    def test_column_repeating_only_in_its_last_row(self, table):
        assert_validates_like_scan(table)

    def test_largest_carrier_names_its_first_failing_triple(self):
        # dihedral:256 with 0*2 and 1*2 swapped: column 0, the first one
        # checked, first fails at (0, 2, 0); every column's byte comparison
        # fails, and the least first failure over them is named
        n = MAX_CARRIER_N
        table = [[(2 * j - i) % n for j in range(n)] for i in range(n)]
        table[0][2], table[1][2] = table[1][2], table[0][2]
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(table)
        assert (exc.value.axiom, exc.value.witness) == ("right-distributivity", (0, 1, 2))
        assert first_quandle_violation(table) == ("right-distributivity", (0, 1, 2))


class TestColumnCover:
    """Right-distributivity is checked only on the columns that the columns
    checked before them do not reach; the rest hold with them."""

    @pytest.mark.parametrize(
        "spec, count",
        # R_0 fixes 0, so column 1 is checked too; 0 and 1 generate Z_n
        # under x*y = 2y - x. A trivial quandle's columns reach nothing, but
        # are identities, which hold uncompared, as does conj:s4's column e.
        [("dihedral:256", 2), ("dihedral:101", 2), ("trivial:8", 0), ("conj:s4", 6), ("core:s4", 5)],
    )
    def test_columns_checked(self, monkeypatch, spec, count):
        table = quandle_from_builtin(spec).table
        columns = []
        side = quandles._distributive_side
        monkeypatch.setattr(quandles, "_distributive_side", lambda col, maps: columns.append(col) or side(col, maps))
        FiniteQuandle(table)
        assert len(columns) == count
        if spec.startswith("dihedral"):
            assert columns == [bytes(row[c] for row in table) for c in (0, 1)]

    def test_points_are_reached_only_through_columns_checked(self):
        # column 0 is the identity and holds; row 0 reaches 1 and 2 through
        # columns 1 and 2, which are not checked yet. Column 1, checked
        # next, first fails at (0, 2, 1), after column 2's (0, 1, 2)
        table = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]
        assert first_quandle_violation(table) == ("right-distributivity", (0, 1, 2))
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(table)
        assert exc.value.witness == (0, 1, 2)

    def test_the_last_point_is_checked(self):
        # columns 0-3 are a quandle on {0, 1, 2, 3} that they reach, and fix
        # 4; R_4 swaps 0 and 1, which commutes with them but is no
        # automorphism: 4 points of 5 are reached and the fifth column fails
        table = [[0, 0, 0, 0, 1], [1, 1, 1, 1, 0], [2, 3, 2, 2, 2], [3, 2, 3, 3, 3], [4, 4, 4, 4, 4]]
        assert first_quandle_violation(table) == ("right-distributivity", (2, 0, 4))
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(table)
        assert exc.value.witness == (2, 0, 4)


class TestRelabellings:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pairs_in_permutations_order(self, n):
        # relabelling number r is the r-th permutation ib = p^-1: its position
        # table P and its 256-byte label table pt = p
        positions, labels = quandles._relabellings(n)
        ident = bytes(range(n))
        perms = [bytes(p) for p in permutations(range(n))]
        assert len(positions) == len(labels) == len(perms)
        for ib, table, pt in zip(perms, positions, labels):
            assert table == bytes(ib[i] * n + ib[j] for i in range(n) for j in range(n))
            assert len(pt) == 256 and ib.translate(pt) == ident

    def test_every_order_is_kept(self):
        assert quandles._relabellings.cache_info().maxsize is None
        kept = {n: quandles._relabellings(n) for n in (4, 3, 5, 1)}
        assert all(quandles._relabellings(n) is tables for n, tables in kept.items())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n),
                st.integers(0, math.factorial(n) - 1),
            )
        )
    )
    def test_position_table_relabels_any_table(self, case):
        # P.translate(flat).translate(pt) is the table p carries to: entry
        # (i, j) = v goes to (p[i], p[j]) = p[v], on any square table
        table, r = case
        n = len(table)
        positions, labels = quandles._relabellings(n)
        ib = next(islice(permutations(range(n)), r, None))
        p = [0] * n
        for i, x in enumerate(ib):
            p[x] = i
        relabelled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                relabelled[p[i]][p[j]] = p[table[i][j]]
        flat = bytes(chain.from_iterable(table)).ljust(256, b"\0")
        assert positions[r].translate(flat).translate(labels[r]) == bytes(chain.from_iterable(relabelled))

    def test_tables_of_one_order_share_the_pairs(self, monkeypatch):
        built = []
        relabellings = quandles._relabellings.__wrapped__

        def counted(n):
            built.append(n)
            return relabellings(n)

        monkeypatch.setattr(quandles, "_relabellings", functools.lru_cache(maxsize=1)(counted))
        assert len(generate_all_quandles(5, up_to_iso=True)) == 22
        assert built == [5]


class TestFamilies:
    def test_trivial_tables(self):
        assert trivial_quandle(2).table == ((0, 0), (1, 1))
        assert trivial_quandle(3).table == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
        assert trivial_quandle(1).table == ((0,),)

    def test_dihedral_3_table(self):
        assert dihedral_quandle(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))

    def test_dihedral_1(self):
        assert dihedral_quandle(1).table == ((0,),)

    def test_dihedral_is_involutory(self):
        for n in range(1, 7):
            assert is_involutory(dihedral_quandle(n))

    def test_affine_5_2_first_row(self):
        q = affine_quandle(5, 2)
        assert q.table[0] == (0, 4, 3, 2, 1)

    def test_affine_alpha_1_is_trivial(self):
        assert affine_quandle(6, 1).table == trivial_quandle(6).table

    def test_affine_non_unit_rejected(self):
        with pytest.raises(NotInvertible):
            affine_quandle(4, 2)

    def test_conj_of_abelian_is_trivial(self):
        for g in (cyclic_group(3), cyclic_group(5), direct_product(cyclic_group(2), cyclic_group(2))):
            assert conj_quandle(g).table == trivial_quandle(g.size).table

    def test_conj_s3_orbit_sizes(self):
        q = conj_quandle(symmetric_group(3))
        assert sorted(len(o) for o in orbits(q)) == [1, 2, 3]

    def test_conj_of_trivial_group(self):
        assert conj_quandle(cyclic_group(1)).size == 1

    def test_core_z3_equals_dihedral(self):
        assert core_quandle(cyclic_group(3)).table == dihedral_quandle(3).table

    def test_core_z2_is_trivial(self):
        assert core_quandle(cyclic_group(2)).table == trivial_quandle(2).table

    def test_core_zn_equals_dihedral_up_to_8(self):
        for n in range(1, 9):
            assert core_quandle(cyclic_group(n)).table == dihedral_quandle(n).table

    def test_alexander_z5_doubling_equals_affine(self):
        g = cyclic_group(5)
        q = generalized_alexander_quandle(g, scaling_automorphism(g, 2))
        assert q.table == affine_quandle(5, 2).table

    def test_alexander_identity_automorphism_is_trivial(self):
        g = cyclic_group(4)
        q = generalized_alexander_quandle(g, scaling_automorphism(g, 1))
        assert q.table == trivial_quandle(4).table

    def test_alexander_z4_negation_equals_dihedral(self):
        g = cyclic_group(4)
        q = generalized_alexander_quandle(g, scaling_automorphism(g, 3))
        assert q.table == dihedral_quandle(4).table


class TestProduct:
    def test_product_of_trivial_and_dihedral_is_valid(self):
        q = product_quandle([trivial_quandle(2), dihedral_quandle(3)])
        assert q.size == 6

    def test_single_factor_is_identity(self):
        q = dihedral_quandle(4)
        assert product_quandle([q]).table == q.table

    def test_three_factors_pack_last_fastest(self):
        factors = [trivial_quandle(2), dihedral_quandle(3), dihedral_quandle(5)]
        q = product_quandle(factors)
        points = list(product(range(2), range(3), range(5)))  # point x is the triple points[x]
        for x, xs in enumerate(points):
            for y, ys in enumerate(points):
                assert points[q.op(x, y)] == tuple(f.op(a, b) for f, a, b in zip(factors, xs, ys))

    def test_product_of_trivials_is_trivial(self):
        q = product_quandle([trivial_quandle(2), trivial_quandle(3)])
        assert q.table == trivial_quandle(6).table

    def test_conj_respects_products(self):
        for g, h in [
            (cyclic_group(2), cyclic_group(3)),
            (cyclic_group(3), symmetric_group(3)),
        ]:
            lhs = conj_quandle(direct_product(g, h))
            rhs = product_quandle([conj_quandle(g), conj_quandle(h)])
            assert lhs.table == rhs.table

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            product_quandle([])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_product_is_trivial_exactly_when_every_factor_is(self, class_catalog, data):
        classes = [q for n in (1, 2, 3) for q in class_catalog[n]]
        factors = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
        q = product_quandle(factors)
        assert is_trivial_quandle(q) == all(is_trivial_quandle(f) for f in factors)


class TestCarrierCap:
    def test_cap_boundary(self):
        check_carrier(MAX_CARRIER_N)
        with pytest.raises(ResourceLimit) as info:
            check_carrier(MAX_CARRIER_N + 1)
        assert (info.value.requested, info.value.cap) == (MAX_CARRIER_N + 1, MAX_CARRIER_N)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: trivial_quandle(MAX_CARRIER_N + 1),
            lambda: dihedral_quandle(MAX_CARRIER_N + 1),
            lambda: affine_quandle(MAX_CARRIER_N + 1, 2),
            lambda: cyclic_group(MAX_CARRIER_N + 1),
            lambda: symmetric_group(6),
            lambda: direct_product(cyclic_group(20), cyclic_group(20)),
            lambda: product_quandle([dihedral_quandle(3)] * 5 + [trivial_quandle(2)]),
        ],
        ids=["trivial", "dihedral", "affine", "cyclic", "symmetric", "direct-product", "product"],
    )
    def test_oversized_carriers_raise_before_building(self, build):
        with pytest.raises(ResourceLimit):
            build()

    @pytest.mark.parametrize(
        "build", [FiniteQuandle, lambda table: FiniteGroup(table, 0)], ids=["quandle", "group"]
    )
    def test_constructors_refuse_oversized_tables_before_reading_them(self, build):
        class Unread:
            """A row of the right length that fails when it is read."""

            def __len__(self):
                return MAX_CARRIER_N + 1

            def __iter__(self):
                raise AssertionError("a row was read")

        table = [Unread()] * (MAX_CARRIER_N + 1)
        with pytest.raises(ResourceLimit) as info:
            build(table)
        assert (info.value.requested, info.value.cap) == (MAX_CARRIER_N + 1, MAX_CARRIER_N)


class TestTranslations:
    def test_trivial_right_translation_is_identity(self):
        q = trivial_quandle(3)
        for s in range(3):
            assert q.columns[s] == identity_perm(3)

    def test_trivial_left_translation_is_constant(self):
        q = trivial_quandle(3)
        assert q.rows[1] == (1, 1, 1)

    def test_dihedral_right_translation(self):
        assert dihedral_quandle(3).columns[0] == (0, 2, 1)


class TestInnerGroup:
    def test_trivial_inner_group_is_trivial(self):
        for n in (1, 3, 5):
            assert inner_group(trivial_quandle(n)).order == 1

    def test_dihedral_3_inner_group(self):
        g = inner_group(dihedral_quandle(3))
        assert g.order == 6
        assert not is_cyclic(g)

    def test_three_element_inner_group_and_orbits(self):
        q = three_element_quandle()
        g = inner_group(q)
        assert g.order == 2
        assert orbits(q) == ((0, 1), (2,))


class TestPredicates:
    def test_dihedral_3(self):
        q = dihedral_quandle(3)
        assert is_latin(q)
        assert is_involutory(q)
        assert orbits(q) == ((0, 1, 2),)

    def test_trivial_3(self):
        q = trivial_quandle(3)
        assert not is_latin(q)
        assert is_trivial_quandle(q)

    def test_three_element_stabilizers(self):
        q = three_element_quandle()
        assert not is_trivial_quandle(q)

    def test_orbits_match_the_inner_group(self, labeled_catalog, class_catalog):
        builtins = [quandle_from_builtin(spec) for spec in ("conj:s4", "core:s4", "dihedral:25", "core:z3xz3")]
        cases = [q for n in (1, 2, 3, 4) for q in labeled_catalog[n]] + list(class_catalog[5]) + builtins
        for q in cases:
            g = inner_group(q)
            assert orbits(q) == permutation_orbits(g.elements, g.degree), q.table

    def test_orbits_build_no_group(self, monkeypatch):
        def no_closure(*args):
            raise AssertionError("orbits built a group")

        q = quandle_from_builtin("conj:s4")
        expected = orbits(q)
        monkeypatch.setattr(quandles, "closure", no_closure)
        assert orbits(q) == expected
        assert sorted(len(o) for o in expected) == [1, 3, 6, 6, 8]

    def test_latin_iff_semi_latin(self, labeled_catalog):
        # injective self-maps of a finite carrier are bijective
        quandles = [
            affine_quandle(5, 2),
            conj_quandle(symmetric_group(3)),
        ] + [q for qs in labeled_catalog.values() for q in qs]
        for q in quandles:
            assert is_latin(q) == all(len(set(row)) == q.size for row in q.rows)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), alpha=st.integers(min_value=-12, max_value=12))
def test_affine_construction_matches_gcd(n, alpha):
    import math

    if math.gcd(alpha, n) == 1:
        q = affine_quandle(n, alpha)
        assert q.size == n
    else:
        with pytest.raises(NotInvertible):
            affine_quandle(n, alpha)
