import ast
from itertools import permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import definitional
from definitional import (
    TripleFunction,
    cocycle_defect,
    cyclic_to_function,
    is_degenerate_triple,
    left_invariance_witness,
    naive_circular_functions,
    right_invariance_witness,
    validate_triple_function,
)
from quorder import (
    CyclicOrder,
    LinearOrder,
    circular_from_linear,
    dihedral_quandle,
    enumerate_circular_orderings,
    enumerate_rankings,
    is_left_invariant,
    is_left_order,
    is_right_invariant,
    is_right_order,
    trivial_quandle,
)
from quorder.search import brute_space, enumerate_space


def all_arrangements(n):
    if n <= 2:
        return [CyclicOrder(tuple(range(n)))]
    return [CyclicOrder((0, *rest)) for rest in permutations(range(1, n))]


def pairwise_monotone(o, maps):
    """Reference scan: every map is strictly increasing on every ordered pair."""
    rank = o.rank
    n = o.size
    return all(
        rank[m[a]] < rank[m[b]]
        for m in maps
        for a in range(n)
        for b in range(n)
        if rank[a] < rank[b]
    )


def translations(n, maps):
    """A stand-in exposing arbitrary maps as both translation families."""
    return SimpleNamespace(size=n, columns=maps, rows=maps)


class TestDegenerateTriples:
    @pytest.mark.parametrize(
        "triple,expected",
        [((0, 0, 1), True), ((0, 1, 2), False), ((2, 1, 2), True), ((1, 1, 1), True)],
    )
    def test_examples(self, triple, expected):
        assert is_degenerate_triple(*triple) is expected


class TestCyclicOrder:
    def test_canonical_arrangement_required(self):
        with pytest.raises(ValueError):
            CyclicOrder((1, 0, 2))
        with pytest.raises(ValueError):
            CyclicOrder((0, 0, 1))

    def test_from_cycle_rotates(self):
        assert CyclicOrder.from_cycle((2, 0, 1)).arrangement == (0, 1, 2)

    def test_evaluation_on_listed_order(self):
        c = CyclicOrder((0, 1, 2))
        assert c.evaluate(0, 1, 2) == 1
        assert c.evaluate(0, 2, 1) == -1
        assert c.evaluate(1, 2, 0) == 1
        assert c.evaluate(0, 0, 1) == 0

    def test_cyclic_and_antisymmetric_up_to_5(self):
        for n in range(3, 6):
            for c in all_arrangements(n):
                for x, y, z in product(range(n), repeat=3):
                    if is_degenerate_triple(x, y, z):
                        assert c.evaluate(x, y, z) == 0
                        continue
                    v = c.evaluate(x, y, z)
                    assert v in (-1, 1)
                    assert c.evaluate(y, z, x) == v
                    assert c.evaluate(z, x, y) == v
                    assert c.evaluate(x, z, y) == -v


class TestCocycleDefect:
    def test_four_cycle_has_zero_defect(self):
        f = cyclic_to_function(CyclicOrder((0, 1, 2, 3)))
        assert cocycle_defect(f, (0, 1, 2, 3)) == 0

    def test_repeated_entries_vanish(self):
        f = TripleFunction.zero(3)
        assert cocycle_defect(f, (1, 1, 1, 1)) == 0

    def test_single_flip_gives_defect_two(self):
        f = cyclic_to_function(CyclicOrder((0, 1, 2, 3)))
        n = 4
        values = list(f.values)
        values[(1 * n + 2) * n + 3] = -1
        flipped = TripleFunction(n, tuple(values))
        assert cocycle_defect(flipped, (0, 1, 2, 3)) == 2


class TestValidation:
    def test_arrangement_function_is_valid(self):
        assert validate_triple_function(cyclic_to_function(CyclicOrder((0, 1, 2)))) is None

    def test_zero_function_on_three_elements_fails(self):
        violation = validate_triple_function(TripleFunction.zero(3))
        assert violation is not None
        assert violation.kind == "zero-pattern"
        assert violation.witness == (0, 1, 2)

    def test_zero_function_on_two_elements_is_valid(self):
        assert validate_triple_function(TripleFunction.zero(2)) is None
        assert validate_triple_function(TripleFunction.zero(1)) is None

    def test_cocycle_violation_detected(self):
        # valid zero pattern but inconsistent orientations on two triangles
        n = 4
        base = cyclic_to_function(CyclicOrder((0, 1, 2, 3)))
        values = list(base.values)
        for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2), (3, 2, 1), (2, 1, 3)):
            values[(x * n + y) * n + z] = -values[(x * n + y) * n + z]
        violation = validate_triple_function(TripleFunction(n, tuple(values)))
        assert violation is not None
        assert violation.kind == "cocycle"


class TestRawEnumeration:
    """The naive scan of every sign pattern against the arrangements."""

    def test_counts_match_factorials(self):
        assert [len(naive_circular_functions(n)) for n in (1, 2, 3)] == [1, 1, 2]

    def test_matches_naive_oracle_for_three_elements(self):
        for n in (1, 2, 3):
            from_arrangements = sorted(cyclic_to_function(c).values for c in all_arrangements(n))
            assert naive_circular_functions(n) == from_arrangements

    def test_each_function_comes_from_a_unique_arrangement(self):
        for n in (3, 4, 5):
            functions = [cyclic_to_function(c) for c in all_arrangements(n)]
            assert all(validate_triple_function(f) is None for f in functions)
            assert len({f.values for f in functions}) == len(functions)


def test_definitional_oracle_is_independent():
    """The oracle takes only the object it checks from the package, never the
    structural tests it is compared against."""
    tree = ast.parse(Path(definitional.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    from_package = {name for name in imported if name.split(".")[0] == "quorder"}
    assert from_package == {"quorder.corders.CyclicOrder"}


class TestLinearToCircular:
    def test_identity_ranking(self):
        c = circular_from_linear(LinearOrder((0, 1, 2)))
        assert c.arrangement == (0, 1, 2)
        assert c.evaluate(0, 1, 2) == 1

    def test_rotated_ranking_same_circular_order(self):
        assert circular_from_linear(LinearOrder((1, 2, 0))) == circular_from_linear(
            LinearOrder((0, 1, 2))
        )

    def test_singleton(self):
        c = circular_from_linear(LinearOrder((0,)))
        assert all(v == 0 for v in cyclic_to_function(c).values)

    def test_ranking_clauses_match_definition(self):
        # the cycle closure takes value +1 exactly on the three rotated chains
        o = LinearOrder((2, 0, 1))  # 2 < 0 < 1
        c = circular_from_linear(o)
        rank = o.rank
        for x, y, z in permutations(range(3)):
            expected = 1 if (
                (rank[x] < rank[y] < rank[z])
                or (rank[y] < rank[z] < rank[x])
                or (rank[z] < rank[x] < rank[y])
            ) else -1
            assert c.evaluate(x, y, z) == expected


class TestInvariance:
    def test_trivial_quandle_right_invariant(self):
        q = trivial_quandle(3)
        for c in all_arrangements(3):
            assert is_right_invariant(c, q)

    def test_dihedral_not_right_invariant_with_witness(self):
        q = dihedral_quandle(3)
        c = CyclicOrder((0, 1, 2))
        assert right_invariance_witness(c, q) == (0, 0, 1, 2)
        assert not is_right_invariant(c, q)

    def test_trivial_not_left_invariant_with_witness(self):
        q = trivial_quandle(3)
        c = CyclicOrder((0, 1, 2))
        assert left_invariance_witness(c, q) == (0, 0, 1, 2)
        assert not is_left_invariant(c, q)

    def test_triple_function_input_accepted(self):
        q = trivial_quandle(3)
        f = cyclic_to_function(CyclicOrder((0, 1, 2)))
        assert right_invariance_witness(f, q) is None
        assert left_invariance_witness(f, q) == (0, 0, 1, 2)

    def test_size_mismatch_rejected(self):
        c, o = CyclicOrder((0, 1, 2)), LinearOrder((0, 1, 2))
        for predicate, order in (
            (is_right_invariant, c), (is_left_invariant, c), (is_right_order, o), (is_left_order, o),
        ):
            with pytest.raises(ValueError, match="carrier sizes differ"):
                predicate(order, trivial_quandle(4))

    def test_vacuous_invariance_on_tiny_carriers(self):
        for n in (1, 2):
            c = CyclicOrder(tuple(range(n)))
            q = trivial_quandle(n)
            assert is_right_invariant(c, q)
            assert is_left_invariant(c, q)


class TestLinearInvariance:
    def test_trivial_right_orders(self):
        q = trivial_quandle(3)
        for p in permutations(range(3)):
            assert is_right_order(LinearOrder(p), q)
            assert not is_left_order(LinearOrder(p), q)

    def test_dihedral_identity_ranking_not_right(self):
        assert not is_right_order(LinearOrder((0, 1, 2)), dihedral_quandle(3))


class TestMembershipMatchesDefinition:
    """The structural membership tests against the definitional scans."""

    def test_invariance_on_every_arrangement_up_to_4(self, labeled_catalog):
        for quandles in labeled_catalog.values():
            for q in quandles:
                for c in all_arrangements(q.size):
                    assert is_right_invariant(c, q) == (right_invariance_witness(c, q) is None)
                    assert is_left_invariant(c, q) == (left_invariance_witness(c, q) is None)

    def test_monotonicity_on_every_ranking_up_to_4(self, labeled_catalog):
        for quandles in labeled_catalog.values():
            for q in quandles:
                for p in permutations(range(q.size)):
                    o = LinearOrder(p)
                    assert is_right_order(o, q) == pairwise_monotone(o, q.columns)
                    assert is_left_order(o, q) == pairwise_monotone(o, q.rows)

    def test_spaces_match_definitional_filter_on_classes_up_to_5(self, class_catalog):
        def right(c, q):
            return right_invariance_witness(c, q) is None

        def left(c, q):
            return left_invariance_witness(c, q) is None

        definitions = {
            "RCO": (enumerate_circular_orderings, right),
            "LCO": (enumerate_circular_orderings, left),
            "BCO": (enumerate_circular_orderings, lambda c, q: right(c, q) and left(c, q)),
            "RO": (enumerate_rankings, lambda o, q: pairwise_monotone(o, q.columns)),
            "LO": (enumerate_rankings, lambda o, q: pairwise_monotone(o, q.rows)),
        }
        classes = [q for n in range(1, 6) for q in class_catalog[n]]
        assert len(classes) == 34
        for q in classes:
            for kind, (ground, member) in definitions.items():
                expected = tuple(x for x in ground(q.size) if member(x, q))
                assert enumerate_space(kind, q).members == expected, (kind, q.table)
                assert brute_space(kind, q).members == expected, (kind, q.table)


maps_on_small_carriers = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.permutations(range(n)),
        st.lists(
            st.one_of(
                st.permutations(range(n)).map(tuple),
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
            ),
            min_size=1,
            max_size=4,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(maps_on_small_carriers)
def test_invariance_matches_definition_on_random_maps(case):
    n, rest, maps = case
    c = CyclicOrder.from_cycle(rest)
    q = translations(n, maps)
    assert is_right_invariant(c, q) == (right_invariance_witness(c, q) is None)
    assert is_left_invariant(c, q) == (left_invariance_witness(c, q) is None)


@settings(max_examples=200, deadline=None)
@given(maps_on_small_carriers)
def test_monotonicity_matches_pairwise_scan_on_random_maps(case):
    n, ranking, maps = case
    o = LinearOrder(tuple(ranking))
    q = translations(n, maps)
    assert is_right_order(o, q) == pairwise_monotone(o, maps)
    assert is_left_order(o, q) == pairwise_monotone(o, maps)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.randoms(use_true_random=False))
def test_rotations_of_an_arrangement_are_invariant(n, rng):
    # random maps are rarely rotations, so build the accepting case directly
    rest = list(range(n))
    rng.shuffle(rest)
    c = CyclicOrder.from_cycle(rest)
    arr = c.arrangement
    maps = []
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(n)
        m = [0] * n
        for i, x in enumerate(arr):
            m[x] = arr[(i + k) % n]
        maps.append(tuple(m))
    q = translations(n, maps)
    assert is_right_invariant(c, q)
    assert right_invariance_witness(c, q) is None


def _rotation(arrangement, k):
    """The map shifting a cyclic arrangement by k places."""
    n = len(arrangement)
    m = [0] * n
    for i, x in enumerate(arrangement):
        m[x] = arrangement[(i + k) % n]
    return tuple(m)


# maps drawn as in maps_on_small_carriers, or, three in five, as a shift of
# the drawn arrangement by k places (an int), which some arrangements survive
maps_with_rotations = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.permutations(range(n)),
        st.lists(
            st.one_of(
                st.permutations(range(n)).map(tuple),
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
            ),
            min_size=1,
            max_size=4,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(maps_with_rotations)
def test_brute_space_matches_definition_on_random_maps(case):
    # brute_space filters the whole ground set in byte form, and keeps a
    # member only if it survives every map, in ground-set order
    n, rest, drawn = case
    arrangement = CyclicOrder.from_cycle(rest).arrangement
    maps = [_rotation(arrangement, m) if isinstance(m, int) else m for m in drawn]
    q = translations(n, maps)
    circles = tuple(c for c in all_arrangements(n) if right_invariance_witness(c, q) is None)
    rankings = tuple(o for o in map(LinearOrder, permutations(range(n))) if pairwise_monotone(o, maps))
    for kind in ("RCO", "LCO", "BCO"):
        assert brute_space(kind, q).members == circles, kind
    for kind in ("RO", "LO"):
        assert brute_space(kind, q).members == rankings, kind


class TestRotationCharacterization:
    """A single permutation preserves an arrangement exactly when it rotates it."""

    def test_preserving_permutations_are_rotations(self):
        for n in range(3, 7):
            c = CyclicOrder(tuple(range(n)))
            perms = list(permutations(range(n)))
            preserving = {p for p in perms if right_invariance_witness(c, translations(n, [p])) is None}
            rotations = {p for p in perms if is_right_invariant(c, translations(n, [p]))}
            assert preserving == rotations
            assert rotations == {tuple((x + k) % n for x in range(n)) for k in range(n)}

    def test_all_arrangements_up_to_4(self):
        for n in (3, 4):
            for c in all_arrangements(n):
                for p in permutations(range(n)):
                    q = translations(n, [p])
                    assert is_right_invariant(c, q) == (right_invariance_witness(c, q) is None)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_any_ranking_closes_into_a_valid_circular_ordering(n, rng):
    ranking = list(range(n))
    rng.shuffle(ranking)
    c = circular_from_linear(LinearOrder(tuple(ranking)))
    assert validate_triple_function(cyclic_to_function(c)) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.randoms(use_true_random=False))
def test_rotating_a_ranking_keeps_its_circular_order(n, rng):
    ranking = list(range(n))
    rng.shuffle(ranking)
    k = rng.randrange(n)
    rotated = ranking[k:] + ranking[:k]
    assert circular_from_linear(LinearOrder(tuple(ranking))) == circular_from_linear(
        LinearOrder(tuple(rotated))
    )
