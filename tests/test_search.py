import gc
from collections import Counter
from itertools import permutations, product
from math import factorial, isqrt

import pytest
from definitional import (
    automorphism_count,
    column_search_all_pairs,
    first_merged_pair,
    first_moved_point,
    is_involutory_table,
    is_latin_table,
    is_trivial_table,
    labelled_quandle_tables,
    left_invariance_witness,
    orbit_partition,
    permutation_orbits,
    right_invariance_witness,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_corders import pairwise_monotone

from quorder import (
    CyclicOrder,
    DegenerateTriple,
    DiagonalPair,
    FiniteQuandle,
    InternalInconsistency,
    LinearOrder,
    NotAQuandle,
    ResourceLimit,
    SearchCaps,
    Verdict,
    are_isomorphic,
    canonical_form,
    census,
    circular_from_linear,
    conj_quandle,
    cyclic_group,
    decide_bicircular,
    decide_left_circular,
    decide_left_orderable,
    decide_right_circular,
    decide_right_orderable,
    dihedral_quandle,
    direct_product,
    embedding_image,
    enumerate_bicircular,
    enumerate_circular_orderings,
    enumerate_lco,
    enumerate_left_orderings,
    enumerate_rankings,
    enumerate_rco,
    enumerate_right_orderings,
    generate_all_quandles,
    inner_group,
    is_involutory,
    is_latin,
    is_left_invariant,
    is_left_order,
    is_right_invariant,
    is_right_order,
    is_trivial_quandle,
    orbits,
    recheck_certificate,
    subbasic_circular,
    subbasic_linear,
    symmetric_group,
    trivial_quandle,
)
from quorder import quandles, search
from quorder.cli import quandle_from_builtin, verdict_to_json, verify_paper
from quorder.search import (
    EXHAUSTED,
    NON_IDENTITY_LEFT,
    NON_IDENTITY_RIGHT,
    NON_INJECTIVE_LEFT,
    SPACES,
    Certificate,
    brute_space,
    decide,
    enumerate_space,
)

THREE_ELT = FiniteQuandle([[0, 0, 1], [1, 1, 0], [2, 2, 2]])


class TestGroundSets:
    def test_circular_counts(self):
        assert len(enumerate_circular_orderings(1)) == 1
        assert len(enumerate_circular_orderings(2)) == 1
        assert len(enumerate_circular_orderings(3)) == 2
        assert len(enumerate_circular_orderings(4)) == 6

    def test_members_canonical_and_unique(self):
        members = enumerate_circular_orderings(4)
        assert len(set(members)) == len(members)
        assert all(c.arrangement[0] == 0 for c in members)
        assert list(members) == sorted(members, key=lambda c: c.arrangement)

    def test_members_equal_the_checked_constructions(self):
        # the ground sets skip the constructors' checks, and build the same values
        for n in range(1, 7):
            assert enumerate_circular_orderings(n) == tuple(
                CyclicOrder((0, *rest)) for rest in permutations(range(1, n))
            )
            assert enumerate_rankings(n) == tuple(LinearOrder(p) for p in permutations(range(n)))
        for x, checked in (
            (enumerate_circular_orderings(4)[3], CyclicOrder((0, 2, 3, 1))),
            (enumerate_rankings(4)[7], LinearOrder((1, 0, 3, 2))),
        ):
            assert (hash(x), repr(x), x.size) == (hash(checked), repr(checked), checked.size)
            with pytest.raises(AttributeError):
                x.size = 5

    def test_circular_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_circular_orderings(11)
        assert len(enumerate_circular_orderings(4, SearchCaps(max_circular_n=4))) == 6

    def test_ranking_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_rankings(9)


class TestEnumerateSpaces:
    def test_trivial_3_rco_is_everything(self):
        space = enumerate_rco(trivial_quandle(3))
        assert len(space) == 2
        assert space.kind == "RCO"

    def test_three_element_quandle_has_empty_spaces(self):
        assert len(enumerate_rco(THREE_ELT)) == 0
        assert len(enumerate_lco(THREE_ELT)) == 0

    def test_dihedral_3_has_empty_spaces(self):
        q = dihedral_quandle(3)
        assert len(enumerate_rco(q)) == 0
        assert len(enumerate_lco(q)) == 0

    def test_trivial_2_bicircular_is_zero_ordering(self):
        space = enumerate_bicircular(trivial_quandle(2))
        assert space.members == (CyclicOrder((0, 1)),)

    def test_trivial_3_bicircular_empty(self):
        assert len(enumerate_bicircular(trivial_quandle(3))) == 0

    def test_right_orderings_of_trivial(self):
        q = trivial_quandle(3)
        assert len(enumerate_right_orderings(q)) == 6
        assert len(enumerate_left_orderings(q)) == 0

    def test_dihedral_3_has_no_linear_orderings(self):
        q = dihedral_quandle(3)
        assert len(enumerate_right_orderings(q)) == 0
        assert len(enumerate_left_orderings(q)) == 0

    def test_singleton_orderings(self):
        q = trivial_quandle(1)
        assert enumerate_right_orderings(q).members == (LinearOrder((0,)),)
        assert enumerate_left_orderings(q).members == (LinearOrder((0,)),)

    def test_closed_form_equals_brute_filter_up_to_4(self, labeled_catalog):
        for quandles in labeled_catalog.values():
            for q in quandles:
                for kind in SPACES:
                    assert enumerate_space(kind, q) == brute_space(kind, q), (kind, q.table)

    @pytest.mark.parametrize("kind, q", [("LCO", trivial_quandle(10)), ("RO", dihedral_quandle(25))])
    def test_empty_space_builds_no_ground_set(self, monkeypatch, kind, q):
        def refuse(*args):
            raise AssertionError("an empty space built its ground set")

        monkeypatch.setattr(search, "enumerate_circular_orderings", refuse)
        monkeypatch.setattr(search, "enumerate_rankings", refuse)
        # the caps bound output, so even the smallest ones allow an empty answer
        assert enumerate_space(kind, q, SearchCaps(1, 1)) == search.OrderSpace(kind, ())


# the per-space names, by the kind each one binds
NAMED = {
    "RCO": (decide_right_circular, enumerate_rco),
    "LCO": (decide_left_circular, enumerate_lco),
    "BCO": (decide_bicircular, enumerate_bicircular),
    "RO": (decide_right_orderable, enumerate_right_orderings),
    "LO": (decide_left_orderable, enumerate_left_orderings),
}


class TestDispatchTables:
    """DECIDERS and ENUMERATORS hold `decide` and `enumerate_space` with each
    row's kind bound, and each per-space name is its entry, the very object:
    the benchmark's tracer swaps the entries by identity."""

    @pytest.mark.parametrize("kind", SPACES)
    def test_entries_bind_the_kind(self, kind):
        prop = SPACES[kind].prop
        for table, func in ((search.DECIDERS, decide), (search.ENUMERATORS, enumerate_space)):
            entry = table[prop]
            assert (entry.func, entry.args, entry.keywords) == (func, (kind,), {})

    @pytest.mark.parametrize("kind", SPACES)
    def test_names_are_their_entries(self, kind):
        prop = SPACES[kind].prop
        decider, enumerator = NAMED[kind]
        assert decider is search.DECIDERS[prop]
        assert enumerator is search.ENUMERATORS[prop]

    def test_positional_and_keyword_calls(self):
        q, caps = trivial_quandle(3), SearchCaps(3, 3)
        witness = CyclicOrder((0, 1, 2))
        assert decide_right_circular(q, "fast", caps).witness == witness
        assert decide_right_circular(q, strategy="fast").witness == witness
        assert decide_right_circular(q, "brute", caps=caps).witness == witness
        assert enumerate_rco(q, caps) == enumerate_space("RCO", q, caps)
        assert len(enumerate_right_orderings(q, caps=caps)) == 6
        # the caps reach the ground set, passed either way
        small = SearchCaps(2, 2)
        with pytest.raises(ResourceLimit):
            enumerate_rco(q, small)
        with pytest.raises(ResourceLimit):
            decide_right_orderable(q, "brute", small)
        with pytest.raises(ResourceLimit):
            decide_right_orderable(q, strategy="brute", caps=small)


class TestDecisions:
    def test_trivial_3(self):
        vr = decide_right_circular(trivial_quandle(3))
        assert vr.answer and vr.witness == CyclicOrder((0, 1, 2))
        vl = decide_left_circular(trivial_quandle(3))
        assert not vl.answer
        assert vl.certificate.kind == NON_INJECTIVE_LEFT

    def test_dihedral_3(self):
        # every left translation is a bijection, so L_0 is named
        q = dihedral_quandle(3)
        vr = decide_right_circular(q)
        assert not vr.answer
        assert vr.certificate.kind == NON_IDENTITY_RIGHT
        assert vr.certificate.data == {"base": 0, "point": 1, "image": 2}
        for decide_side, kind in ((decide_left_circular, "LCO"), (decide_bicircular, "BCO")):
            v = decide_side(q)
            assert not v.answer
            assert v.certificate == Certificate(
                NON_IDENTITY_LEFT,
                {"base": 0, "point": 1, "image": 2},
                "left translation by 0 moves 1 to 2; it fixes its base point, and an "
                "order-preserving bijection of a finite circle with a fixed point is the identity",
            )
            assert recheck_certificate(q, v.certificate, kind)

    def test_three_element_quandle(self):
        vr = decide_right_circular(THREE_ELT)
        assert not vr.answer
        assert vr.certificate == Certificate(
            NON_IDENTITY_RIGHT,
            {"base": 2, "point": 0, "image": 1},
            "right translation by 2 moves 0 to 1; it fixes its base point, and an "
            "order-preserving bijection of a finite circle with a fixed point is the identity",
        )
        assert recheck_certificate(THREE_ELT, vr.certificate, "RCO")
        vl = decide_left_circular(THREE_ELT)
        assert vl.certificate.kind == NON_INJECTIVE_LEFT

    def test_conj_s3_right(self):
        q = conj_quandle(symmetric_group(3))
        v = decide_right_circular(q)
        assert not v.answer
        assert v.certificate.kind == NON_IDENTITY_RIGHT
        assert recheck_certificate(q, v.certificate, "RCO")

    def test_tiny_carriers_are_bicircular(self):
        for n in (1, 2):
            q = trivial_quandle(n)
            assert decide_right_circular(q).answer
            assert decide_left_circular(q).answer
            assert decide_bicircular(q).answer

    def test_only_trivial_quandles_are_right_circular_beyond_two(self, labeled_catalog):
        # R_s fixes s, so a non-identity translation always breaks semiregularity
        from quorder import is_trivial_quandle

        catalog = {**labeled_catalog, 5: generate_all_quandles(5)}
        for n in (3, 4, 5):
            for q in catalog[n]:
                assert decide_right_circular(q).answer == is_trivial_quandle(q)
                assert decide_left_circular(q).answer is False
                assert decide_bicircular(q).answer is False

    def test_no_decision_builds_a_group(self, monkeypatch, labeled_catalog):
        def refuse(*args, **kwargs):
            raise AssertionError("a decision built a permutation group")

        monkeypatch.setattr(search, "closure", refuse)
        monkeypatch.setattr(quandles, "closure", refuse)
        carriers = [q for qs in labeled_catalog.values() for q in qs]
        carriers += [quandle_from_builtin(s) for s in ("dihedral:25", "core:s5")]
        for q in carriers:
            for kind in ("RCO", "LCO", "BCO", "RO", "LO"):
                v = decide(kind, q, "fast")
                assert v.answer or recheck_certificate(q, v.certificate, kind), (kind, q.table)
        v = decide("RCO", trivial_quandle(12), "fast")
        assert v.answer and v.witness == CyclicOrder(tuple(range(12)))

    def test_right_orderable_iff_trivial(self):
        assert decide_right_orderable(trivial_quandle(4)).answer
        v = decide_right_orderable(dihedral_quandle(3))
        assert not v.answer
        assert v.certificate.kind == NON_IDENTITY_RIGHT

    def test_left_orderable_only_singleton(self):
        assert decide_left_orderable(trivial_quandle(1)).answer
        assert not decide_left_orderable(trivial_quandle(2)).answer
        v = decide_left_orderable(dihedral_quandle(3))
        assert not v.answer

    def test_strategy_flags(self):
        q = dihedral_quandle(3)
        fast = decide_right_circular(q, strategy="fast")
        brute = decide_right_circular(q, strategy="brute")
        assert fast.answer == brute.answer is False
        assert brute.certificate.kind == "exhaustive-search"
        with pytest.raises(ValueError):
            decide_right_circular(q, strategy="guess")

    def test_disagreeing_tiers_raise_internal_inconsistency(self, monkeypatch):
        wrong = Verdict(False, certificate=Certificate(EXHAUSTED, {"checked": 0}, "wrong"))
        rco = {**vars(search.SPACES["RCO"]), "fast": lambda q: wrong}
        monkeypatch.setitem(search.SPACES, "RCO", search._Space(**rco))
        with pytest.raises(InternalInconsistency) as info:
            decide_right_circular(trivial_quandle(3))
        assert info.value.space == "RCO"
        assert info.value.verdicts == {"fast": False, "brute": True}
        # forcing one tier skips the diff
        assert decide_right_circular(trivial_quandle(3), strategy="fast") is wrong

    def test_verdict_shape_enforced(self):
        with pytest.raises(ValueError):
            Verdict(True)
        with pytest.raises(ValueError):
            Verdict(False)

    def test_non_injective_left_names_the_first_repeat(self, labeled_catalog):
        # the first row with a repeated value, the first position t whose value
        # appeared before, and that value's first position; a left ordering's
        # certificate names them
        specs = ("trivial:5", "conj:s4", "core:s4", "dihedral:25", "affine:11:2")
        for q in [q for qs in labeled_catalog.values() for q in qs] + [quandle_from_builtin(s) for s in specs]:
            expected = None
            for s, row in enumerate(q.rows):
                repeats = [t for t in range(q.size) if row[t] in row[:t]]
                if repeats:
                    t = repeats[0]
                    expected = (s, row.index(row[t]), t, row[t])
                    break
            assert q.first_merged == expected, q.table
            if expected is not None:
                s, t1, t2, image = expected
                cert = decide("LO", q, "fast").certificate
                assert cert.kind == NON_INJECTIVE_LEFT, q.table
                assert cert.data == {"base": s, "pair": [t1, t2], "image": image}, q.table


class TestCertificates:
    def test_certificates_recheck(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                for kind in SPACES:
                    v = decide(kind, q)
                    if v.answer:
                        assert v.certificate is None
                    else:
                        assert recheck_certificate(q, v.certificate, kind)

    def test_certificates_back_only_their_own_side_on_classes_up_to_5(self, class_catalog):
        classes = [q for n in range(1, 6) for q in class_catalog[n]]
        assert len(classes) == 34
        sides = ({"RCO", "RO"}, {"LCO", "BCO", "LO"})
        for q in classes:
            for kind, space in SPACES.items():
                # auto diffs the fast answer against the brute tier; the fast
                # verdict's witness is an order of the space's shape exactly
                # on a yes, and its certificate a Certificate exactly on a no
                v = decide(kind, q)
                shape = CyclicOrder if space.circle else LinearOrder
                assert isinstance(v.witness, shape) == v.answer, (kind, q.table)
                assert isinstance(v.certificate, Certificate) != v.answer, (kind, q.table)
                if v.answer:
                    assert v.witness in brute_space(kind, q), (kind, q.table)
                    continue
                assert recheck_certificate(q, v.certificate, kind), (kind, q.table)
                other = next(side for side in sides if kind not in side)
                for wrong in other:
                    assert not recheck_certificate(q, v.certificate, wrong), (kind, wrong, q.table)

    @pytest.mark.parametrize(
        "kind, data",
        [
            (NON_IDENTITY_LEFT, {"base": 0, "point": 1, "image": 0}),
            (NON_INJECTIVE_LEFT, {"base": 0, "pair": [0, 1], "image": 0}),
        ],
    )
    def test_pointwise_certificate_needs_three_points_on_a_circle(self, kind, data):
        # both facts hold on trivial:2, whose LCO and BCO are nonempty
        q = trivial_quandle(2)
        assert decide("LCO", q).answer and decide("BCO", q).answer
        assert not recheck_certificate(q, Certificate(kind, data, ""), "LCO")
        assert not recheck_certificate(q, Certificate(kind, data, ""), "BCO")
        # two points already make a chain it breaks
        assert not decide("LO", q).answer
        assert recheck_certificate(q, Certificate(kind, data, ""), "LO")

    def test_brute_certificates_recheck(self):
        q = dihedral_quandle(3)
        for kind in ("RCO", "LCO", "BCO", "RO", "LO"):
            v = decide(kind, q, strategy="brute")
            assert v.certificate.kind == EXHAUSTED
            assert recheck_certificate(q, v.certificate, kind), kind
            others = [k for k in SPACES if k != kind]
            assert not any(recheck_certificate(q, v.certificate, k) for k in others), kind

    def test_brute_decision_agrees_with_brute_listing(self, labeled_catalog, class_catalog):
        # a yes names the first member of the space; a no has scanned all
        # (n-1)! arrangements or n! rankings and rechecks
        quandles = [q for qs in labeled_catalog.values() for q in qs] + list(class_catalog[5])
        for q in quandles:
            n = q.size
            for kind in SPACES:
                v = decide(kind, q, strategy="brute")
                listed = brute_space(kind, q).members
                if v.answer:
                    assert v.witness == listed[0], (kind, q.table)
                else:
                    assert listed == (), (kind, q.table)
                    ground = factorial(n - 1) if kind in ("RCO", "LCO", "BCO") else factorial(n)
                    assert v.certificate.data == {"checked": ground}, (kind, q.table)
                    assert recheck_certificate(q, v.certificate, kind), (kind, q.table)

    def test_forged_exhaustive_certificate_rejected(self):
        q = trivial_quandle(3)  # RCO has 2 members
        rco = "none of the 2 circular orderings is right-invariant"
        lco = "none of the 2 circular orderings is left-invariant"
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 1}, "forged"), "RCO")
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 2}, rco), "RCO")
        # LCO of trivial:3 is empty, but the count must be the one scanned
        assert recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 2}, lco), "LCO")
        # and the detail must name the space being refuted
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 2}, lco), "BCO")
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 2}, rco), "BCO")
        wrong_count = lco.replace("2", "3")
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 3}, wrong_count), "LCO")
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {}, lco), "LCO")

    @pytest.mark.parametrize(
        "q, kind, data",
        [
            (dihedral_quandle(3), "non-cyclic-action", {}),
            (dihedral_quandle(3), "non-cyclic-action", {"acting": ["right translations"], "group_order": 6}),
            (dihedral_quandle(3), "non-cyclic-action", {"acting": "right translations", "group_order": 6.0}),
            (dihedral_quandle(3), "non-semiregular-action", {"acting": "right translations", "group_order": 6}),
            (dihedral_quandle(3), NON_INJECTIVE_LEFT, {"base": 9, "pair": [0, 1], "image": 0}),
            (dihedral_quandle(3), NON_INJECTIVE_LEFT, {"base": 0, "pair": [0], "image": 0}),
            (dihedral_quandle(3), EXHAUSTED, [2]),
            (THREE_ELT, NON_INJECTIVE_LEFT, {"base": -1, "pair": [0, 1], "image": 2}),
            (THREE_ELT, NON_INJECTIVE_LEFT, {"base": 2, "pair": [0, 1]}),
            (THREE_ELT, NON_INJECTIVE_LEFT, {"base": 2, "pair": [0, 1], "image": 2.0}),
            (THREE_ELT, NON_IDENTITY_RIGHT, {"base": 2, "point": -3, "image": 1}),
            (THREE_ELT, NON_IDENTITY_LEFT, {"base": True, "point": 0, "image": 1}),
            (THREE_ELT, NON_IDENTITY_LEFT, {"base": 1.0, "point": 0, "image": 1}),
            (THREE_ELT, NON_IDENTITY_LEFT, "base 1, point 0, image 1"),
            # group-action kinds are retired: even certificates decide used to return are rejected
            (trivial_quandle(3), "non-cyclic-action", {"acting": "left translations", "group_order": 1}),
            (
                trivial_quandle(3),
                "non-semiregular-action",
                {"acting": "left translations", "group_order": 1, "permutation": [0, 1, 2], "fixed_point": 0},
            ),
            (dihedral_quandle(3), "non-cyclic-action", {"acting": "right translations", "group_order": 6}),
            (
                THREE_ELT,
                "non-semiregular-action",
                {"acting": "right translations", "group_order": 2, "permutation": [1, 0, 2], "fixed_point": 2},
            ),
            # unhashable kinds
            (dihedral_quandle(3), [NON_IDENTITY_RIGHT], {"base": 0, "point": 1, "image": 2}),
            (dihedral_quandle(3), {"kind": NON_IDENTITY_RIGHT}, {"base": 0, "point": 1, "image": 2}),
        ],
    )
    def test_malformed_certificates_rejected(self, q, kind, data):
        detail = "none of the 2 circular orderings is right-invariant" if kind == EXHAUSTED else ""
        # the space a well-formed certificate of this kind would refute
        space = "LCO" if kind in (NON_INJECTIVE_LEFT, NON_IDENTITY_LEFT) else "RCO"
        assert recheck_certificate(q, Certificate(kind, data, detail), space) is False

    def test_witnesses_pass_invariance(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                vr = decide_right_circular(q)
                if vr.answer:
                    assert is_right_invariant(vr.witness, q)
                vl = decide_left_circular(q)
                if vl.answer:
                    assert is_left_invariant(vl.witness, q)
                vb = decide_bicircular(q)
                if vb.answer:
                    assert is_right_invariant(vb.witness, q)
                    assert is_left_invariant(vb.witness, q)
                vro = decide_right_orderable(q)
                if vro.answer:
                    assert is_right_order(vro.witness, q)
                vlo = decide_left_orderable(q)
                if vlo.answer:
                    assert is_left_order(vlo.witness, q)


FACT_BUILTINS = ("trivial:1", "trivial:2", "dihedral:256", "conj:s4", "core:z3xz3", "product:trivial:2+dihedral:3")


@pytest.fixture(scope="module")
def fact_cases(labeled_catalog, class_catalog, order6_classes):
    """Every labelled quandle of order <= 4, the classes of orders 5 and 6,
    and a few builtins up to 256 points."""
    assert (len(class_catalog[5]), len(order6_classes)) == (22, 73)
    labelled = [q for n in range(1, 5) for q in labeled_catalog[n]]
    return labelled + list(class_catalog[5]) + list(order6_classes) + list(map(quandle_from_builtin, FACT_BUILTINS))


def _reference_certificate(q, kind):
    """The fast path's certificate for the space, rebuilt from the reference
    scans, as (kind, data, the start of its detail), or None for a yes."""
    if kind in ("RCO", "RO"):
        moved = first_moved_point(q.table)
        if moved is None:
            return None
        s, t, image = moved
        return NON_IDENTITY_RIGHT, {"base": s, "point": t, "image": image}, f"right translation by {s} moves {t} to {image}; "
    if q.size <= (1 if kind == "LO" else 2):
        return None
    merged = first_merged_pair(q.table)
    if merged is None:
        image = q.table[0][1]
        return NON_IDENTITY_LEFT, {"base": 0, "point": 1, "image": image}, f"left translation by 0 moves 1 to {image}; "
    s, t1, t2, image = merged
    return NON_INJECTIVE_LEFT, {"base": s, "pair": [t1, t2], "image": image}, f"left translation by {s} sends both {t1} and {t2} to {image}"


# the reason a fast no gives after the translation it names, unless that
# translation merges two points
_WHY = {
    "RCO": search._CIRCLE,
    "LCO": search._CIRCLE,
    "BCO": search._CIRCLE,
    "RO": "a strictly increasing bijection of a finite chain is the identity",
    "LO": "a strictly increasing self-map of a finite chain is the identity",
}


def _eager_fast_verdict(q, kind):
    """The fast path's verdict, built with its evidence at once from the
    reference scans."""
    expected = _reference_certificate(q, kind)
    if expected is None:
        return Verdict(True, witness=(CyclicOrder if SPACES[kind].circle else LinearOrder)(range(q.size)))
    cert_kind, data, detail = expected
    if cert_kind != NON_INJECTIVE_LEFT:
        detail += _WHY[kind]
    return Verdict(False, certificate=Certificate(cert_kind, data, detail))


def _hash_or_none(verdict):
    """The verdict's hash; None when it is unhashable, as a certificate is."""
    try:
        return hash(verdict)
    except TypeError:
        return None


class TestTranslationFacts:
    def test_cached_facts_equal_the_reference_scans(self, fact_cases):
        for q in fact_cases:
            assert q.first_moved == first_moved_point(q.table), q.table
            assert q.first_merged == first_merged_pair(q.table), q.table

    def test_fast_certificates_equal_the_reference(self, fact_cases):
        for q in fact_cases:
            for kind in SPACES:
                v = decide(kind, q, "fast")
                expected = _reference_certificate(q, kind)
                if expected is None:
                    identity = (CyclicOrder if SPACES[kind].circle else LinearOrder)(range(q.size))
                    assert v.answer and v.witness == identity, (kind, q.table)
                    continue
                cert = v.certificate
                assert not v.answer and (cert.kind, cert.data) == expected[:2], (kind, q.table)
                assert cert.detail.startswith(expected[2]), (kind, cert.detail)
                assert recheck_certificate(q, cert, kind), (kind, q.table)

    def test_fast_verdicts_read_like_eagerly_built_ones(self, fact_cases):
        # a fast verdict builds its evidence on first read; whichever read
        # comes first, it equals, hashes, prints and renders as the verdict
        # built with its evidence at once
        for q in fact_cases:
            for kind in SPACES:
                eager = _eager_fast_verdict(q, kind)
                fresh = decide(kind, q, "fast")
                assert not {"witness", "certificate"} & set(vars(fresh)), (kind, q.table)
                assert fresh == eager and eager == decide(kind, q, "fast"), (kind, q.table)
                assert _hash_or_none(decide(kind, q, "fast")) == _hash_or_none(eager), (kind, q.table)
                assert repr(decide(kind, q, "fast")) == repr(eager), (kind, q.table)
                assert verdict_to_json(decide(kind, q, "fast")) == verdict_to_json(eager), (kind, q.table)

    def test_structure_matches_the_definitions(self, fact_cases):
        for q in fact_cases:
            t = q.table
            assert is_trivial_quandle(q) == is_trivial_table(t), t
            assert is_latin(q) == is_latin_table(t), t
            assert is_involutory(q) == is_involutory_table(t), t
            g = inner_group(q)
            assert orbits(q) == orbit_partition(t) == permutation_orbits(g.elements, g.degree), t


class TestSubbasis:
    def test_right_subbasis_of_trivial_3(self):
        q = trivial_quandle(3)
        assert subbasic_circular(q, "right", (0, 1, 2)) == (CyclicOrder((0, 1, 2)),)
        assert subbasic_circular(q, "right", (0, 2, 1)) == (CyclicOrder((0, 2, 1)),)

    def test_left_subbasis_empty_when_lco_empty(self):
        assert subbasic_circular(trivial_quandle(3), "left", (0, 1, 2)) == ()

    def test_degenerate_triple_rejected(self):
        with pytest.raises(DegenerateTriple):
            subbasic_circular(trivial_quandle(3), "right", (0, 0, 1))
        with pytest.raises(DegenerateTriple):
            subbasic_circular(trivial_quandle(3), "left", (2, 1, 2))

    def test_linear_subbasis_counts(self):
        q = trivial_quandle(3)
        for a, b in product(range(3), repeat=2):
            if a == b:
                with pytest.raises(DiagonalPair):
                    subbasic_linear(q, "right", (a, b))
            else:
                members = subbasic_linear(q, "right", (a, b))
                assert len(members) == 3
                assert all(o.before(a, b) for o in members)

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("pair, bad", [((-1, 0), -1), ((0, 7), 7), ((0, 3), 3), ((True, 0), True)])
    def test_linear_subbasis_rejects_non_points(self, side, pair, bad):
        with pytest.raises(ValueError, match=f"^{bad!r} is not a point of the 3-point carrier$"):
            subbasic_linear(trivial_quandle(3), side, pair)

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("triple, bad", [((0, 1, 5), 5), ((-1, 0, 1), -1), ((0, 1, 3), 3)])
    def test_circular_subbasis_rejects_non_points(self, side, triple, bad):
        with pytest.raises(ValueError, match=f"^{bad!r} is not a point of the 3-point carrier$"):
            subbasic_circular(trivial_quandle(3), side, triple)


class TestEmbedding:
    def test_trivial_3_right(self):
        report = embedding_image(trivial_quandle(3), "right")
        assert report.domain_size == 6
        assert report.image_size == 2
        assert report.fiber_sizes() == (3, 3)
        rco = set(enumerate_rco(trivial_quandle(3)).members)
        assert set(report.image) <= rco

    def test_trivial_2_right(self):
        report = embedding_image(trivial_quandle(2), "right")
        assert report.domain_size == 2
        assert report.image_size == 1

    def test_singleton(self):
        report = embedding_image(trivial_quandle(1), "right")
        assert report.domain_size == 1
        assert report.image_size == 1

    def test_left_side_of_singleton(self):
        report = embedding_image(trivial_quandle(1), "left")
        assert report.domain_size == 1

    def test_fibers_partition_domain(self):
        report = embedding_image(trivial_quandle(3), "right")
        seen = [o for _, fiber in report.fibers for o in fiber]
        assert sorted(seen, key=lambda o: o.ranking) == sorted(
            report.domain, key=lambda o: o.ranking
        )

    def test_failed_recheck_raises_internal_inconsistency(self, monkeypatch):
        # a reflection reverses every circle of three or more points
        rco = {**vars(search.SPACES["RCO"]), "maps": lambda q: [tuple(reversed(range(q.size)))]}
        monkeypatch.setitem(search.SPACES, "RCO", search._Space(**rco))
        with pytest.raises(InternalInconsistency) as info:
            embedding_image(trivial_quandle(3), "right")
        assert info.value.space == "RCO"

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            embedding_image(trivial_quandle(3), "middle")


def _relabel(q, sigma):
    """The quandle q carries to under the point relabelling sigma."""
    n = q.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[sigma[i]][sigma[j]] = sigma[q.table[i][j]]
    return FiniteQuandle(table)


def _isomorphic_by_scan(q1, q2):
    """Definitional isomorphism test: try all n! relabellings."""
    n = q1.size
    t1, t2 = q1.table, q2.table
    return n == q2.size and any(
        all(t2[p[i]][p[j]] == p[t1[i][j]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


def _canonical_by_scan(q):
    """Definitional canonical form: build every one of the n! relabellings
    in full and keep the least."""
    n = q.size
    t = q.table
    best = None
    for p in permutations(range(n)):
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        cand = tuple(tuple(p[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


# One table per isomorphism class of order n: each class's first member in
# the labelled output, in the order that output meets the classes; rows
# separated by "/". generate_all_quandles(n, up_to_iso=True) returns their
# canonical forms, sorted.
CLASS_REPRESENTATIVES = {
    1: ["0"],
    2: ["00/11"],
    3: ["000/111/222", "001/110/222", "021/210/102"],
    4: [
        "0000/1111/2222/3333", "0000/1112/2221/3333", "0001/1112/2220/3333",
        "0011/1100/2222/3333", "0000/1132/2321/3213", "0011/1100/3322/2233",
        "0312/2130/3021/1203",
    ],
    5: [
        "00000/11111/22222/33333/44444", "00000/11111/22223/33332/44444",
        "00000/11112/22223/33331/44444", "00001/11110/22223/33332/44444",
        "00001/11112/22223/33330/44444", "00000/11122/22211/33333/44444",
        "00011/11122/22200/33333/44444", "00012/11120/22201/33333/44444",
        "00000/11111/22243/33432/44324", "00011/11100/22222/33433/44344",
        "00111/11000/22222/33333/44444", "00111/11000/22223/33332/44444",
        "00111/11000/22243/33432/44324", "00000/11122/22211/34433/43344",
        "00000/11423/23241/34132/42314", "00000/11122/22211/44433/33344",
        "00011/11122/22200/44433/33344", "00111/11000/22222/44433/33344",
        "00111/11000/34243/42432/23324", "03421/21340/14203/40132/32014",
        "02341/21403/34210/40132/13024", "03412/21043/34201/42130/10324",
    ],
}


class TestCatalog:
    def test_labeled_tables_against_naive_oracle(self, labeled_catalog):
        # oracle: every diagonal-fixing column combination, in the same
        # lexicographic order, filtered by the definitional axiom scan
        for n in (1, 2, 3, 4):
            assert [q.table for q in labeled_catalog[n]] == labelled_quandle_tables(n)

    def test_class_representatives_frozen(self, class_catalog):
        for n, encoded in CLASS_REPRESENTATIVES.items():
            tables = [tuple(tuple(map(int, row)) for row in e.split("/")) for e in encoded]
            expected = sorted(_canonical_by_scan(FiniteQuandle(t)) for t in tables)
            assert [q.table for q in class_catalog[n]] == expected

    def test_labeled_counts_frozen(self, labeled_catalog):
        assert [len(labeled_catalog[n]) for n in (1, 2, 3, 4)] == [1, 1, 5, 36]

    def test_class_counts(self, class_catalog, order6_classes):
        # OEIS A181769
        counts = [len(class_catalog[n]) for n in (1, 2, 3, 4, 5)] + [len(order6_classes)]
        assert counts == [1, 1, 3, 7, 22, 73]

    def test_connected_class_counts(self, class_catalog, order6_classes):
        # OEIS A181771: classes whose inner group acts transitively (one orbit)
        catalog = [class_catalog[n] for n in (1, 2, 3, 4, 5)] + [order6_classes]
        counts = [sum(len(quandles.orbits(q)) == 1 for q in classes) for classes in catalog]
        assert counts == [1, 0, 1, 1, 3, 2]

    def test_generation_cap(self):
        assert search.MAX_GENERATE_N == 7
        for up_to_iso in (False, True):
            with pytest.raises(ResourceLimit) as info:
                generate_all_quandles(8, up_to_iso=up_to_iso)
            assert (info.value.requested, info.value.cap) == (8, 7)

    def test_known_members_appear(self, labeled_catalog):
        tables3 = {q.table for q in labeled_catalog[3]}
        assert trivial_quandle(3).table in tables3
        assert dihedral_quandle(3).table in tables3
        assert THREE_ELT.table in tables3

    def test_isomorphism_detection(self):
        relabeled = FiniteQuandle([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
        assert are_isomorphic(dihedral_quandle(3), relabeled)
        assert not are_isomorphic(dihedral_quandle(3), trivial_quandle(3))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_canonical_form_is_constant_on_a_class(self, class_catalog, data):
        n = data.draw(st.integers(1, 5))
        q = data.draw(st.sampled_from(class_catalog[n]))
        sigma = data.draw(st.permutations(range(n)))
        assert canonical_form(_relabel(q, sigma)) == canonical_form(q)

    def test_canonical_form_is_relabel_invariant(self):
        q = THREE_ELT
        # relabel by the 3-cycle 0->1->2->0
        p = (1, 2, 0)
        inv = (2, 0, 1)
        relabeled = FiniteQuandle(
            [[p[q.op(inv[i], inv[j])] for j in range(3)] for i in range(3)]
        )
        assert canonical_form(q) == canonical_form(relabeled)


class TestOrderlyGeneration:
    """The orderly up_to_iso search against the labelled one."""

    @pytest.fixture(scope="class")
    def labelled(self, labeled_catalog):
        return {**labeled_catalog, 5: generate_all_quandles(5)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_labelled_quandle_has_exactly_one_representative(self, labelled, class_catalog, n):
        isomorphic = _isomorphic_by_scan if n <= 4 else are_isomorphic
        reps = class_catalog[n]
        for q in labelled[n]:
            assert sum(isomorphic(q, r) for r in reps) == 1, q.table

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_representatives_are_sorted_canonical_forms_of_labelled_output(self, labelled, class_catalog, n):
        canonical = _canonical_by_scan if n <= 4 else canonical_form
        forms = sorted({canonical(q) for q in labelled[n]})
        assert [q.table for q in class_catalog[n]] == forms

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_representatives_are_first_labelled_members_in_order(self, labelled, class_catalog, n):
        # classes found by isomorphism alone, each kept as its first labelled
        # member; the catalogue holds their canonical forms in sorted order
        canonical = _canonical_by_scan if n <= 4 else canonical_form
        firsts = []
        for q in labelled[n]:
            if not any(are_isomorphic(q, f) for f in firsts):
                firsts.append(q)
        assert [q.table for q in class_catalog[n]] == sorted(canonical(f) for f in firsts)

    def test_canonical_form_equals_full_scan_on_labelled_tables(self, labeled_catalog):
        for n in (1, 2, 3, 4):
            for q in labeled_catalog[n]:
                assert canonical_form(q) == _canonical_by_scan(q), q.table

    def test_canonical_form_equals_full_scan_on_relabelled_classes(self, class_catalog):
        sigmas = [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (1, 2, 3, 4, 0), (2, 0, 4, 1, 3)]
        for q in class_catalog[5]:
            for sigma in sigmas:
                relabelled = _relabel(q, sigma)
                assert canonical_form(relabelled) == _canonical_by_scan(relabelled), (q.table, sigma)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_canonical_form_equals_full_scan_on_random_relabellings(self, class_catalog, order6_classes, n, data):
        # every class of the order, each under its own drawn relabelling; the
        # form is the class's catalogue table, which the orderly search
        # returns as its form
        classes = order6_classes if n == 6 else class_catalog[n]
        for q in classes:
            relabelled = _relabel(q, data.draw(st.permutations(range(n))))
            assert canonical_form(relabelled) == _canonical_by_scan(relabelled) == q.table

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_classes_count_the_labelled_quandles(self, labelled, class_catalog, n):
        # a class of order n has n!/|Aut(Q)| labelled members
        total = sum(factorial(n) // automorphism_count(q.table) for q in class_catalog[n])
        assert total == len(labelled[n]) == [1, 1, 5, 36, 404][n - 1]


def _greatest_k(table):
    """The most points y with x*y = x, over the points x."""
    return max(row.count(x) for x, row in enumerate(table))


def _union(parts):
    """The disjoint union of quandles, each part's points after the earlier
    parts': points of different parts act trivially on each other."""
    n = sum(q.size for q in parts)
    table, lo = [], 0
    for q in parts:
        hi = lo + q.size
        table += [[lo + q.op(x, y - lo) if lo <= y < hi else lo + x for y in range(n)] for x in range(q.size)]
        lo = hi
    return FiniteQuandle(table)


class TestCanonicalKernel:
    """`_least_relabelling` scans only the relabellings whose row 0 can be
    least, with one C-level `min` over position and label tables."""

    def test_row_0_of_labelled_forms_starts_with_the_greatest_k_zeros(self, labeled_catalog):
        for n in (1, 2, 3, 4):
            for q in labeled_catalog[n]:
                k = _greatest_k(q.table)
                form = canonical_form(q)
                assert form[0][:k] == (0,) * k and form[0].count(0) == k, q.table

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_row_0_of_relabelled_forms_starts_with_the_greatest_k_zeros(self, class_catalog, order6_classes, n, data):
        classes = order6_classes if n == 6 else class_catalog[n]
        for q in classes:
            relabelled = _relabel(q, data.draw(st.permutations(range(n))))
            k = _greatest_k(relabelled.table)
            form = canonical_form(relabelled)
            assert form[0][:k] == (0,) * k and form[0].count(0) == k, q.table

    @pytest.mark.parametrize("spec", ["dihedral:7", "affine:7:3", "trivial:7"])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_seven_point_forms_equal_the_full_scan(self, spec, data):
        relabelled = _relabel(quandle_from_builtin(spec), data.draw(st.permutations(range(7))))
        assert canonical_form(relabelled) == _canonical_by_scan(relabelled)

    @pytest.mark.parametrize("specs", ["dihedral:8", "trivial:8", "dihedral:3+dihedral:5"])
    def test_eight_point_forms_equal_the_full_scan(self, specs):
        # every point of dihedral:8 and of trivial:8 has the same k, so no
        # block is cut; in the union the dihedral:3 points have the greater k
        q = _union([quandle_from_builtin(spec) for spec in specs.split("+")])
        relabelled = _relabel(q, (5, 2, 7, 0, 3, 6, 1, 4))
        assert canonical_form(relabelled) == _canonical_by_scan(relabelled)


def _labelled_candidates(n):
    return [[p for p in permutations(range(n)) if p[j] == j] for j in range(n)]


class TestColumnSearch:
    """`_column_search` derives the columns column 0 forces and tests only
    the triples that name the new column; the reference tries every
    candidate and tests every pair."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_labelled_candidates_match_the_all_pairs_search(self, n):
        candidates = _labelled_candidates(n)
        assert search._column_search(candidates) == column_search_all_pairs(candidates)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_orderly_bounded_lists_match_the_all_pairs_search(self, monkeypatch, n):
        lists = []
        column_search = search._column_search

        def recorded(candidates):
            lists.append(candidates)
            return column_search(candidates)

        monkeypatch.setattr(search, "_column_search", recorded)
        generate_all_quandles(n, up_to_iso=True)
        assert lists
        for candidates in lists:
            assert column_search(candidates) == column_search_all_pairs(candidates), candidates[0]

    def test_a_forced_column_outside_the_candidates_is_not_tried(self):
        # column 0 = (0, 2, 3, 1) sends 1 to 2 and 2 to 3, so columns 2 and 3
        # are forced by column 1; two tables are found. With column 2 cut to
        # the candidates that also fix 1, the second table's forced column 2
        # is not a candidate, and only the first table is left
        candidates = _labelled_candidates(4)
        candidates[0] = [(0, 2, 3, 1)]
        first = ((0, 2, 3, 1), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))
        second = ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3))
        assert search._column_search(candidates) == column_search_all_pairs(candidates) == [first, second]
        candidates[2] = [p for p in candidates[2] if p[1] == 1]
        assert search._column_search(candidates) == column_search_all_pairs(candidates) == [first]

    def test_the_engine_leaves_no_cyclic_garbage(self):
        # every object the search and the census build is freed by reference
        # counting when it returns, so the cyclic collector finds nothing
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            census(5)
            generate_all_quandles(4)
            verify_paper()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def _refuse_scan(*args):
    raise AssertionError("a canonical-form scan started")


class TestIsomorphism:
    def test_matches_scan_on_labelled_pairs(self, labeled_catalog):
        for quandles in labeled_catalog.values():
            for a in quandles:
                for b in quandles:
                    assert are_isomorphic(a, b) == _isomorphic_by_scan(a, b), (a.table, b.table)

    def test_distinct_classes_are_not_isomorphic(self, class_catalog):
        for n, reps in class_catalog.items():
            for a in reps:
                for b in reps:
                    if a is b:
                        continue
                    assert not are_isomorphic(a, b), (a.table, b.table)
                    assert not _isomorphic_by_scan(a, b)

    @pytest.mark.parametrize("a, b", [("affine:7:2", "affine:7:4"), ("affine:7:3", "affine:7:5")])
    def test_equal_invariants_without_isomorphism(self, a, b):
        # each pair matches point for point in the cycle types of the right
        # translations and the image sizes of the left ones
        qa, qb = quandle_from_builtin(a), quandle_from_builtin(b)
        assert not are_isomorphic(qa, qb)
        assert not _isomorphic_by_scan(qa, qb)

    @pytest.mark.parametrize("spec", ["order5", "dihedral:6", "conj:s3", "core:s3"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabellings_are_isomorphic(self, class_catalog, spec, data):
        if spec == "order5":
            q = data.draw(st.sampled_from(class_catalog[5]))
        else:
            q = quandle_from_builtin(spec)
        sigma = data.draw(st.permutations(range(q.size)))
        relabelled = _relabel(q, sigma)
        assert are_isomorphic(q, relabelled)
        assert are_isomorphic(relabelled, q)

    def test_order_5_generation_scans_once_per_table_found(self, monkeypatch):
        scans, found = [], []
        scan, column_search = quandles._least_relabelling, search._column_search

        def counted_scan(table):
            scans.append(table)
            return scan(table)

        def counted_search(candidates):
            tables = column_search(candidates)
            found.extend(tables)
            return tables

        monkeypatch.setattr(quandles, "_least_relabelling", counted_scan)
        monkeypatch.setattr(search, "_column_search", counted_search)
        assert len(generate_all_quandles(5, up_to_iso=True)) == 22
        assert len(scans) == len(found) == 36
        assert sorted(scans) == sorted(search._transpose(cols) for cols in found)

    def test_generation_validates_each_class_once(self, monkeypatch):
        # the up_to_iso path checks the axioms of its class forms only; the
        # labelled path checks every table it returns
        checked = []
        first_failure = quandles.first_failure

        def counted_check(flat, side):
            n = isqrt(len(flat))
            checked.append(tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n)))
            return first_failure(flat, side)

        monkeypatch.setattr(quandles, "first_failure", counted_check)
        classes = generate_all_quandles(5, up_to_iso=True)
        assert sorted(checked) == sorted(q.table for q in classes)
        assert len(checked) == 22
        checked.clear()
        assert len(generate_all_quandles(4)) == len(checked) == 36

    def test_generation_still_rejects_a_table_that_is_not_a_quandle(self, monkeypatch):
        # bijective columns, each fixing its own index, that are not
        # distributive: the class form built from them must fail its check
        bad = ((0, 2, 1), (2, 1, 0), (0, 1, 2))
        with pytest.raises(NotAQuandle) as exc:
            FiniteQuandle(search._transpose(bad))
        assert exc.value.axiom == "right-distributivity"
        monkeypatch.setattr(search, "_column_search", lambda candidates: [bad])
        with pytest.raises(NotAQuandle) as exc:
            generate_all_quandles(3, up_to_iso=True)
        assert exc.value.axiom == "right-distributivity"

    def test_isomorphism_of_quandles_with_cached_forms_runs_no_scan(self, monkeypatch):
        q = dihedral_quandle(5)
        relabelled = _relabel(q, (4, 0, 3, 1, 2))
        other = quandle_from_builtin("affine:5:2")
        for x in (q, relabelled, other):
            canonical_form(x)
        monkeypatch.setattr(quandles, "_least_relabelling", _refuse_scan)
        assert are_isomorphic(q, relabelled)
        assert not are_isomorphic(q, other)
        assert canonical_form(relabelled) == canonical_form(q)

    def test_scan_cap_raises_before_scanning(self, monkeypatch):
        assert quandles.MAX_CANONICAL_N == 8
        q8 = dihedral_quandle(8)
        assert are_isomorphic(q8, _relabel(q8, (7, 6, 5, 4, 3, 2, 1, 0)))
        q9 = dihedral_quandle(9)
        monkeypatch.setattr(quandles, "permutations", _refuse_scan)
        for call in (lambda: canonical_form(q9), lambda: are_isomorphic(q9, q9)):
            with pytest.raises(ResourceLimit) as info:
                call()
            assert (info.value.requested, info.value.cap) == (9, 8)


class TestOracleEquivalence:
    def test_fast_equals_brute_up_to_4(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                for kind, (decider, _) in NAMED.items():
                    fast = decider(q, strategy="fast")
                    brute = decider(q, strategy="brute")
                    assert fast.answer == brute.answer, (n, q.table, kind)

    def test_bicircular_fast_equals_brute_on_order_5_classes(self, class_catalog):
        for q in class_catalog[5]:
            fast = decide_bicircular(q, strategy="fast")
            brute = decide_bicircular(q, strategy="brute")
            assert fast.answer == brute.answer, q.table


class TestOrderClosureProperties:
    """Lemmas about the spaces, checked on the brute filter rather than on
    the closed form that rests on them."""

    def test_ordering_images_stay_invariant(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                rco = set(brute_space("RCO", q).members)
                lco = set(brute_space("LCO", q).members)
                for o in brute_space("RO", q):
                    assert circular_from_linear(o) in rco
                for o in brute_space("LO", q):
                    assert circular_from_linear(o) in lco

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_space_sizes_survive_relabelling(self, class_catalog, data):
        n = data.draw(st.integers(1, 4))
        q = data.draw(st.sampled_from(class_catalog[n]))
        relabelled = _relabel(q, data.draw(st.permutations(range(n))))
        for kind in SPACES:
            assert len(brute_space(kind, relabelled)) == len(brute_space(kind, q)), kind

    def test_monotone_consistency(self, labeled_catalog):
        # empty RCO forces empty RO (and dually)
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                if len(brute_space("RCO", q)) == 0:
                    assert len(brute_space("RO", q)) == 0
                if len(brute_space("LCO", q)) == 0:
                    assert len(brute_space("LO", q)) == 0

    def test_conj_quandles_never_left_circular(self):
        groups = [
            cyclic_group(3),
            cyclic_group(4),
            cyclic_group(5),
            direct_product(cyclic_group(2), cyclic_group(2)),
            symmetric_group(3),
        ]
        for g in groups:
            assert len(brute_space("LCO", conj_quandle(g))) == 0


class TestCensus:
    def test_row_counts_and_flags(self):
        records = census(3)
        assert len(records) == 1 + 1 + 3
        order1 = records[0]
        assert all(
            order1[key]
            for key in (
                "right_circularly_orderable",
                "left_circularly_orderable",
                "bi_circularly_orderable",
                "right_orderable",
                "left_orderable",
                "latin",
                "involutory",
                "trivial",
            )
        )
        order2 = records[1]
        assert order2["bi_circularly_orderable"]
        dihedral_rows = [
            r for r in records if r["order"] == 3 and r["latin"] and not r["trivial"]
        ]
        assert len(dihedral_rows) == 1
        row = dihedral_rows[0]
        assert not row["right_circularly_orderable"]
        assert not row["left_circularly_orderable"]
        assert not row["right_orderable"]
        assert not row["left_orderable"]
        assert row["orbits"] == [[0, 1, 2]]

    def test_census_is_deterministic(self):
        assert census(3) == census(3)

    def test_census_sizes_agree_with_flags(self):
        for record in census(5):
            assert (record["rco_size"] > 0) == record["right_circularly_orderable"]
            assert (record["lco_size"] > 0) == record["left_circularly_orderable"]
            assert (record["bco_size"] > 0) == record["bi_circularly_orderable"]
            assert (record["ro_size"] > 0) == record["right_orderable"]
            assert (record["lo_size"] > 0) == record["left_orderable"]
            # closure of rankings into cycles can only shrink the count
            assert record["ro_size"] >= record["rco_size"] or record["rco_size"] <= 1
            # census takes BCO as RCO ∩ LCO; brute_space filters every space itself
            q = FiniteQuandle(record["representative_table"])
            for kind in SPACES:
                assert record[f"{kind.lower()}_size"] == len(brute_space(kind, q)), (kind, q.table)

    def test_census_sizes_match_member_tests_on_order_6(self):
        # the census filters in byte form; the oracle is the definition, one
        # candidate at a time: the triple scan for the circular spaces and
        # every ordered pair for the rankings
        def right(c, q):
            return right_invariance_witness(c, q) is None

        def left(c, q):
            return left_invariance_witness(c, q) is None

        tests = {
            "RCO": right,
            "LCO": left,
            "BCO": lambda c, q: right(c, q) and left(c, q),
            "RO": lambda o, q: pairwise_monotone(o, q.columns),
            "LO": lambda o, q: pairwise_monotone(o, q.rows),
        }
        circles, rankings = enumerate_circular_orderings(6), enumerate_rankings(6)
        records = [r for r in census(6) if r["order"] == 6]
        assert len(records) == 73
        for record in records:
            q = FiniteQuandle(record["representative_table"])
            for kind, member in tests.items():
                ground = circles if kind in ("RCO", "LCO", "BCO") else rankings
                size = sum(1 for x in ground if member(x, q))
                assert record[f"{kind.lower()}_size"] == size, (kind, q.table)

    def test_census_scans_each_space_once(self, monkeypatch):
        expected = census(3)

        def no_rescan(*args):
            raise AssertionError("census re-ran the brute tier")

        monkeypatch.setattr(search, "_brute", no_rescan)
        assert census(3) == expected

    def test_census_builds_two_byte_forms_per_order_and_no_ground_orders(self, monkeypatch):
        # each order's arrangements and rankings are built once, as byte
        # forms, and none of their members becomes an order object; census
        # reads only the fast verdicts' answers, so it builds no witness and
        # no certificate either
        expected = census(4)
        forms, made = [], []
        ground_form, unchecked = search.ground_form, search._unchecked

        def counted_form(n, circle, caps):
            forms.append((n, circle))
            return ground_form(n, circle, caps)

        def quandles_only(cls, *args, **kwargs):
            assert cls is FiniteQuandle, cls
            return unchecked(cls, *args, **kwargs)

        monkeypatch.setattr(search, "ground_form", counted_form)
        monkeypatch.setattr(search, "_unchecked", quandles_only)
        for cls in (CyclicOrder, LinearOrder, Certificate):
            monkeypatch.setattr(search, cls.__name__, lambda *args, cls=cls: made.append(cls) or cls(*args))
        assert census(4) == expected
        assert forms == [(n, circle) for n in (1, 2, 3, 4) for circle in (True, False)]
        assert made == []

    def test_census_takes_the_catalogue_as_it_comes(self, class_catalog, monkeypatch):
        # the catalogue returns canonical forms in census order, so census
        # neither relabels nor rebuilds a class
        expected = census(5)

        def refuse(*args, **kwargs):
            raise AssertionError("census relabelled or rebuilt a class")

        monkeypatch.setattr(search, "generate_all_quandles", lambda n, up_to_iso: class_catalog[n])
        monkeypatch.setattr(search, "canonical_form", refuse)
        monkeypatch.setattr(search, "FiniteQuandle", refuse)
        assert census(5) == expected

    def test_census_diffs_fast_path_against_enumeration(self, monkeypatch):
        wrong = Verdict(False, certificate=Certificate(EXHAUSTED, {"checked": 0}, "wrong"))
        rco = {**vars(search.SPACES["RCO"]), "fast": lambda q: wrong}
        monkeypatch.setitem(search.SPACES, "RCO", search._Space(**rco))
        with pytest.raises(InternalInconsistency) as info:
            census(3)
        assert info.value.space == "RCO"
        assert info.value.verdicts == {"fast": False, "brute": True}
        assert "disagree on right-circular orderability" in str(info.value)

    def test_census_respects_generation_cap(self, monkeypatch):
        def refuse(n, up_to_iso):
            raise AssertionError("census generated an order before checking the cap")

        monkeypatch.setattr(search, "generate_all_quandles", refuse)
        with pytest.raises(ResourceLimit) as info:
            census(8)
        assert (info.value.requested, info.value.cap) == (8, 7)
        # every order's ground sets are built, lowest order first and the
        # arrangements before the rankings, before any class is generated
        for max_n, caps, refused in (
            (7, SearchCaps(6, 6), ("circular-ordering enumeration", 7, 6)),
            (5, SearchCaps(10, 3), ("ranking enumeration", 4, 3)),
        ):
            with pytest.raises(ResourceLimit) as info:
                census(max_n, caps)
            assert (info.value.what, info.value.requested, info.value.cap) == refused


def _fast_summary(v: Verdict) -> tuple:
    cert = v.certificate
    return v.answer, cert and cert.kind, cert and cert.data.get("group_order")


class TestRelabelling:
    @pytest.mark.parametrize("spec", ["dihedral:5", "core:z3xz3", "affine:7:3", "conj:s3"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_fast_verdicts_survive_relabelling(self, spec, data):
        q = quandle_from_builtin(spec)
        relabelled = _relabel(q, data.draw(st.permutations(range(q.size))))
        for kind in ("RCO", "LCO", "BCO", "RO", "LO"):
            assert _fast_summary(decide(kind, relabelled, "fast")) == _fast_summary(
                decide(kind, q, "fast")
            )
