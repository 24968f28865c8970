from dataclasses import replace
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dual_quandle,
    embedding_image,
    enumerate_bicircular,
    enumerate_circular_orderings,
    enumerate_lco,
    enumerate_left_orderings,
    enumerate_rankings,
    enumerate_rco,
    enumerate_right_orderings,
    generate_all_quandles,
    is_left_invariant,
    is_left_order,
    is_right_invariant,
    is_right_order,
    recheck_certificate,
    subbasic_circular,
    subbasic_linear,
    symmetric_group,
    trivial_quandle,
)
from quorder import search
from quorder.cli import quandle_from_builtin
from quorder.search import (
    EXHAUSTED,
    LEFT,
    NON_CYCLIC,
    NON_IDENTITY_LEFT,
    NON_IDENTITY_RIGHT,
    NON_INJECTIVE_LEFT,
    NON_SEMIREGULAR,
    Certificate,
    decide,
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


class TestDecisions:
    def test_trivial_3(self):
        vr = decide_right_circular(trivial_quandle(3))
        assert vr.answer and vr.witness == CyclicOrder((0, 1, 2))
        vl = decide_left_circular(trivial_quandle(3))
        assert not vl.answer
        assert vl.certificate.kind == NON_INJECTIVE_LEFT

    def test_dihedral_3(self):
        q = dihedral_quandle(3)
        vr = decide_right_circular(q)
        assert not vr.answer
        assert vr.certificate.kind == NON_CYCLIC
        assert vr.certificate.data["group_order"] == 6
        assert not decide_left_circular(q).answer
        assert not decide_bicircular(q).answer

    def test_three_element_quandle(self):
        vr = decide_right_circular(THREE_ELT)
        assert not vr.answer
        assert vr.certificate == Certificate(
            NON_SEMIREGULAR,
            {"acting": "right translations", "group_order": 2, "permutation": [1, 0, 2], "fixed_point": 2},
            "a non-identity element of the group generated by the right translations fixes point 2",
        )
        assert recheck_certificate(THREE_ELT, vr.certificate)
        vl = decide_left_circular(THREE_ELT)
        assert vl.certificate.kind == NON_INJECTIVE_LEFT

    def test_conj_s3_right(self):
        v = decide_right_circular(conj_quandle(symmetric_group(3)))
        assert not v.answer
        assert v.certificate.kind == NON_CYCLIC
        assert v.certificate.data["group_order"] == 6

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

    def test_trivial_quandles_need_no_closure(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closure built for a trivial quandle")

        monkeypatch.setattr(search, "closure", refuse)
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
        monkeypatch.setitem(search.SPACES, "RCO", replace(search.SPACES["RCO"], fast=lambda q: wrong))
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


class TestCertificates:
    def test_certificates_recheck(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                for decide in (
                    decide_right_circular,
                    decide_left_circular,
                    decide_bicircular,
                    decide_right_orderable,
                    decide_left_orderable,
                ):
                    v = decide(q)
                    if v.answer:
                        assert v.certificate is None
                    else:
                        assert recheck_certificate(q, v.certificate)

    def test_brute_certificates_recheck(self):
        q = dihedral_quandle(3)
        for kind in ("RCO", "LCO", "BCO", "RO", "LO"):
            v = decide(kind, q, strategy="brute")
            assert v.certificate.kind == EXHAUSTED
            assert recheck_certificate(q, v.certificate), kind

    def test_forged_exhaustive_certificate_rejected(self):
        q = trivial_quandle(3)  # RCO has 2 members
        rco = "none of the 2 circular orderings is right-invariant"
        lco = "none of the 2 circular orderings is left-invariant"
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 1}, "forged"))
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 2}, rco))
        # LCO of trivial:3 is empty, but the count must be the one scanned
        assert recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 2}, lco))
        wrong_count = lco.replace("2", "3")
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {"checked": 3}, wrong_count))
        assert not recheck_certificate(q, Certificate(EXHAUSTED, {}, lco))

    def test_group_certificate_naming_non_bijective_maps_rejected(self):
        q = trivial_quandle(3)  # every row is constant
        cert = Certificate(NON_CYCLIC, {"acting": LEFT, "group_order": 1}, "forged")
        assert recheck_certificate(q, cert) is False
        cert = Certificate(
            NON_SEMIREGULAR,
            {"acting": LEFT, "group_order": 1, "permutation": [0, 1, 2], "fixed_point": 0},
            "forged",
        )
        assert recheck_certificate(q, cert) is False

    @pytest.mark.parametrize(
        "q, kind, data",
        [
            (dihedral_quandle(3), NON_CYCLIC, {}),
            (dihedral_quandle(3), NON_CYCLIC, {"acting": ["right translations"], "group_order": 6}),
            (dihedral_quandle(3), NON_CYCLIC, {"acting": "right translations", "group_order": 6.0}),
            (dihedral_quandle(3), NON_SEMIREGULAR, {"acting": "right translations", "group_order": 6}),
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
        ],
    )
    def test_malformed_certificates_rejected(self, q, kind, data):
        detail = "none of the 2 circular orderings is right-invariant" if kind == EXHAUSTED else ""
        assert recheck_certificate(q, Certificate(kind, data, detail)) is False

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
        monkeypatch.setitem(search.SPACES, "RCO", replace(search.SPACES["RCO"], member=lambda c, q: False))
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


# Class representatives of generate_all_quandles(n, up_to_iso=True), in
# output order; rows separated by "/".
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
        # lexicographic order, filtered through full table validation
        for n in (1, 2, 3, 4):
            perms_fixing = [
                [p for p in permutations(range(n)) if p[j] == j] for j in range(n)
            ]
            tables = []
            for cols in product(*perms_fixing):
                table = [[cols[j][i] for j in range(n)] for i in range(n)]
                try:
                    tables.append(FiniteQuandle(table).table)
                except NotAQuandle:
                    continue
            assert [q.table for q in labeled_catalog[n]] == tables

    def test_class_representatives_frozen(self, class_catalog):
        for n, encoded in CLASS_REPRESENTATIVES.items():
            tables = [tuple(tuple(map(int, row)) for row in e.split("/")) for e in encoded]
            assert [q.table for q in class_catalog[n]] == tables

    def test_labeled_counts_frozen(self, labeled_catalog):
        assert [len(labeled_catalog[n]) for n in (1, 2, 3, 4)] == [1, 1, 5, 36]

    def test_class_counts(self, class_catalog):
        assert [len(class_catalog[n]) for n in (1, 2, 3, 4, 5)] == [1, 1, 3, 7, 22]

    def test_generation_cap(self):
        with pytest.raises(ResourceLimit):
            generate_all_quandles(6)

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

    def test_double_dual_over_catalog(self, class_catalog):
        for n in range(1, 6):
            for q in class_catalog[n]:
                assert dual_quandle(dual_quandle(q)).table == q.table


class TestIsomorphism:
    def test_matches_scan_on_labelled_pairs(self, labeled_catalog):
        for quandles in labeled_catalog.values():
            for a in quandles:
                for b in quandles:
                    assert are_isomorphic(a, b) == _isomorphic_by_scan(a, b), (a.table, b.table)

    def test_distinct_classes_are_not_isomorphic(self, class_catalog):
        same_invariants = 0
        for n, reps in class_catalog.items():
            for a in reps:
                for b in reps:
                    if a is b:
                        continue
                    assert not are_isomorphic(a, b), (a.table, b.table)
                    assert not _isomorphic_by_scan(a, b)
                    same_invariants += sorted(a.point_invariants) == sorted(b.point_invariants)
        # affine:5:2 and affine:5:3, in both orders: the backtracking search,
        # not the invariant filter, answers
        assert same_invariants == 2

    @pytest.mark.parametrize("a, b", [("affine:7:2", "affine:7:4"), ("affine:7:3", "affine:7:5")])
    def test_equal_invariants_without_isomorphism(self, a, b):
        qa, qb = quandle_from_builtin(a), quandle_from_builtin(b)
        assert sorted(qa.point_invariants) == sorted(qb.point_invariants)
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
        for s in range(q.size):
            assert relabelled.point_invariants[sigma[s]] == q.point_invariants[s]


class TestOracleEquivalence:
    def test_fast_equals_brute_up_to_4(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                for decide in (
                    decide_right_circular,
                    decide_left_circular,
                    decide_bicircular,
                    decide_right_orderable,
                    decide_left_orderable,
                ):
                    fast = decide(q, strategy="fast")
                    brute = decide(q, strategy="brute")
                    assert fast.answer == brute.answer, (n, q.table, decide.__name__)

    def test_bicircular_fast_equals_brute_on_order_5_classes(self, class_catalog):
        for q in class_catalog[5]:
            fast = decide_bicircular(q, strategy="fast")
            brute = decide_bicircular(q, strategy="brute")
            assert fast.answer == brute.answer, q.table


class TestOrderClosureProperties:
    def test_ordering_images_stay_invariant(self, labeled_catalog):
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                rco = set(enumerate_rco(q).members)
                lco = set(enumerate_lco(q).members)
                for o in enumerate_right_orderings(q):
                    assert circular_from_linear(o) in rco
                for o in enumerate_left_orderings(q):
                    assert circular_from_linear(o) in lco

    def test_monotone_consistency(self, labeled_catalog):
        # empty RCO forces empty RO (and dually)
        for n, quandles in labeled_catalog.items():
            for q in quandles:
                if len(enumerate_rco(q)) == 0:
                    assert len(enumerate_right_orderings(q)) == 0
                if len(enumerate_lco(q)) == 0:
                    assert len(enumerate_left_orderings(q)) == 0

    def test_conj_quandles_never_left_circular(self):
        groups = [
            cyclic_group(3),
            cyclic_group(4),
            cyclic_group(5),
            direct_product(cyclic_group(2), cyclic_group(2)),
            symmetric_group(3),
        ]
        for g in groups:
            assert len(enumerate_lco(conj_quandle(g))) == 0


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
        for record in census(4):
            assert (record["rco_size"] > 0) == record["right_circularly_orderable"]
            assert (record["lco_size"] > 0) == record["left_circularly_orderable"]
            assert (record["bco_size"] > 0) == record["bi_circularly_orderable"]
            assert (record["ro_size"] > 0) == record["right_orderable"]
            assert (record["lo_size"] > 0) == record["left_orderable"]
            # closure of rankings into cycles can only shrink the count
            assert record["ro_size"] >= record["rco_size"] or record["rco_size"] <= 1

    def test_census_scans_each_space_once(self, monkeypatch):
        expected = census(3)

        def no_rescan(*args):
            raise AssertionError("census re-ran the brute tier")

        monkeypatch.setattr(search, "_brute", no_rescan)
        assert census(3) == expected

    def test_census_diffs_fast_path_against_enumeration(self, monkeypatch):
        wrong = Verdict(False, certificate=Certificate(EXHAUSTED, {"checked": 0}, "wrong"))
        monkeypatch.setitem(search.SPACES, "RCO", replace(search.SPACES["RCO"], fast=lambda q: wrong))
        with pytest.raises(InternalInconsistency) as info:
            census(3)
        assert info.value.space == "RCO"
        assert info.value.verdicts == {"fast": False, "brute": True}
        assert "disagree on right-circular orderability" in str(info.value)

    def test_census_respects_generation_cap(self):
        with pytest.raises(ResourceLimit):
            census(6)


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
