"""Acceptance suite: every criterion asserted exactly, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; any failure raises with the offending data.
"""

import json
import subprocess
import sys
import time
from itertools import permutations, product

import numpy as np
import pytest

from definitional import cyclic_to_function, naive_circular_functions
from quorder import (
    CyclicOrder,
    DegenerateTriple,
    circular_from_linear,
    conj_quandle,
    cyclic_group,
    decide_left_circular,
    decide_left_orderable,
    decide_right_circular,
    decide_right_orderable,
    dihedral_quandle,
    direct_product,
    embedding_image,
    enumerate_bicircular,
    enumerate_lco,
    enumerate_rco,
    generate_all_quandles,
    inner_group,
    is_left_invariant,
    is_right_invariant,
    recheck_certificate,
    subbasic_circular,
    subbasic_linear,
    symmetric_group,
    trivial_quandle,
)
from quorder.cli import build_parser, parse_input, run
from quorder.search import brute_space


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} took {elapsed:.2f}s (budget {self.seconds}s)"
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_three_element_quandle_has_no_circular_orderings():
    with Budget("1 three-element example", 1.0):
        q = parse_input(
            {"kind": "quandle", "index_base": 1, "table": [[1, 1, 2], [2, 2, 1], [3, 3, 3]]}
        )
        assert len(enumerate_rco(q)) == 0
        assert len(enumerate_lco(q)) == 0
        vr = decide_right_circular(q)
        vl = decide_left_circular(q)
        assert not vr.answer and not vl.answer
        assert recheck_certificate(q, vr.certificate, "RCO")
        assert recheck_certificate(q, vl.certificate, "LCO")


def test_criterion_02_dihedral_z3_has_no_circular_orderings():
    with Budget("2 dihedral Z3 example", 1.0):
        q = dihedral_quandle(3)
        assert len(enumerate_rco(q)) == 0
        assert len(enumerate_lco(q)) == 0
        v = decide_right_circular(q)
        assert not v.answer
        assert v.certificate.kind == "non-identity-right-translation"
        assert recheck_certificate(q, v.certificate, "RCO")
        assert inner_group(q).order == 6


def test_criterion_03_trivial_two_element_quandle_is_bicircular():
    with Budget("3 trivial two-element example", 1.0):
        space = enumerate_bicircular(trivial_quandle(2))
        assert space.members == (CyclicOrder((0, 1)),)
        assert all(v == 0 for v in cyclic_to_function(space.members[0]).values)


def test_criterion_04_conjugation_quandles_are_never_left_circular():
    with Budget("4 conjugation quandles never left-circular", 5.0):
        groups = [
            cyclic_group(3),
            cyclic_group(4),
            direct_product(cyclic_group(2), cyclic_group(2)),
            symmetric_group(3),
        ]
        for g in groups:
            assert len(enumerate_lco(conj_quandle(g))) == 0, g.name


def test_criterion_05_ordering_images_are_circular_orderings():
    with Budget("5 ordering closure sweep", 30.0):
        # the brute filter, so the lemma is not checked against the closed form
        total = 0
        for n in range(1, 5):
            for q in generate_all_quandles(n):
                rco = set(brute_space("RCO", q).members)
                lco = set(brute_space("LCO", q).members)
                for o in brute_space("RO", q):
                    assert circular_from_linear(o) in rco, (q.table, o.ranking)
                    total += 1
                for o in brute_space("LO", q):
                    assert circular_from_linear(o) in lco, (q.table, o.ranking)
                    total += 1
        assert total > 0


def test_criterion_06_subbasis_semantics():
    with Budget("6 subbasis semantics", 1.0):
        q = trivial_quandle(3)
        rco = enumerate_rco(q)
        assert len(rco) == 2
        picked = subbasic_circular(q, "right", (0, 1, 2))
        assert len(picked) == 1 and picked[0] in rco.members
        with pytest.raises(DegenerateTriple):
            subbasic_circular(q, "right", (0, 0, 1))
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert len(subbasic_linear(q, "right", (a, b))) == 3


def test_criterion_07_embedding_image_fibers():
    with Budget("7 embedding fibers", 1.0):
        q = trivial_quandle(3)
        report = embedding_image(q, "right")
        assert report.domain_size == 6
        assert report.image_size == 2
        assert report.fiber_sizes() == (3, 3)
        rco = set(brute_space("RCO", q).members)
        assert set(report.image) <= rco


def test_criterion_08_fast_decisions_equal_brute_force_up_to_order_5():
    with Budget("8 oracle equivalence order <= 5", 300.0):
        catalog = {n: generate_all_quandles(n, up_to_iso=True) for n in range(1, 6)}
        assert [len(catalog[n]) for n in range(1, 6)] == [1, 1, 3, 7, 22]
        deciders = {
            decide_right_circular: "RCO",
            decide_left_circular: "LCO",
            decide_right_orderable: "RO",
            decide_left_orderable: "LO",
        }
        for n, classes in catalog.items():
            for q in classes:
                for decide, kind in deciders.items():
                    fast = decide(q, strategy="fast")
                    brute = decide(q, strategy="brute")
                    assert fast.answer == brute.answer, (n, q.table, kind)
                    if fast.answer:
                        check = {
                            decide_right_circular: is_right_invariant,
                            decide_left_circular: is_left_invariant,
                        }.get(decide)
                        if check is not None:
                            assert check(fast.witness, q)
                    else:
                        assert recheck_certificate(q, fast.certificate, kind)


def _literal_scan_order_4():
    """Examine all 2^24 sign patterns on the 24 nondegenerate triples.

    Works entirely from the definition: every quadruple's defect identity is
    applied as a vectorized constraint over the surviving candidates; the
    two-term identities (from quadruples with a repeated entry) run first,
    then the four-term identities on whatever remains.
    """
    n = 4
    triples = [t for t in product(range(n), repeat=3) if len(set(t)) == 3]
    index = {t: i for i, t in enumerate(triples)}
    two_term = []
    four_term = []
    seen = set()
    for w in product(range(n), repeat=4):
        t1, t2, t3, t4 = w
        terms = {}
        for sign, tr in ((1, (t1, t2, t3)), (-1, (t1, t2, t4)), (1, (t1, t3, t4)), (-1, (t2, t3, t4))):
            if len(set(tr)) == 3:
                terms[index[tr]] = terms.get(index[tr], 0) + sign
        terms = {k: v for k, v in terms.items() if v != 0}
        if not terms:
            continue
        key = tuple(sorted(terms.items()))
        if key in seen:
            continue
        seen.add(key)
        (two_term if len(terms) == 2 else four_term).append(terms)
    candidates = np.arange(2**24, dtype=np.uint32)
    for con in two_term:
        (i, ci), (j, cj) = sorted(con.items())
        bi = (candidates >> np.uint32(i)) & 1
        bj = (candidates >> np.uint32(j)) & 1
        candidates = candidates[bi != bj] if ci == cj else candidates[bi == bj]
    survivors = []
    for x in candidates.tolist():
        vals = [1 if (x >> i) & 1 else -1 for i in range(24)]
        if all(sum(c * vals[k] for k, c in con.items()) == 0 for con in four_term):
            dense = [0] * n**3
            for t, v in zip(triples, vals):
                a, b, c = t
                dense[(a * n + b) * n + c] = v
            survivors.append(tuple(dense))
    return sorted(survivors)


def test_criterion_09_raw_function_enumeration_matches_arrangements():
    with Budget("9 representation theorem n=3,4", 120.0):
        oracle3 = naive_circular_functions(3)
        assert len(oracle3) == 2

        oracle4 = _literal_scan_order_4()
        assert len(oracle4) == 6

        for n, oracle in ((3, oracle3), (4, oracle4)):
            arrangements = [CyclicOrder((0, *rest)) for rest in permutations(range(1, n))]
            from_arrangements = sorted(cyclic_to_function(c).values for c in arrangements)
            assert from_arrangements == oracle
            assert len(set(from_arrangements)) == len(arrangements)


def test_criterion_10_verify_paper_command_passes():
    with Budget("10 verify-paper", 60.0):
        report, status = run(build_parser().parse_args(["verify-paper"]))
        assert status == 0
        assert report["all_passed"] is True
        named = {c["name"]: c["passed"] for c in report["checks"]}
        assert len(named) == 8
        assert all(named.values())

        # the console entry point agrees end to end
        proc = subprocess.run(
            [sys.executable, "-m", "quorder.cli", "verify-paper"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["all_passed"] is True
