"""Mutation checks: each mutant is one exact text edit to a file under src/,
and the tests listed with it must fail once the edit is made.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Every mutant gets a fresh temporary copy of src/ and tests/, with its edit
made in the copy, and pytest runs only the mutant's listed tests there, with
-x and a fixed Hypothesis seed, so a caught mutant stays caught; the mutant
is caught when one of them fails. The listed
tests are first run once on an unedited copy, where they must pass. The
script prints one line per mutant and exits 1 if the unedited run fails, if
a mutant's old text does not occur exactly once in its file, or if a mutant
survives (its listed tests pass, or pytest ends for any reason other than a
failing test).

A change that mutates the code by hand and records which tests caught it
adds a row here instead.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/quorder
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root, one of which must fail


GROUPS = "tests/test_groups.py"
CLOSURE = f"{GROUPS}::TestClosure"
QUANDLES = "tests/test_quandles.py"
SEARCH = "tests/test_search.py"

MUTANTS = (
    Mutant(
        "closure: a newly kept generator is applied only to elements found after it (none are)",
        "groups.py",
        "for p in elements:  # elements grows while it is scanned",
        "for p in elements[len(elements):]:",
        (f"{CLOSURE}::test_two_reflections_generate_sym3", f"{CLOSURE}::test_matches_naive_fixpoint"),
    ),
    Mutant(
        "closure: the cap is compared with >=",
        "groups.py",
        "                    if len(seen) > cap:",
        "                    if len(seen) >= cap:",
        (f"{CLOSURE}::test_resource_limit", f"{CLOSURE}::test_matches_naive_fixpoint"),
    ),
    Mutant(
        "closure: the identity is not counted against the cap",
        "groups.py",
        '    if len(seen) > cap:\n        raise ResourceLimit("permutation closure", 1, max_size)\n',
        "",
        (f"{CLOSURE}::test_the_identity_counts_against_the_cap", f"{CLOSURE}::test_matches_naive_fixpoint"),
    ),
    Mutant(
        "is_semiregular reads only point 0",
        "groups.py",
        "for x in range(g.degree))",
        "for x in range(g.degree)[:1])",
        (
            f"{GROUPS}::TestIsSemiregular::test_fixed_point_breaks_semiregularity",
            f"{GROUPS}::TestIsSemiregular::test_formulations_agree",
        ),
    ),
    Mutant(
        "is_cyclic compares an element's order with the degree",
        "groups.py",
        "== g.order for p in g.elements)",
        "== g.degree for p in g.elements)",
        (
            f"{GROUPS}::TestIsCyclic::test_order_one",
            f"{GROUPS}::TestIsCyclic::test_sym3_not_cyclic",
            "tests/test_quandles.py::TestInnerGroup::test_dihedral_3_inner_group",
        ),
    ),
    Mutant(
        "first_failure: the cover propagates a new column's point through columns not checked",
        "groups.py",
        "(seen.translate(m) + checked.translate(maps[c]))",
        "(seen.translate(m) + maps[c][:n])",
        (
            f"{QUANDLES}::TestColumnCover::test_points_are_reached_only_through_columns_checked",
            f"{QUANDLES}::TestValidationOracle::test_every_table_with_idempotent_bijective_columns_up_to_order_4",
        ),
    ),
    Mutant(
        "first_failure: a failing column names its own first triple, without the rescan",
        "groups.py",
        "    for c in range(start, n):\n",
        "    for c in range(start, start + 1):\n",
        (
            f"{QUANDLES}::TestColumnCover::test_points_are_reached_only_through_columns_checked",
            f"{QUANDLES}::TestValidationOracle::test_largest_carrier_names_its_first_failing_triple",
            f"{GROUPS}::TestColumnCover::test_loop_associative_on_column_1_is_rejected",
        ),
    ),
    Mutant(
        "first_failure: the cover declares the carrier reached one point early",
        "groups.py",
        "        if len(seen) == n:\n",
        "        if len(seen) >= n - 1:\n",
        (f"{QUANDLES}::TestColumnCover::test_the_last_point_is_checked",),
    ),
    Mutant(
        "first_failure: every column whose first entry is 0 holds uncompared, not only the identity",
        "groups.py",
        "        if col != ident and flat.translate(m) != right_side(col, maps):\n",
        "        if col[0] != 0 and flat.translate(m) != right_side(col, maps):\n",
        (
            f"{QUANDLES}::TestColumnCover::test_columns_checked",
            f"{QUANDLES}::TestValidationOracle::test_every_table_with_idempotent_bijective_columns_up_to_order_4",
        ),
    ),
    Mutant(
        "byte_table: the range test takes n for a point",
        "groups.py",
        "flat.translate(None, bytes(range(n)))",
        "flat.translate(None, bytes(range(n + 1)))",
        (
            f"{QUANDLES}::TestValidationOracle::test_entries_at_the_byte_edges",
            f"{GROUPS}::TestValidationOracle::test_entries_at_the_byte_edges",
        ),
    ),
    Mutant(
        "FiniteQuandle: the column test ignores the last row, taking it for the point the others miss",
        "quandles.py",
        "points.translate(None, flat[j::n])",
        "points.translate(None, flat[j : n * n - n : n])[1:]",
        (f"{QUANDLES}::TestValidationOracle::test_column_repeating_only_in_its_last_row",),
    ),
    Mutant(
        "FiniteGroup: the rows are checked twice and the columns never",
        "groups.py",
        "points.translate(None, flat[j::n])",
        "points.translate(None, flat[j * n : j * n + n])",
        (f"{GROUPS}::TestValidationOracle::test_permutation_rows_with_a_column_that_is_not",),
    ),
    Mutant(
        "survivors: a rotation test turned into equality",
        "corders.py",
        "    targets = form.targets\n",
        "    targets = forms\n",
        (
            "tests/test_corders.py::TestRotationCharacterization::test_all_arrangements_up_to_4",
            "tests/test_corders.py::test_brute_space_matches_definition_on_random_maps",
        ),
    ),
    Mutant(
        "survivors: the last map is skipped",
        "corders.py",
        "    for m in maps:\n",
        "    for m in list(maps)[:-1]:\n",
        (
            "tests/test_corders.py::TestMembershipMatchesDefinition::test_invariance_on_every_arrangement_up_to_4",
            "tests/test_cli.py::TestVerifyPaperChecks::test_all_named_checks_pass",
        ),
    ),
    Mutant(
        "survivors: no vacuous case for circles of at most two points",
        "corders.py",
        "    if form.circle and n <= 2:\n",
        "    if False:\n",
        (
            "tests/test_corders.py::TestInvariance::test_vacuous_invariance_on_tiny_carriers",
            "tests/test_search.py::TestDecisions::test_tiny_carriers_are_bicircular",
        ),
    ),
    Mutant(
        "_brute: a yes names the last member kept, not the first",
        "search.py",
        "witness=_orders(space.circle, found[:1])[0]",
        "witness=_orders(space.circle, found[-1:])[0]",
        ("tests/test_search.py::TestCertificates::test_brute_decision_agrees_with_brute_listing",),
    ),
    Mutant(
        "dispatch: two per-space names swapped in their binding",
        "search.py",
        "(decide_right_circular, decide_left_circular, decide_bicircular,",
        "(decide_left_circular, decide_right_circular, decide_bicircular,",
        (
            f"{SEARCH}::TestDispatchTables::test_names_are_their_entries",
            f"{SEARCH}::TestDecisions::test_trivial_3",
        ),
    ),
    Mutant(
        "dispatch: ENUMERATORS built on the brute tier, which gives the same spaces",
        "search.py",
        "partial(enumerate_space, kind)",
        "partial(brute_space, kind)",
        (
            f"{SEARCH}::TestDispatchTables::test_entries_bind_the_kind",
            "tests/test_cli.py::TestMain::test_caps_bound_output_not_work",
        ),
    ),
    Mutant(
        "_fast_left: the circle holds up to three points, not two",
        "search.py",
        "q.size <= (2 if circle else 1)",
        "q.size <= (3 if circle else 1)",
        (
            f"{SEARCH}::TestOracleEquivalence::test_fast_equals_brute_up_to_4",
            f"{SEARCH}::TestCertificates::test_certificates_back_only_their_own_side_on_classes_up_to_5",
        ),
    ),
    Mutant(
        "_fast_right: a quandle with a moved point answers yes",
        "search.py",
        "_lazy_verdict(q.first_moved is None,",
        "_lazy_verdict(q.first_moved is not None,",
        (
            f"{SEARCH}::TestDecisions::test_right_orderable_iff_trivial",
            f"{SEARCH}::TestOracleEquivalence::test_fast_equals_brute_up_to_4",
        ),
    ),
    Mutant(
        "Verdict: a fast yes's witness has the other shape",
        "search.py",
        "_identity_order(q.size, circle)",
        "_identity_order(q.size, not circle)",
        (
            f"{SEARCH}::TestCertificates::test_certificates_back_only_their_own_side_on_classes_up_to_5",
            f"{SEARCH}::TestDecisions::test_no_decision_builds_a_group",
        ),
    ),
    Mutant(
        "_relabellings: the pairs in reverse permutations order",
        "quandles.py",
        "    perms = list(map(bytes, permutations(ident)))\n",
        "    perms = list(map(bytes, permutations(ident)))[::-1]\n",
        (
            "tests/test_quandles.py::TestRelabellings::test_pairs_in_permutations_order",
            "tests/test_quandles.py::TestRelabellings::test_tables_of_one_order_share_the_pairs",
        ),
    ),
    Mutant(
        "parse_input: a 1-indexed table is not renumbered",
        "cli.py",
        "    norm = [tuple(map(base.__rsub__, row)) for row in table] if base else table\n",
        "    norm = table\n",
        (
            "tests/test_cli.py::TestParseInput::test_one_indexed_document",
            "tests/test_cli.py::TestParseInput::test_group_document",
        ),
    ),
    Mutant(
        "parse_input: the type check skips the last row",
        "cli.py",
        "set(map(type, chain.from_iterable(table))) <= {int}",
        "set(map(type, chain.from_iterable(table[:-1]))) <= {int}",
        (
            "tests/test_cli.py::TestParseInput::test_first_non_int_in_row_major_order",
            "tests/test_cli.py::TestParseInput::test_malformed_documents",
        ),
    ),
)


def run_pytest(root: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for the tests, run in root on root/src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    done = subprocess.run(
        [*command, *tests], cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    return done.returncode


def check(mutant: Mutant | None, tests: tuple[str, ...]) -> str | None:
    """None when the run goes as it should: the listed tests pass on the
    unedited source (mutant None), or fail on the mutant; else what went
    wrong."""
    with tempfile.TemporaryDirectory(prefix="quorder-mutant-") as tmp:
        root = Path(tmp)
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", root / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        if mutant is None:
            code = run_pytest(root, tests)
            return None if code == 0 else f"pytest exit {code} on the unedited source"
        target = root / "src" / "quorder" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = run_pytest(root, tests)
        return None if code == 1 else f"not caught (pytest exit {code})"


def main() -> int:
    listed = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    failures = 0
    problem = check(None, listed)
    print(f"unedited source: {problem or 'listed tests pass'}")
    failures += problem is not None
    for mutant in MUTANTS:
        problem = check(mutant, mutant.tests)
        print(f"{mutant.name}: {problem or 'killed'}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
