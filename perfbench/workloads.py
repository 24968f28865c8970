"""Workload inputs, schedules and output checks.

Inputs are built here, without the package under test, and expected answers
come from facts the benchmark computes itself, so a wrong result in the
program cannot also move the yardstick it is checked against:

* for a carrier of n >= 3 points, the right translation R_s fixes s. A
  rotation of a cycle, or a strictly increasing bijection of a chain, with a
  fixed point is the identity, so RCO and RO are non-empty only for the
  trivial quandle, where they are all (n-1)! arrangements and all n!
  rankings;
* an invariant left translation L_s would be the identity as well, which
  makes every R_t send s and t to t: no quandle of order >= 2 has such a
  translation, so LCO, BCO and LO are empty.

The census report is compared byte for byte with a committed digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations
from pathlib import Path
from typing import Callable

PROPERTIES = ("right-circular", "left-circular", "bi-circular", "right-order", "left-order")

DATA = Path(__file__).resolve().parent / "data"

# sha256 of the exact stdout of `quorder census --max-order 4`.
CENSUS_DIGEST = "51f6d5b1af16a940233be14740764fb25c27feb800ee0e6ec545db12f6eb7da5"
CENSUS_CLASS_COUNTS = (1, 1, 3, 7)  # isomorphism classes of order 1..4 (OEIS A181769)

# Relabelled copies written per input; each round picks one at random.
VARIANTS = 16

Table = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# quandle tables, built independently of the package under test


def trivial(n: int) -> Table:
    return tuple(tuple(i for _ in range(n)) for i in range(n))


def affine(n: int, alpha: int) -> Table:
    """Z_n with i*j = alpha*i + (1-alpha)*j; dihedral is alpha = -1."""
    return tuple(tuple((alpha * i + (1 - alpha) * j) % n for j in range(n)) for i in range(n))


def dihedral(n: int) -> Table:
    return affine(n, -1)


def _symmetric(degree: int) -> tuple[list, list]:
    """Elements, multiplication table and inverses of Sym(degree)."""
    elems = sorted(permutations(range(degree)))
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[x] for x in q)] for q in elems] for p in elems]
    inv = [index[tuple(sorted(range(degree), key=p.__getitem__))] for p in elems]
    return mul, inv


def _abelian(moduli: tuple[int, ...]) -> tuple[list, list]:
    """Multiplication table and inverses of Z_m1 x Z_m2 x ... (mixed radix)."""
    elems = [()]
    for m in moduli:
        elems = [e + (k,) for e in elems for k in range(m)]
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for y in elems] for x in elems]
    inv = [index[tuple(-a % m for a, m in zip(x, moduli))] for x in elems]
    return mul, inv


def conj(group: tuple[list, list]) -> Table:
    """i*j = j^-1 i j."""
    mul, inv = group
    n = len(mul)
    return tuple(tuple(mul[mul[inv[j]][i]][j] for j in range(n)) for i in range(n))


def core(group: tuple[list, list]) -> Table:
    """i*j = j i^-1 j."""
    mul, inv = group
    n = len(mul)
    return tuple(tuple(mul[mul[j][inv[i]]][j] for j in range(n)) for i in range(n))


def product(a: Table, b: Table) -> Table:
    """Componentwise operation; the pair (x, y) is the point x*|b| + y."""
    m = len(b)
    n = len(a) * m
    return tuple(
        tuple(a[x // m][y // m] * m + b[x % m][y % m] for y in range(n)) for x in range(n)
    )


def is_quandle(t: Table) -> bool:
    """Idempotent, bijective right translations, right self-distributive."""
    n = len(t)
    if any(len(row) != n or t[i][i] != i for i, row in enumerate(t)):
        return False
    if any(sorted(t[i][j] for i in range(n)) != list(range(n)) for j in range(n)):
        return False
    return all(
        t[t[a][b]][c] == t[t[a][c]][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


def is_trivial(t: Table) -> bool:
    return all(v == i for i, row in enumerate(t) for v in row)


def relabel(t: Table, perm: list[int]) -> Table:
    """The isomorphic table with point i renamed perm[i]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[t[i][j]]
    return tuple(tuple(row) for row in out)


def order5_classes() -> list[Table]:
    """One table per isomorphism class of quandles of order 5 (22 classes)."""
    with open(DATA / "order5_classes.json", encoding="utf-8") as fh:
        return [tuple(tuple(row) for row in t) for t in json.load(fh)]


def enumerate_inputs() -> list[tuple[str, Table]]:
    s3 = _symmetric(3)
    named = [
        ("trivial:6", trivial(6)),
        ("dihedral:6", dihedral(6)),
        ("conj:s3", conj(s3)),
        ("core:s3", core(s3)),
        ("product:trivial:2+dihedral:3", product(trivial(2), dihedral(3))),
        ("alexander:z6:5", affine(6, 5)),
    ]
    return [(f"order5:{k}", t) for k, t in enumerate(order5_classes())] + named


def check_inputs() -> list[tuple[str, Table]]:
    s4 = _symmetric(4)
    return [
        ("conj:s4", conj(s4)),
        ("core:s4", core(s4)),
        ("dihedral:16", dihedral(16)),
        ("dihedral:24", dihedral(24)),
        ("dihedral:25", dihedral(25)),
        ("dihedral:30", dihedral(30)),
        ("dihedral:36", dihedral(36)),
        ("affine:11:2", affine(11, 2)),
        ("alexander:z13:2", affine(13, 2)),
        ("core:z3xz3", core(_abelian((3, 3)))),
        ("conj:z2xz2xz2", conj(_abelian((2, 2, 2)))),
        ("product:dihedral:3+dihedral:5", product(dihedral(3), dihedral(5))),
        ("product:trivial:2+dihedral:5", product(trivial(2), dihedral(5))),
    ]


# ---------------------------------------------------------------------------
# operations and their output checks


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its standard output must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # None when correct, else the reason
    key: str


@lru_cache(maxsize=None)
def _all_members(n: int, prop: str) -> frozenset:
    if prop == "right-circular":
        return frozenset((0, *rest) for rest in permutations(range(1, n)))
    return frozenset(permutations(range(n)))


def expected_members(table: Table, prop: str) -> frozenset:
    """The order space of `table` for `prop`, from the facts in the module doc."""
    if len(table) < 3:
        raise ValueError("the facts used here need a carrier of at least 3 points")
    if is_trivial(table) and prop in ("right-circular", "right-order"):
        return _all_members(len(table), prop)
    return frozenset()


def _member_key(prop: str) -> str:
    return "arrangement" if prop.endswith("circular") else "ranking"


def check_enumerate(text: str, table: Table, prop: str) -> str | None:
    doc = json.loads(text)
    if doc.get("command") != "enumerate" or doc.get("property") != prop:
        return "wrong command or property in report"
    if doc["input"]["table"] != [list(row) for row in table]:
        return "report does not echo the input table"
    expected = expected_members(table, prop)
    key = _member_key(prop)
    members = [tuple(m[key]) for m in doc["members"]]
    if doc["count"] != len(expected) or len(members) != len(expected) or set(members) != expected:
        return f"{prop}: count {doc['count']}, expected {len(expected)}"
    return None


def check_check(text: str, table: Table, prop: str) -> str | None:
    doc = json.loads(text)
    if doc.get("command") != "check" or doc.get("property") != prop:
        return "wrong command or property in report"
    if doc["input"]["table"] != [list(row) for row in table]:
        return "report does not echo the input table"
    verdict = doc["verdict"]
    expected = "yes" if expected_members(table, prop) else "no"
    if verdict["answer"] != expected:
        return f"{prop}: answer {verdict['answer']}, expected {expected}"
    if expected == "yes":
        witness = verdict["witness"] or {}
        if sorted(witness.get(_member_key(prop), ())) != list(range(len(table))):
            return f"{prop}: witness {witness} is not an ordering of the carrier"
    elif not (verdict["certificate"] or {}).get("kind"):
        return f"{prop}: negative verdict without a certificate"
    return None


def check_census(text: str) -> str | None:
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != CENSUS_DIGEST:
        return "census report differs from the committed digest"
    orders = [r["order"] for r in json.loads(text)["records"]]
    counts = tuple(orders.count(n) for n in range(1, len(CENSUS_CLASS_COUNTS) + 1))
    if counts != CENSUS_CLASS_COUNTS:
        return f"class counts {counts}, expected {CENSUS_CLASS_COUNTS}"
    return None


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """Fixed warm-up operations, and a generator of shuffled rounds.

    Every round runs each (input, property) pair exactly once, and a run
    measures whole rounds, so the mix behind each percentile is the same
    under every seed; the seed picks only relabellings and order.
    """

    warmup: tuple[Op, ...]
    make_round: Callable[[random.Random], list[Op]]


def _write_input(path: Path, table: Table) -> str:
    path.write_text(json.dumps({"kind": "quandle", "index_base": 0, "table": table}), encoding="utf-8")
    return str(path)


def _table_workload(
    command: str, inputs: list[tuple[str, Table]], warm_labels: tuple[str, ...], seed: int, workdir: Path
) -> Workload:
    checker = check_enumerate if command == "enumerate" else check_check
    rng = random.Random(f"{command}:{seed}:inputs")

    def op(path: str, table: Table, label: str, prop: str) -> Op:
        argv = (command, "--input", path, "--property", prop)
        return Op(argv, partial(checker, table=table, prop=prop), f"{label}/{prop}")

    variants = []
    for idx, (label, table) in enumerate(inputs):
        copies = []
        for v in range(VARIANTS):
            perm = list(range(len(table)))
            rng.shuffle(perm)
            relabelled = relabel(table, perm)
            copies.append((_write_input(workdir / f"{command}-{idx:02d}-{v}.json", relabelled), relabelled))
        variants.append((label, copies))

    warmup = []
    for label, table in inputs:
        if label in warm_labels:
            path = _write_input(workdir / f"{command}-warm-{len(warmup)}.json", table)
            warmup.extend(op(path, table, label, prop) for prop in PROPERTIES)

    def make_round(schedule: random.Random) -> list[Op]:
        ops = [
            op(*copies[schedule.randrange(VARIANTS)], label, prop)
            for label, copies in variants
            for prop in PROPERTIES
        ]
        schedule.shuffle(ops)
        return ops

    return Workload(tuple(warmup), make_round)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` under `workdir`."""
    if name == "enumerate":
        return _table_workload(name, enumerate_inputs(), ("order5:0", "dihedral:6"), seed, workdir)
    if name == "check":
        return _table_workload(name, check_inputs(), ("conj:z2xz2xz2", "dihedral:16"), seed, workdir)
    if name == "census":
        census = Op(("census", "--max-order", "4"), check_census, "census:4")
        return Workload((census, census), lambda schedule: [census])
    raise ValueError(f"unknown workload {name!r}")
