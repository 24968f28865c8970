"""Command-line surface: file ingestion, builtin families, decisions,
enumeration, census, and the bundled verification suite of known small cases.

All reports are a single JSON document on standard output. Exit codes:
0 the run completed (whatever the mathematical answer), 1 the answer was
negative and --fail-on-no was set, 2 bad input, 3 a resource cap was hit,
4 two independent computations of one answer disagreed (a bug in quorder).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, product

from .corders import CyclicOrder, LinearOrder, circular_from_linear
from .errors import (
    DegenerateTriple,
    InternalInconsistency,
    NotAGroup,
    NotAQuandle,
    ParseError,
    QuorderError,
    ResourceLimit,
)
from .groups import FiniteGroup, check_carrier, cyclic_group, direct_product, scaling_automorphism, symmetric_group
from .quandles import (
    FiniteQuandle,
    affine_quandle,
    conj_quandle,
    core_quandle,
    dihedral_quandle,
    generalized_alexander_quandle,
    inner_group,
    is_trivial_quandle,
    product_quandle,
    trivial_quandle,
)
from .search import (
    DECIDERS as _DECIDERS,
    DEFAULT_CAPS,
    ENUMERATORS as _ENUMERATORS,
    SearchCaps,
    Verdict,
    brute_space,
    census,
    decide,
    embedding_image,
    enumerate_space,
    generate_all_quandles,
    recheck_certificate,
    subbasic_circular,
    subbasic_linear,
)

PROPERTIES = tuple(_DECIDERS)


# ---------------------------------------------------------------------------
# JSON codecs


def parse_input(document) -> FiniteQuandle | FiniteGroup:
    """Normalize a JSON document to a validated 0-indexed structure.

    The checks run in a fixed order, each naming the first failure: a JSON
    object of a known kind, `index_base` 0 or 1, a list of lists, the
    carrier cap, plain int entries, the name, then the constructor's
    axioms. The entry types are checked in one pass over all entries, in
    row-major order, so the first entry that is not an int is the one
    named. Base-0 rows reach the constructor as parsed, which copies them
    into tuples once; only base-1 rows are renumbered first.
    """
    if not isinstance(document, dict):
        raise ParseError("input document must be a JSON object")
    kind = document.get("kind")
    if kind not in ("quandle", "group"):
        raise ParseError(f"unknown kind {kind!r}; expected 'quandle' or 'group'")
    # Numbers must be JSON integers: type() also rejects bool, an int subclass.
    base = document.get("index_base", 0)
    if type(base) is not int or base not in (0, 1):
        raise ParseError(f"index_base must be 0 or 1, got {base!r}")
    table = document.get("table")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ParseError("table must be a list of lists")
    check_carrier(len(table))
    if not set(map(type, chain.from_iterable(table))) <= {int}:
        bad = next(v for v in chain.from_iterable(table) if type(v) is not int)
        raise ParseError(f"table entries must be integers, got {bad!r}")
    norm = [tuple(map(base.__rsub__, row)) for row in table] if base else table
    name = document.get("name")
    if "name" in document and not isinstance(name, str):
        raise ParseError("name must be a string")
    if kind == "quandle":
        return FiniteQuandle(norm, name=name)
    identity = document.get("identity")
    if type(identity) is not int:
        raise ParseError("group documents need an integer 'identity'")
    return FiniteGroup(norm, identity - base, name=name)


def quandle_to_json(q: FiniteQuandle) -> dict:
    doc = {"kind": "quandle", "index_base": 0, "table": [list(row) for row in q.table]}
    if q.name is not None:
        doc["name"] = q.name
    return doc


def order_to_json(order: CyclicOrder | LinearOrder) -> dict:
    if isinstance(order, CyclicOrder):
        return {"arrangement": list(order.arrangement)}
    return {"ranking": list(order.ranking)}


def verdict_to_json(v: Verdict) -> dict:
    cert = None
    if v.certificate is not None:
        cert = {"kind": v.certificate.kind, "data": v.certificate.data, "detail": v.certificate.detail}
    return {
        "answer": "yes" if v.answer else "no",
        "witness": order_to_json(v.witness) if v.witness is not None else None,
        "certificate": cert,
    }


# ---------------------------------------------------------------------------
# builtin family and group specs


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse 'z3', 's3', or an x-separated product such as 'z2xz2'."""
    parts = spec.lower().split("x")
    groups = []
    for part in parts:
        if len(part) >= 2 and part[0] == "z" and part[1:].isdigit():
            groups.append(cyclic_group(int(part[1:])))
        elif len(part) >= 2 and part[0] == "s" and part[1:].isdigit():
            degree = int(part[1:])
            if degree > 5:
                raise ParseError(f"symmetric group degree {degree} too large")
            groups.append(symmetric_group(degree))
        else:
            raise ParseError(f"unrecognized group spec {part!r}")
    g = groups[0]
    for h in groups[1:]:
        g = direct_product(g, h)
    return g


def quandle_from_builtin(spec: str) -> FiniteQuandle:
    """Parse a builtin family spec such as 'dihedral:3' or 'conj:s3'."""
    head, _, rest = spec.partition(":")
    head = head.lower()
    try:
        if head == "trivial":
            return trivial_quandle(int(rest))
        if head == "dihedral":
            return dihedral_quandle(int(rest))
        if head == "affine":
            n_str, _, alpha_str = rest.partition(":")
            return affine_quandle(int(n_str), int(alpha_str))
        if head == "conj":
            return conj_quandle(group_from_spec(rest))
        if head == "core":
            return core_quandle(group_from_spec(rest))
        if head == "alexander":
            group_str, _, alpha_str = rest.rpartition(":")
            g = group_from_spec(group_str)
            return generalized_alexander_quandle(g, scaling_automorphism(g, int(alpha_str)))
        if head == "product":
            return product_quandle([quandle_from_builtin(part) for part in rest.split("+")])
    except ValueError as exc:
        raise ParseError(f"bad builtin spec {spec!r}: {exc}") from None
    except RecursionError:
        # each product: of a product: is one more call; the message names no
        # spec, since which call runs out of stack depends on the caller's depth
        raise ParseError("bad builtin spec: products nested past the recursion limit") from None
    raise ParseError(f"unknown builtin family {head!r}")


# ---------------------------------------------------------------------------
# named reference checks


def _check_three_element_example(caps: SearchCaps) -> dict:
    """The order-3 quandle with orbits {0,1} and {2} admits no circular
    ordering invariant on either side."""
    q = parse_input({"kind": "quandle", "index_base": 1, "table": [[1, 1, 2], [2, 2, 1], [3, 3, 3]]})
    rco = enumerate_space("RCO", q, caps)
    lco = enumerate_space("LCO", q, caps)
    vr = decide("RCO", q, caps=caps)
    vl = decide("LCO", q, caps=caps)
    certs_ok = (
        not vr.answer
        and not vl.answer
        and recheck_certificate(q, vr.certificate, "RCO")
        and recheck_certificate(q, vl.certificate, "LCO")
    )
    return {
        "name": "example:three-element-neither",
        "passed": len(rco) == 0 and len(lco) == 0 and certs_ok,
        "details": {
            "rco_count": len(rco),
            "lco_count": len(lco),
            "right_certificate": vr.certificate.kind if vr.certificate else None,
            "left_certificate": vl.certificate.kind if vl.certificate else None,
        },
    }


def _check_dihedral_example(caps: SearchCaps) -> dict:
    """The dihedral quandle of Z_3 admits no circular ordering invariant on
    either side, and its right translations generate S_3."""
    q = dihedral_quandle(3)
    rco = enumerate_space("RCO", q, caps)
    lco = enumerate_space("LCO", q, caps)
    vr = decide("RCO", q, caps=caps)
    cert = vr.certificate
    order = inner_group(q).order
    return {
        "name": "example:dihedral-z3-neither",
        "passed": (
            len(rco) == 0
            and len(lco) == 0
            and not vr.answer
            and recheck_certificate(q, cert, "RCO")
            and order == 6
        ),
        "details": {
            "rco_count": len(rco),
            "lco_count": len(lco),
            "right_certificate": cert.kind if cert else None,
            "inner_group_order": order,
        },
    }


def _check_trivial_two_example(caps: SearchCaps) -> dict:
    q = trivial_quandle(2)
    bco = enumerate_space("BCO", q, caps)
    zero_ok = (
        len(bco) == 1
        and bco.members[0] == CyclicOrder((0, 1))
        and all(bco.members[0].evaluate(*t) == 0 for t in product(range(2), repeat=3))
    )
    return {
        "name": "example:trivial-2-bicircular",
        "passed": zero_ok,
        "details": {"bco_count": len(bco)},
    }


def _check_conj_not_left_circular(caps: SearchCaps) -> dict:
    groups = [
        cyclic_group(3),
        cyclic_group(4),
        direct_product(cyclic_group(2), cyclic_group(2)),
        symmetric_group(3),
    ]
    counts = {}
    for g in groups:
        lco = enumerate_space("LCO", conj_quandle(g), caps)
        counts[g.name] = len(lco)
    return {
        "name": "lemma:conj-not-left-circular",
        "passed": all(c == 0 for c in counts.values()),
        "details": {"lco_counts": counts},
    }


def _check_ordering_lemma(caps: SearchCaps) -> dict:
    """Closing any one-sided ordering into a cycle stays invariant on that side,
    over every quandle of order <= 4. The spaces come from the brute filter,
    so the check does not rest on the closed form."""
    checked = 0
    failures = 0
    for n in range(1, 5):
        for q in generate_all_quandles(n):
            rco = set(brute_space("RCO", q, caps).members)
            lco = set(brute_space("LCO", q, caps).members)
            for o in brute_space("RO", q, caps):
                checked += 1
                if circular_from_linear(o) not in rco:
                    failures += 1
            for o in brute_space("LO", q, caps):
                checked += 1
                if circular_from_linear(o) not in lco:
                    failures += 1
    return {
        "name": "lemma:ordering",
        "passed": failures == 0 and checked > 0,
        "details": {"orderings_checked": checked, "failures": failures},
    }


def _check_fixed_point_lemma(caps: SearchCaps) -> dict:
    """Every translation fixes its own base point, so beyond two points the
    circular spaces are the whole ground set or empty, and so is RO. Compare
    the sizes the brute filter finds on every class of order <= 5 with that
    closed form."""
    checked = 0
    failures = 0
    for n in range(1, 6):
        circle = math.factorial(n - 1)  # the ground set: 1 for n <= 2, else (n-1)!
        for q in generate_all_quandles(n, up_to_iso=True):
            trivial = is_trivial_quandle(q)
            expected = {
                "RCO": circle if n <= 2 or trivial else 0,
                "LCO": circle if n <= 2 else 0,
                "BCO": circle if n <= 2 else 0,
                "RO": math.factorial(n) if trivial else 0,
                "LO": 1 if n == 1 else 0,
            }
            checked += 1
            if any(len(brute_space(kind, q, caps)) != size for kind, size in expected.items()):
                failures += 1
    return {
        "name": "lemma:fixed-point",
        "passed": failures == 0 and checked > 0,
        "details": {"classes_checked": checked, "failures": failures},
    }


def _check_subbasis_semantics(caps: SearchCaps) -> dict:
    q = trivial_quandle(3)
    picked = subbasic_circular(q, "right", (0, 1, 2), caps)
    rco = enumerate_space("RCO", q, caps)
    try:
        subbasic_circular(q, "right", (0, 0, 1), caps)
        degenerate_rejected = False
    except DegenerateTriple:
        degenerate_rejected = True
    linear_counts = {
        f"{a}<{b}": len(subbasic_linear(q, "right", (a, b), caps))
        for a in range(3)
        for b in range(3)
        if a != b
    }
    return {
        "name": "subbasis:semantics",
        "passed": (
            len(rco) == 2
            and len(picked) == 1
            and degenerate_rejected
            and all(c == 3 for c in linear_counts.values())
        ),
        "details": {
            "rco_count": len(rco),
            "picked_count": len(picked),
            "degenerate_rejected": degenerate_rejected,
            "linear_counts": linear_counts,
        },
    }


def _check_embedding_fibers(caps: SearchCaps) -> dict:
    q = trivial_quandle(3)
    report = embedding_image(q, "right", caps)
    rco = set(enumerate_space("RCO", q, caps).members)
    return {
        "name": "embedding:trivial-3-right",
        "passed": (
            report.domain_size == 6
            and report.image_size == 2
            and report.fiber_sizes() == (3, 3)
            and all(c in rco for c in report.image)
        ),
        "details": {
            "domain_size": report.domain_size,
            "image_size": report.image_size,
            "fiber_sizes": list(report.fiber_sizes()),
        },
    }


def verify_paper(caps: SearchCaps = DEFAULT_CAPS) -> list[dict]:
    """Run every named reference check; failures are report content."""
    return [
        _check_three_element_example(caps),
        _check_dihedral_example(caps),
        _check_trivial_two_example(caps),
        _check_conj_not_left_circular(caps),
        _check_ordering_lemma(caps),
        _check_fixed_point_lemma(caps),
        _check_subbasis_semantics(caps),
        _check_embedding_fibers(caps),
    ]


# ---------------------------------------------------------------------------
# dispatch on the parsed command line


def _load_quandle(args: argparse.Namespace) -> FiniteQuandle:
    if args.builtin is not None:
        return quandle_from_builtin(args.builtin)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the decoder's depth limit
        raise ParseError(f"invalid JSON in {args.input}: {exc}") from None
    structure = parse_input(document)
    if isinstance(structure, FiniteGroup):
        raise ParseError(
            "orderability properties apply to quandles; wrap the group with a "
            "builtin spec such as conj:... or core:..."
        )
    return structure


def _execute(args: argparse.Namespace) -> tuple[dict, bool]:
    """Produce (report, negative) from the arguments `build_parser()` parsed;
    negative drives --fail-on-no. The parser has already checked the command,
    the property, the strategy and that exactly one source was given; the
    caps are only known to be integers."""
    if args.max_enum is not None and args.max_enum < 1:
        raise ParseError(f"--max-enum must be at least 1, got {args.max_enum}")
    caps = DEFAULT_CAPS if args.max_enum is None else SearchCaps(args.max_enum, args.max_enum)
    if args.command == "census":
        if args.max_order < 1:
            raise ParseError(f"--max-order must be at least 1, got {args.max_order}")
        records = census(args.max_order, caps)
        return {"command": "census", "max_order": args.max_order, "records": records}, False
    if args.command == "verify-paper":
        checks = verify_paper(caps)
        all_passed = all(c["passed"] for c in checks)
        report = {"command": "verify-paper", "checks": checks, "all_passed": all_passed}
        return report, not all_passed
    q = _load_quandle(args)
    if args.command == "enumerate":
        space = _ENUMERATORS[args.property](q, caps)
        report = {
            "command": "enumerate",
            "property": args.property,
            "input": quandle_to_json(q),
            "kind": space.kind,
            "count": len(space),
            "members": [order_to_json(m) for m in space],
        }
        return report, len(space) == 0
    verdict = _DECIDERS[args.property](q, strategy=args.strategy, caps=caps)
    if args.command == "witness":
        witness = order_to_json(verdict.witness) if verdict.witness is not None else None
        return {"command": "witness", "witness": witness}, witness is None
    report = {
        "command": "check",
        "property": args.property,
        "input": quandle_to_json(q),
        "verdict": verdict_to_json(verdict),
    }
    return report, not verdict.answer


def run(args: argparse.Namespace) -> tuple[dict, int]:
    """Run the command `build_parser().parse_args` parsed, returning the
    report and the exit status."""
    try:
        report, negative = _execute(args)
    except ResourceLimit as exc:
        return {"error": {"kind": "resource-limit", "detail": str(exc)}}, 3
    except NotAQuandle as exc:
        return {
            "error": {"kind": "not-a-quandle", "axiom": exc.axiom, "witness": list(exc.witness), "detail": str(exc)}
        }, 2
    except NotAGroup as exc:
        return {
            "error": {"kind": "not-a-group", "reason": exc.reason, "witness": list(exc.witness), "detail": str(exc)}
        }, 2
    except InternalInconsistency as exc:
        return {
            "error": {"kind": "internal-inconsistency", "space": exc.space, "verdicts": exc.verdicts, "detail": str(exc)}
        }, 4
    except QuorderError as exc:
        return {"error": {"kind": type(exc).__name__, "detail": str(exc)}}, 2
    status = 1 if (args.fail_on_no and negative) else 0
    return report, status


def render_report(report: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(report, sort_keys=True, indent=2)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# argument parsing


class _Command(argparse.ArgumentParser):
    """A subcommand's parser that is built on first use.

    `add_parser(name, options=f, ...)` only records `f` and the keyword
    arguments for `ArgumentParser.__init__`. The first read of an attribute
    that `__init__` sets builds the parser and then runs `f(self)`; argparse
    reads one at the start of every parse, usage line, help page and repr, so
    no caller sees the parser half built.
    """

    def __init__(self, *, options, **kwargs):
        self._deferred = options, kwargs

    def __getattr__(self, name):
        # Python calls this only for an attribute the instance lacks. The
        # pop makes a read during the build itself, or on a built parser,
        # fail as it would on any ArgumentParser.
        deferred = self.__dict__.pop("_deferred", None)
        if deferred is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        options, kwargs = deferred
        super().__init__(**kwargs)
        options(self)
        return getattr(self, name)


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-enum",
        type=int,
        metavar="N",
        help="largest carrier whose ground set of orderings may be listed or scanned; "
        "an empty space is reported on any carrier",
    )
    p.add_argument("--fail-on-no", action="store_true", help="exit 1 when the answer is no")
    p.add_argument("--pretty", action="store_true", help="indent the JSON report")
    p.add_argument("--output", metavar="FILE", help="write the report to a file instead of stdout")


def _space_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="JSON quandle file")
    src.add_argument("--builtin", metavar="SPEC", help="builtin family spec, e.g. dihedral:3")
    p.add_argument("--property", required=True, choices=PROPERTIES)
    _common_options(p)


def _decision_options(p: argparse.ArgumentParser) -> None:
    # enumerate has no --strategy: an enumeration is the closed form, with no tiers to pick
    _space_options(p)
    p.add_argument(
        "--strategy",
        choices=("auto", "fast", "brute"),
        default="auto",
        help="force the structural fast path or the exhaustive tier",
    )


def _census_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-order", type=int, default=4, metavar="N")
    _common_options(p)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the quorder command line.

    Each subcommand's parser, options included, is built only when that
    subcommand is used, so a run builds two parsers, the top level and its
    command's, not six. A subcommand's parser is a `_Command`, which builds
    itself on the first read of any attribute argparse sets up: the
    subparsers action reaches it through `parse_known_args`, in which `-h`
    and usage errors arise, and other callers through `format_usage`,
    `format_help` or any other attribute. Help pages, error messages and exit
    codes are therefore argparse's own.

    The function takes no arguments and builds a new parser on every call,
    keeping no state between calls: the benchmark's tracer swaps it for a
    no-argument wrapper and times `parse_args` on the parser it returns.
    """
    parser = argparse.ArgumentParser(
        prog="quorder",
        description="Decide and enumerate circular and linear orderings of finite quandles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, help_text, options in (
        ("check", "decide one orderability property", _decision_options),
        ("enumerate", "list all orderings with the property", _space_options),
        ("witness", "print just the witness ordering, if any", _decision_options),
        ("census", "orderability flags for all small quandles", _census_options),
        ("verify-paper", "run the named small-case reference checks", _common_options),
    ):
        sub.add_parser(name, help=help_text, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report, status = run(args)
    text = render_report(report, args.pretty)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return status
        except OSError as exc:
            error = {"kind": "ParseError", "detail": f"cannot write {args.output}: {exc}"}
            status = 2
            text = render_report({"error": error}, args.pretty)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so the flush at
        # interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
