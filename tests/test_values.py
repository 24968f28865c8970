"""Value semantics of quorder's value types: equality and hash over the
compared fields only, the ``Name(field=value, ...)`` repr, immutability,
cached properties, and NotImplemented against other types."""

import pytest

from quorder import (
    CyclicOrder,
    FiniteGroup,
    FiniteQuandle,
    GroupAutomorphism,
    LinearOrder,
    PermutationGroup,
    SearchCaps,
    search,
)

Z2 = FiniteGroup(((0, 1), (1, 0)), 0, name="Z2")
Z3 = FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
C3 = CyclicOrder((0, 1, 2))
PAIRS = frozenset({(0, 1), (1, 0)})
RCO, LCO = search.SPACES["RCO"], search.SPACES["LCO"]
SPACE_FIELDS = ("circle", "maps", "fast", "prop", "flag", "label", "exhausted")


def _case(value, same, other, compared, fields, text):
    """value equals same, which differs from it in every field outside
    `compared`, and not other; `fields` are the constructor's, `text` the
    repr (None: built from the fields)."""
    return pytest.param(value, same, other, compared, fields, text, id=type(value).__name__)


CASES = [
    _case(
        C3, CyclicOrder([0, 1, 2]), CyclicOrder((0, 2, 1)),
        ("arrangement",), ("arrangement",), "CyclicOrder(arrangement=(0, 1, 2))",
    ),
    _case(
        LinearOrder((1, 0, 2)), LinearOrder([1, 0, 2]), LinearOrder((0, 1, 2)),
        ("ranking",), ("ranking",), "LinearOrder(ranking=(1, 0, 2))",
    ),
    _case(
        FiniteQuandle(((0, 0), (1, 1)), name="T2"), FiniteQuandle([[0, 0], [1, 1]], name="other"),
        FiniteQuandle(((0,),)),
        ("table",), ("table", "name"), "FiniteQuandle(table=((0, 0), (1, 1)), name='T2')",
    ),
    _case(
        Z2, FiniteGroup([[0, 1], [1, 0]], 0), Z3,
        ("table", "identity"), ("table", "identity", "name"),
        "FiniteGroup(table=((0, 1), (1, 0)), identity=0, name='Z2')",
    ),
    _case(
        GroupAutomorphism(Z2, (0, 1)), GroupAutomorphism(FiniteGroup(Z2.table, 0), [0, 1]),
        GroupAutomorphism(Z3, (0, 2, 1)),
        ("group", "map"), ("group", "map"), f"GroupAutomorphism(group={Z2!r}, map=(0, 1))",
    ),
    _case(
        PermutationGroup(2, PAIRS), PermutationGroup(2, [(1, 0), (0, 1)]),
        PermutationGroup(2, {(0, 1)}),
        ("degree", "elements"), ("degree", "elements"),
        f"PermutationGroup(degree=2, elements={PAIRS!r})",
    ),
    _case(
        SearchCaps(3, 4), SearchCaps(max_circular_n=3, max_linear_n=4), SearchCaps(),
        ("max_circular_n", "max_linear_n"), ("max_circular_n", "max_linear_n"),
        "SearchCaps(max_circular_n=3, max_linear_n=4)",
    ),
    _case(
        search.Certificate("k", {"a": 1}, "d"), search.Certificate(kind="k", data={"a": 1}, detail="d"),
        search.Certificate("k", {"a": 2}, "d"),
        ("kind", "data", "detail"), ("kind", "data", "detail"),
        "Certificate(kind='k', data={'a': 1}, detail='d')",
    ),
    _case(
        search.Verdict(True, C3), search.Verdict(True, witness=CyclicOrder((0, 1, 2))),
        search.Verdict(True, CyclicOrder((0, 2, 1))),
        ("answer", "witness", "certificate"), ("answer", "witness", "certificate"),
        "Verdict(answer=True, witness=CyclicOrder(arrangement=(0, 1, 2)), certificate=None)",
    ),
    _case(
        search.OrderSpace("RCO", (C3,)), search.OrderSpace("RCO", (CyclicOrder((0, 1, 2)),)),
        search.OrderSpace("LCO", (C3,)),
        ("kind", "members"), ("kind", "members"),
        "OrderSpace(kind='RCO', members=(CyclicOrder(arrangement=(0, 1, 2)),))",
    ),
    _case(
        RCO, search._Space(*(getattr(RCO, f) for f in SPACE_FIELDS)), LCO,
        SPACE_FIELDS, SPACE_FIELDS, None,
    ),
    _case(
        search.EmbeddingReport("right", (), (), ()), search.EmbeddingReport("right", (), (), ()),
        search.EmbeddingReport("left", (), (), ()),
        ("side", "domain", "image", "fibers"), ("side", "domain", "image", "fibers"),
        "EmbeddingReport(side='right', domain=(), image=(), fibers=())",
    ),
]

PARAMS = "value, same, other, compared, fields, text"


@pytest.mark.parametrize(PARAMS, CASES)
def test_equality_reads_the_compared_fields_only(value, same, other, compared, fields, text):
    assert value == same and not value != same
    assert value != other and not value == other
    for name in set(fields) - set(compared):
        assert getattr(value, name) != getattr(same, name)


@pytest.mark.parametrize(PARAMS, CASES)
def test_hash_is_the_hash_of_the_compared_fields(value, same, other, compared, fields, text):
    key = tuple(getattr(value, name) for name in compared)
    if type(value) is search.Certificate:  # its data is a dict
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(same) == hash(key)


@pytest.mark.parametrize(PARAMS, CASES)
def test_repr_names_every_shown_field(value, same, other, compared, fields, text):
    if text is None:
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        text = f"{type(value).__qualname__}({shown})"
    assert repr(value) == text


@pytest.mark.parametrize(PARAMS, CASES)
def test_fields_cannot_be_assigned_or_deleted(value, same, other, compared, fields, text):
    for name in (*vars(value), "unlisted"):  # FiniteQuandle.columns too
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert hasattr(value, name)


@pytest.mark.parametrize(PARAMS, CASES)
def test_comparison_with_another_type_is_not_implemented(value, same, other, compared, fields, text):
    assert value.__eq__(object()) is NotImplemented
    assert value.__eq__(tuple(getattr(value, name) for name in compared)) is NotImplemented
    assert value != object()


def test_orders_of_the_same_sequence_differ():
    arrangement = (0, 2, 1)
    assert CyclicOrder(arrangement).__eq__(LinearOrder(arrangement)) is NotImplemented
    assert CyclicOrder(arrangement) != LinearOrder(arrangement)


@pytest.mark.parametrize(
    "value, name",
    [
        (CyclicOrder((0, 2, 3, 1)), "positions"),
        (LinearOrder((2, 0, 1)), "rank"),
        (FiniteQuandle(((0, 2, 1), (2, 1, 0), (1, 0, 2))), "first_moved"),
        (FiniteQuandle(((0, 2, 1), (2, 1, 0), (1, 0, 2))), "first_merged"),
        (FiniteQuandle(((0, 2, 1), (2, 1, 0), (1, 0, 2))), "canonical_table"),
        (FiniteGroup(Z3.table, 0), "inverses"),
    ],
    ids=["positions", "rank", "first_moved", "first_merged", "canonical_table", "inverses"],
)
def test_cached_properties_are_kept(value, name):
    assert name not in vars(value)
    first = getattr(value, name)
    assert vars(value)[name] is first
    assert getattr(value, name) is first
