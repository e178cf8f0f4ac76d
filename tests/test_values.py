"""Value semantics of the package's record classes: construction, checks,
equality and hashing, immutability, repr, pickling and copying."""

import copy
import pickle

import pytest

from quorum_algebra.algebra import BlockLexOrder, Polynomial, Variable, parse_polynomial
from quorum_algebra.checkers import Property, Verdict, check_q3, check_q4, threshold_system
from quorum_algebra.encoding import CharPoly, ProcessSubset, SetSystem, overlap_poly
from quorum_algebra.groebner import GroebnerCertificate, GroebnerStats, IdealBasis
from quorum_algebra.oracle import OracleReport


def _relation(n):
    """A module-level relation, so that a Property holding it pickles."""
    return overlap_poly(n, "x", "y")


XY = BlockLexOrder(("x", "y"))
GEN = parse_polynomial("x1*y1 + 1", 2)
FACTORS = overlap_poly(2, "x", "y")
POINTS = (("x", frozenset({1})), ("y", frozenset({2, 3})))
STATS = GroebnerStats()
STATS.pairs_queued = 3
CERT = GroebnerCertificate(((0b10,),), XY, 1, 2, STATS)

# class, fields in constructor order, the arguments of an unequal value,
# repr, the defaults of the trailing fields, and bad arguments with the
# error each raises
CASES = [
    pytest.param(
        Variable, {"block": "x", "index": 2}, ("y", 2), "Variable('x', 2)", {},
        [(("w", 1), ValueError, "unknown block 'w'"), (("x", 0), ValueError, "index must be >= 1")],
        id="Variable",
    ),
    pytest.param(
        BlockLexOrder, {"blocks": ("x", "y")}, (("y", "x"),), "BlockLexOrder(blocks=('x', 'y'))", {},
        [
            (((),), ValueError, "at least one block"),
            ((("x", "x"),), ValueError, "duplicate blocks"),
            ((("x", "w"),), ValueError, "unknown block 'w'"),
        ],
        id="BlockLexOrder",
    ),
    pytest.param(
        ProcessSubset, {"mask": 0b101, "n": 3}, (0b011, 3), "ProcessSubset(mask=5, n=3)", {},
        [
            ((1, 0), ValueError, "process count must be >= 1"),
            ((8, 3), ValueError, "out of range for n=3"),
            ((-1, 3), ValueError, "out of range for n=3"),
        ],
        id="ProcessSubset",
    ),
    pytest.param(
        Polynomial, {"n": 2, "terms": GEN.terms}, (2, GEN.terms - {0}),
        "Polynomial(n=2, x1*y1 + 1)", {"terms": frozenset()},
        [
            ((0,), ValueError, "ambient dimension must be >= 1"),
            ((1, (0b10000,)), ValueError, "term outside the 4 variables of ambient dimension 1"),
            ((1, (-1,)), ValueError, "term outside the 4 variables"),
        ],
        id="Polynomial",
    ),
    pytest.param(
        SetSystem, {"n": 3, "members": (ProcessSubset(5, 3), ProcessSubset(3, 3))},
        (3, (ProcessSubset(5, 3),)),
        "SetSystem(n=3, members=(ProcessSubset(mask=5, n=3), ProcessSubset(mask=3, n=3)))", {},
        [
            ((3, (5,)), TypeError, "member 5 is not a ProcessSubset"),
            ((4, (ProcessSubset(5, 3),)), ValueError, "member over n=3, system over n=4"),
            ((3, (ProcessSubset(5, 3),) * 2), ValueError, "duplicate members"),
        ],
        id="SetSystem",
    ),
    pytest.param(
        CharPoly, {"support": ProcessSubset(5, 3), "block": "y"}, (ProcessSubset(5, 3), "x"),
        "CharPoly(support=ProcessSubset(mask=5, n=3), block='y')", {}, [],
        id="CharPoly",
    ),
    pytest.param(
        OracleReport, {"property": "availability", "holds": False, "witness": (frozenset({1, 2}),)},
        ("availability", True),
        "OracleReport(property='availability', holds=False, witness=(frozenset({1, 2}),))",
        {"witness": None}, [],
        id="OracleReport",
    ),
    pytest.param(
        IdealBasis, {"generators": (GEN,), "order": XY, "n": 2, "products": (FACTORS,), "points": POINTS},
        ((GEN,), XY, 2, (), POINTS),
        f"IdealBasis(generators=({GEN!r},), order={XY!r}, n=2, products=({FACTORS!r},), points={POINTS!r})",
        {"products": (), "points": ()},
        [
            (((Polynomial(2),), XY, 2), ValueError, "generators must be nonzero"),
            (((GEN,), XY, 3), ValueError, "ambient 2 != declared 3"),
            ((("x1",), XY, 2), TypeError, "is not a Polynomial"),
            (((GEN,), BlockLexOrder(("x",)), 2), ValueError, "uses blocks outside"),
            (((), XY, 2, (), POINTS[:1]), ValueError, r"no points on \['y'\]"),
            (((), XY, 2, (), (("x", {4}), ("y", {1}))), ValueError, "masks of 2 bits"),
            (((), XY, 2, (FACTORS,)), ValueError, "products need points"),
        ],
        id="IdealBasis",
    ),
    pytest.param(
        GroebnerCertificate, {"masks": ((0b10,),), "order": XY, "n": 1, "sm_count": 2, "stats": STATS},
        (((0b01,),), XY, 1, 2),
        f"GroebnerCertificate(masks=((2,),), order={XY!r}, n=1, sm_count=2)",
        {"stats": GroebnerStats()}, [],
        id="GroebnerCertificate",
    ),
    pytest.param(
        Verdict,
        {
            "property": "availability", "holds": True, "expected_count": 2,
            "observed_count": 2, "certificate": CERT, "method": "algebraic",
        },
        ("availability", False, 2, 1, CERT, "algebraic"),
        "Verdict(property='availability', holds=True, expected_count=2, observed_count=2, "
        f"certificate={CERT!r}, method='algebraic')",
        {}, [],
        id="Verdict",
    ),
    pytest.param(
        Property,
        {
            "label": "availability", "reads": ("quorums", "fail_prone"), "order": ("y", "x"),
            "encodes": (("x", "fail_prone"), ("y", "quorums")), "relation": _relation,
            "flip": True, "count": ("x",),
        },
        ("availability", ("quorums", "fail_prone"), ("y", "x"), (("x", "fail_prone"), ("y", "quorums")), _relation),
        "Property(label='availability', reads=('quorums', 'fail_prone'), order=('y', 'x'), "
        f"encodes=(('x', 'fail_prone'), ('y', 'quorums')), relation={_relation!r}, flip=True, count=('x',))",
        {"flip": False, "count": None}, [],
        id="Property",
    ),
]


@pytest.mark.parametrize("cls, fields, other, text, defaults, errors", CASES)
def test_value_classes(cls, fields, other, text, defaults, errors):
    def values(obj):
        return tuple(getattr(obj, name) for name in fields)

    args = tuple(fields.values())
    value = cls(*args)
    assert values(value) == args
    assert values(cls(**fields)) == args
    short = cls(*args[: len(args) - len(defaults)])
    assert {name: getattr(short, name) for name in defaults} == defaults
    for bad, exc, match in errors:
        with pytest.raises(exc, match=match):
            cls(*bad)

    assert value == cls(*args) and not value != cls(*args)
    assert value != cls(*other) and value != args
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and values(twin) == args

    name = next(iter(fields))
    if cls is GroebnerCertificate:
        # its stats count work: an attribute, not a field, so neither compared nor hashed
        fresh = cls(*args[:-1], GroebnerStats())
        assert fresh == value and hash(fresh) == hash(value)
        with pytest.raises(AttributeError, match="cannot assign to field 'stats'"):
            value.stats = GroebnerStats()
    assert hash(value) == hash(cls(*args))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, args[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert values(value) == args


def test_an_unread_certificate_pickles_copies_and_compares():
    """A checker's certificate renders its masks the first time they are
    read. Pickling and copying render them first, so no render function
    enters a pickle and no copy shares one; the copy equals a read
    certificate and has its repr and hash."""
    fail_prone = threshold_system(4, 2, "classical")[1]
    read = check_q3(fail_prone).certificate
    read.masks
    for trip in (lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy):
        cert = check_q3(fail_prone).certificate
        assert "masks" not in vars(cert)
        twin = trip(cert)
        assert "_render" not in vars(cert) and "_render" not in vars(twin)
        assert twin == read and repr(twin) == repr(read) and hash(twin) == hash(read)
        assert (twin.leading, twin.stats) == (read.leading, read.stats)


def test_a_read_certificate_shares_its_leading_monomials():
    """Reading the masks rebuilds leading from them, so a read certificate
    holds each leading monomial once; its value and counts stay the same."""
    fail_prone = threshold_system(5, 2, "classical")[1]
    cert, twin = check_q4(fail_prone).certificate, check_q4(fail_prone).certificate
    leading, count = cert.leading, cert.sm_count_for(("z", "t"))
    masks = cert.masks
    assert all(cert.leading[i] is p[0] for i, p in enumerate(masks))
    assert cert.leading == leading and cert.sm_count_for(("z", "t")) == count
    assert cert == twin and hash(cert) == hash(twin)


def test_variables_order_by_block_then_index():
    x2, x10, y1 = Variable("x", 2), Variable("x", 10), Variable("y", 1)
    assert sorted([y1, x10, x2]) == [x2, x10, y1]
    assert x2 < x10 < y1 and x2 <= x2 and y1 > x10 and y1 >= y1
    assert not x10 < x2 and not x10 > y1
    with pytest.raises(TypeError):
        x2 < ("x", 10)  # noqa: B015
