import pytest

from skewstone import balg, bset, etale


B4_ELEMENTS = ["0", "a", "b", "1"]
B4_LEQ = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]

X3_CIRC = [["0", "0", "0"], ["0", "x1", "x2"], ["0", "x1", "x2"]]
X3_BULLET = [["0", "x1", "x2"], ["x1", "x1", "x1"], ["x2", "x2", "x2"]]


def make_b2():
    return balg.validate_balg(["0", "1"], [("0", "1")], "0")


def make_b4():
    return balg.validate_balg(B4_ELEMENTS, B4_LEQ, "0")


def make_b8():
    alg, _, _ = balg.powerset_balg(("p", "q", "r"), balg.render_braces(("p", "q", "r")))
    return alg


def cover_maps(P):
    """The restriction along each Hasse cover (e, f) of P's base, read off
    ``P.restrict``: {(e, f): {x: x|f for x in P(e)}}, covers in base order
    and each stalk in its own order."""
    return {(e, f): {x: P.restrict(x, f) for x in P.stalks[e]}
            for e, f in P.base.cover_pairs}


def make_x3_skew():
    from skewstone import skew
    return skew.validate_skew(["0", "x1", "x2"], X3_CIRC, X3_BULLET, "0")


def make_x3_bset():
    b2 = make_b2()
    P = bset.validate_presheaf(
        b2, {"0": ["0"], "1": ["x1", "x2"]}, {("1", "0"): {"x1": "0", "x2": "0"}}
    )
    return bset.validate_boolean_set(P)


PROD_STALKS = {
    "0": ["0"],
    "a": ["a1", "a2"],
    "b": ["b1"],
    "1": ["(a1,b1)", "(a2,b1)"],
}
PROD_RESTRICT = {
    ("1", "a"): {"(a1,b1)": "a1", "(a2,b1)": "a2"},
    ("1", "b"): {"(a1,b1)": "b1", "(a2,b1)": "b1"},
    ("a", "0"): {"a1": "0", "a2": "0"},
    ("b", "0"): {"b1": "0"},
}


def make_prod():
    P = bset.validate_presheaf(make_b4(), PROD_STALKS, PROD_RESTRICT)
    return bset.validate_boolean_set(P)


def make_efix():
    return etale.validate_etale(
        ["e1", "e2", "e3"], ["u", "v"], {"e1": "u", "e2": "u", "e3": "v"}
    )


@pytest.fixture
def b2():
    return make_b2()


@pytest.fixture
def b4():
    return make_b4()


@pytest.fixture
def b8():
    return make_b8()


@pytest.fixture
def x3_skew():
    return make_x3_skew()


@pytest.fixture
def x3_bset():
    return make_x3_bset()


@pytest.fixture
def prod():
    return make_prod()


@pytest.fixture
def efix():
    return make_efix()
