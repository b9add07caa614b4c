"""Skew algebras accepted by reconstruction, against a copy of the axiom scan
that decided them before.

``validate_skew`` accepts a pair of tables when they equal the skew tables
of the Boolean set that their own ∘ row classes form (the paper's theorem,
read backwards), and otherwise runs the axiom scan from the start.  The
reference is the earlier ``validate_skew``: the band checks (Light's test,
then the triple scan for the witness), SB1-SB4 over pairs and SB5 through
one ``validate_balg`` per element.  Results must be equal: the same tables,
or the same error type, law, witness and detail.  The earlier builders of
skew tables and stanzas (``to_skew``, ``textio.skew_stanza``, the row
reorder of ``textio``) and ``skew_struct_eq`` are compared the same way.
Every pair of band tables on at most four elements is compared with the
oracle ``laws.scan``, and an AST scan checks that ``SkewAlgebra`` is built
only where the certificate decides, as ``from_skew`` returns what it kept
and ``gamma_classes`` views it; the other validated structures are held to one
builder each the same way.  Every validator's certificate, patched to
refuse valid input, must make it raise AssertionError, as its scans only
name failures (a base homomorphism's certificate is its atoms); a
Boolean-set morphism has no certificate, since its one BM2 pass both
accepts and names the failure.
"""

import ast
import hashlib
import itertools
import random
from operator import eq, itemgetter
from pathlib import Path

import pytest

import skewstone
from skewstone import balg, bset, etale, laws, skew, textio
from skewstone.errors import NotABand, SkewAxiomViolation, StructureError

import mutation_engine as me
import textio_reference
from conftest import X3_BULLET, X3_CIRC, cover_maps
from test_duality_layer import join_table, old_check_consequences, seeded_space
from test_quotients import (
    gamma_view, old_from_skew, old_gamma_classes, outcome, presheaf_view, raw_skew,
    unvalidated_skew,
)
from test_skew import _reference_band_check

DOCS = Path(__file__).resolve().parent.parent / "docs"
SRC = Path(skewstone.__file__).resolve().parent


# ------------------------------------------------------------- references

def old_light_associative(rows):
    n = len(rows)
    inside = bytearray(n)
    members = []
    for a in sorted(range(n), key=lambda i: len(set(rows[i])), reverse=True):
        if inside[a]:
            continue
        xa = [tx[a] for tx in rows]
        if not all(map(eq, map(rows.__getitem__, xa), map(itemgetter(*rows[a]), rows))):
            return False
        inside[a] = 1
        members.append(a)
        new = [a]
        while new:
            found = set()
            for u in new:
                found.update(map(rows[u].__getitem__, members))
            for v in members:
                found.update(map(rows[v].__getitem__, new))
            new = [p for p in found if not inside[p]]
            for p in new:
                inside[p] = 1
            members.extend(new)
    return True


def old_band_check(elements, table, op):
    n = len(elements)
    for i in range(n):
        if table[i][i] != i:
            raise NotABand((elements[i],), op, "idempotent")
    if n < 2:
        return
    rows = [tuple(r) for r in table]
    if old_light_associative(rows):
        return
    picks = [itemgetter(*r) for r in table]
    for i in range(n):
        ti = table[i]
        for j in range(n):
            if rows[ti[j]] == picks[j](ti):
                continue
            tij = table[ti[j]]
            tj = table[j]
            for k in range(n):
                if tij[k] != ti[tj[k]]:
                    raise NotABand((elements[i], elements[j], elements[k]), op, "assoc")


def old_validate_skew(elements, circ_table, bullet_table, zero):
    elements, index = balg._index_elements(elements)
    if zero not in index:
        raise ValueError(f"zero {zero!r} is not an element")
    circ = skew._as_index_table(elements, index, circ_table, "circ")
    bullet = skew._as_index_table(elements, index, bullet_table, "bullet")
    n = len(elements)
    z = index[zero]

    old_band_check(elements, circ, "circ")
    old_band_check(elements, bullet, "bullet")

    for i in range(n):
        for j in range(n):
            if circ[i][bullet[i][j]] != i or circ[bullet[j][i]][i] != i:
                raise SkewAxiomViolation("SB1", (elements[i], elements[j]))
            if bullet[i][circ[i][j]] != i or bullet[circ[j][i]][i] != i:
                raise SkewAxiomViolation("SB1", (elements[i], elements[j]))

    for i in range(n):
        for j in range(n):
            if circ[circ[i][j]][i] != circ[j][i]:
                raise SkewAxiomViolation("SB2", (elements[i], elements[j]))
            if bullet[bullet[i][j]][i] != bullet[i][j]:
                raise SkewAxiomViolation("SB2", (elements[i], elements[j]))

    for i in range(n):
        for j in range(n):
            if (bullet[i][j] == bullet[j][i]) != (circ[i][j] == circ[j][i]):
                raise SkewAxiomViolation("SB3", (elements[i], elements[j]))

    for i in range(n):
        if circ[z][i] != z or circ[i][z] != z:
            raise SkewAxiomViolation("SB4", (elements[i],))

    S = skew.SkewAlgebra(elements, index, circ, bullet, z)
    for x in elements:
        try:
            S.down_algebra(x)
        except StructureError as inner:
            raise SkewAxiomViolation(
                "SB5", (x,), detail=f"x↓ fails {inner.law} witness=({','.join(inner.witness)})"
            ) from inner
    return S


def old_to_skew_tables(X):
    els = X.elements
    return ([[X.circ(x, y) for y in els] for x in els],
            [[X.bullet(x, y) for y in els] for x in els])


def old_skew_stanza_data(S):
    els = list(S.elements)
    return {
        "elements": els,
        "zero": S.zero,
        "circ": [[S.circ(x, y) for y in els] for x in els],
        "bullet": [[S.bullet(x, y) for y in els] for x in els],
    }


def old_skew_struct_eq(S, T):
    if set(S.elements) != set(T.elements) or S.zero != T.zero:
        return False
    return all(
        S.circ(x, y) == T.circ(x, y) and S.bullet(x, y) == T.bullet(x, y)
        for x in S.elements for y in S.elements
    )


# ----------------------------------------------------------------- helpers

def skew_view(S):
    return S.elements, S.index, S.circ_t, S.bullet_t, S._zero_i


def validated(validate, raw):
    result = outcome(validate, raw["elements"], raw["circ"], raw["bullet"], raw["zero"])
    return ("ok", skew_view(result[1])) if result[0] == "ok" else result


def assert_same_outcome(raw):
    """The new and the earlier validate_skew agree on ``raw``; returns the
    outcome."""
    new = validated(skew.validate_skew, raw)
    assert new == validated(old_validate_skew, raw), raw["elements"]
    return new


def generated_raw(sizes, seed=5):
    return raw_skew(bset.to_skew(bset.generate_boolean_set(sizes, seed=seed)))


class Spy:
    """Records the calls of a module function and what they returned while
    patched in."""

    def __init__(self, monkeypatch, module, name):
        self.calls, self.results = [], []
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            self.calls.append(args)
            self.results.append(fn(*args, **kwargs))
            return self.results[-1]

        monkeypatch.setattr(module, name, spy)


def band_witness(check, elements, table):
    try:
        check(tuple(elements), table, "circ")
    except NotABand as e:
        return e.law, e.witness
    return None


def row_classes(rows):
    """The partition of row positions into classes of equal rows."""
    out = {}
    for i, row in enumerate(rows):
        out.setdefault(tuple(row), []).append(i)
    return sorted(out.values())


def class_preserving_circ_mutant(raw, rng):
    """One column of ∘ edited in every row of one class of equal rows, so
    the classes of equal ∘ rows stay the same."""
    els = raw["elements"]
    classes = row_classes(raw["circ"])
    while True:
        cls = rng.choice(classes)
        j = rng.randrange(len(els))
        old = raw["circ"][cls[0]][j]
        v = rng.choice([e for e in els if e != old])
        rows = [list(r) for r in raw["circ"]]
        for i in cls:
            rows[i][j] = v
        if row_classes(rows) == classes:
            return {**raw, "circ": rows}


# ------------------------------------------------------------ acceptance

@pytest.mark.parametrize("sizes", [(1,), (2,), (2, 1), (2, 2, 2), (1, 1, 3, 3), (2, 2, 2, 2)])
def test_generated_algebras_are_accepted_by_reconstruction(sizes):
    raw = generated_raw(sizes)
    assert assert_same_outcome(raw)[0] == "ok"
    S = skew.validate_skew(raw["elements"], raw["circ"], raw["bullet"], raw["zero"])
    assert isinstance(S._bset, bset.BooleanSet) and not hasattr(S, "_gamma")
    gq = skew.gamma_classes(S)  # a view of the Boolean set, built on first use
    assert isinstance(gq, skew.GammaQuotient) and gq is S._gamma
    assert gq.algebra is S._bset.base and gq.classes is S._bset.stalks


def test_docs_skew_stanzas_match_reference():
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        doc = textio.parse(path.read_text())
        for s in doc.stanzas:
            if s.kind == "skew" and s.data.get("bullet") is not None:
                raw = doc.law_raw(s.name)  # the id tables of the stanza
                assert assert_same_outcome(raw)[0] == "ok"
                seen += 1
    assert seen


def test_skew_algebras_of_etale_duals_match_reference():
    # non-product Boolean sets whose element order interleaves the stalks
    for seed in range(40):
        X = etale.dual_bset(seeded_space(random.Random(seed)))
        circ, bullet = old_to_skew_tables(X)
        S = bset.to_skew(X)
        assert (S.elements, S.circ_t, S.bullet_t, S.zero) == (
            X.elements, [[X.index[v] for v in r] for r in circ],
            [[X.index[v] for v in r] for r in bullet], X.zero)
        raw = {"elements": list(X.elements), "zero": X.zero, "circ": circ, "bullet": bullet}
        assert assert_same_outcome(raw) == ("ok", skew_view(S))
        assert hasattr(S, "_bset"), seed


def test_small_tables_match_reference():
    # arbitrary tables, so that a false accept by reconstruction would show:
    # every pair of tables on two elements; on three, every idempotent •
    # beside each labeled ∘ of the one three-element algebra, and random pairs
    accepted = 0
    els = ["a", "b"]
    tables = [[[els[v] for v in flat[:2]], [els[v] for v in flat[2:]]]
              for flat in itertools.product(range(2), repeat=4)]
    for circ, bullet, zero in itertools.product(tables, tables, els):
        raw = {"elements": els, "zero": zero, "circ": circ, "bullet": bullet}
        accepted += assert_same_outcome(raw)[0] == "ok"
    assert accepted == 2

    els = ["a", "b", "c"]
    cells = [(i, j) for i in range(3) for j in range(3) if i != j]
    idempotent = []
    for values in itertools.product(els, repeat=len(cells)):
        table = [[els[i]] * 3 for i in range(3)]
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        idempotent.append(table)
    x3 = raw_skew(skew.validate_skew(["0", "x1", "x2"], X3_CIRC, X3_BULLET, "0"))
    accepted = 0
    for labels in itertools.permutations(els):
        name = dict(zip(x3["elements"], labels))
        pos = {labels[k]: k for k in range(3)}
        circ = [[name[x3["circ"][pos[x]][pos[y]]] for y in els] for x in els]
        for bullet in idempotent:
            raw = {"elements": els, "zero": name["0"], "circ": circ, "bullet": bullet}
            accepted += assert_same_outcome(raw)[0] == "ok"
    assert accepted == 6
    rng = random.Random(3)
    for _ in range(2000):
        raw = {"elements": els, "zero": rng.choice(els),
               "circ": rng.choice(idempotent), "bullet": rng.choice(idempotent)}
        assert_same_outcome(raw)


def test_accepting_256_validates_only_the_quotient(monkeypatch):
    raw = generated_raw((3, 3, 3, 3))
    balg_calls = Spy(monkeypatch, balg, "validate_balg")
    down_calls = Spy(monkeypatch, skew.SkewAlgebra, "down_algebra")
    # the restrictions are read off the certified ∘ rows: no class
    # presheaf is built and no cover walk runs
    presheaf_calls = Spy(monkeypatch, bset, "validate_presheaf")
    class_calls = Spy(monkeypatch, bset, "_class_presheaf")
    S = skew.validate_skew(raw["elements"], raw["circ"], raw["bullet"], raw["zero"])
    assert len(S.elements) == 256
    assert len(balg_calls.calls) == 1
    assert down_calls.calls == []
    assert presheaf_calls.calls == class_calls.calls == []
    monkeypatch.undo()

    X, gq = bset.from_skew(S), skew.gamma_classes(S)
    assert X is S._bset and gq is S._gamma and gq.algebra is X.base
    Y = old_from_skew(S)  # built the earlier way, from the tables
    assert presheaf_view(X) == presheaf_view(Y)
    assert (X.zero, join_table(X)) == (Y.zero, join_table(Y))
    assert gamma_view(gq) == gamma_view(old_gamma_classes(S))


def valid_balg():
    B = bset.generate_boolean_set((2, 1)).base
    pairs = [(x, y) for x in B.elements for y in B.elements if B.leq(x, y)]
    return lambda: balg.validate_balg(B.elements, pairs, B.bottom)


def valid_bahom():
    B = bset.generate_boolean_set((2, 1)).base
    return lambda: balg.validate_bahom({x: x for x in B.elements}, B, B)


def valid_presheaf():
    X = bset.generate_boolean_set((2, 1))
    return lambda: bset.validate_presheaf(X.base, X.stalks, cover_maps(X))


def valid_boolean_set():
    P = bset.generate_boolean_set((2, 1))
    return lambda: bset.validate_boolean_set(P)


def valid_product():
    return lambda: bset.generate_boolean_set((2, 1))


def valid_skew():
    raw = generated_raw((2, 1))
    return lambda: skew.validate_skew(raw["elements"], raw["circ"], raw["bullet"], raw["zero"])


def valid_band():
    raw = generated_raw((2, 1))
    return lambda: bset.validate_band(raw["elements"], raw["circ"])


def valid_to_skew():
    sets = [bset.generate_boolean_set((2, 1)) for _ in range(2)]  # to_skew keeps its result on X
    return lambda: bset.to_skew(sets.pop())


class Tamper:
    """A stand-in made from the function it replaces: ``wrap(real)``."""

    def __init__(self, wrap):
        self.wrap = wrap


def passing(change):
    """A stand-in for skew._validate_index that passes its arguments, X
    included, through ``change`` (elements, z, n) -> (elements, z)."""
    def wrap(real):
        def call(elements, index, circ, bullet, z, X=None):
            elements, z = change(elements, z, len(elements))
            return real(elements, index, circ, bullet, z, X)
        return call
    return Tamper(wrap)


@pytest.mark.parametrize("stand_ins, make", [
    pytest.param({(balg, "_stone_code"): None}, valid_balg, id="validate_balg"),
    pytest.param({(balg, "_preserved_by_atoms"): False}, valid_bahom, id="validate_bahom"),
    pytest.param({(bset, "_local_restrictions"): None}, valid_presheaf, id="validate_presheaf"),
    pytest.param({(bset, "_coordinates"): None}, valid_boolean_set, id="validate_boolean_set"),
    pytest.param({(bset, "_coordinates"): None}, valid_product, id="_product_sections"),
    pytest.param({(bset, "_reconstruct"): (None, False)}, valid_skew, id="validate_skew"),
    pytest.param({(skew, "_light_associative"): False}, valid_band, id="validate_band"),
    # to_skew's read-back gives back X's coordinates, zero and elements, or
    # the tables are not X's
    pytest.param({(bset, "_coordinates"): None}, valid_to_skew, id="to_skew-coordinates"),
    pytest.param({(skew, "_validate_index"): passing(lambda els, z, n: (els, (z + 1) % n))},
                 valid_to_skew, id="to_skew-zero"),
    pytest.param({(skew, "_validate_index"): passing(lambda els, z, n: (els[::-1], z))},
                 valid_to_skew, id="to_skew-element-order"),
])
def test_a_refusal_that_no_scan_explains_is_an_internal_error(monkeypatch, stand_ins, make):
    # each certificate alone accepts, and the scans after a refusal only
    # name the failure; when they find none, the certificate and the laws
    # disagree, which is raised, also under -O, and no structure is built
    validate = make()  # the input is built before the certificate is patched
    validate()
    for (module, name), value in stand_ins.items():
        monkeypatch.setattr(module, name, value.wrap(getattr(module, name))
                            if isinstance(value, Tamper) else lambda *args, value=value: value)
    with pytest.raises(AssertionError):
        validate()


def call_nodes(tree, name):
    """(enclosing function, call node) for every call of ``name`` (a bare
    name or an attribute) in ``tree``; the function is None at module
    level."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                out.append((fn, node))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def calls_by_function(tree, name):
    """The enclosing function of every call of ``name`` in ``tree``
    (call_nodes); None at module level."""
    return [fn for fn, _ in call_nodes(tree, name)]


def test_skew_algebras_are_built_only_by_validate_skew():
    # from_skew returns what validate_skew kept and gamma_classes views it,
    # so no other code may build a SkewAlgebra; _validate_index is validate_skew's
    # core on index tables, which to_skew and the build step of parsed index
    # rows call directly, as the build step calls validate_band's core
    # _band_of_index.  Every other
    # validated structure is built in one place too, after its certificate
    # accepts.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}

    def callers(name):
        return {f: fns for f, tree in trees.items() if (fns := calls_by_function(tree, name))}

    assert callers("SkewAlgebra") == {"skew.py": ["_validate_index"]}
    assert callers("_validate_index") == {"bset.py": ["to_skew"], "skew.py": ["validate_skew"],
                                          "textio.py": ["_build_stanza"]}
    # only to_skew hands _validate_index a Boolean set X, whose tables are
    # then read back and not certified, and it hands over the very rows
    # _skew_rows(X) built from X's coordinates
    with_set = [(f, fn) for f, tree in trees.items()
                for fn, node in call_nodes(tree, "_validate_index")
                if len(node.args) > 5 or node.keywords]
    assert with_set == [("bset.py", "to_skew")]
    to_skew = next(node for node in ast.walk(trees["bset.py"])
                   if isinstance(node, ast.FunctionDef) and node.name == "to_skew")
    assert [ast.dump(stmt) for stmt in to_skew.body[1:]] == [ast.dump(stmt) for stmt in ast.parse(
        "circ, bullet = _skew_rows(X)\n"
        "return skew._validate_index(X.elements, X.index, circ, bullet, X.index[X.zero], X)").body]
    assert callers("FinBooleanAlgebra") == {"balg.py": ["validate_balg"]}
    assert callers("FinMeetSemilattice") == {"balg.py": ["validate_meet_semilattice"]}
    assert callers("Presheaf") == {"bset.py": ["validate_presheaf"]}
    assert callers("BooleanSet") == {"bset.py": ["_coded_boolean_set"]}
    assert callers("RightNormalBand") == {"bset.py": ["_band_of_index"]}


def test_the_call_scan_sees_names_attributes_and_module_level():
    tree = ast.parse(
        "A()\n"
        "def f():\n"
        "    m.A(1)\n"
        "    def g():\n"
        "        return [A() for _ in x]\n"
        "    B()\n"
    )
    assert calls_by_function(tree, "A") == [None, "f", "g"]


# ------------------------------------------------------ every small table

def zero_fixed_bands(n, z, op):
    """Every band index table on range(n) in which z absorbs (``op``
    "circ", as SB4 asks) or is the identity ("bullet", as SB1 and SB4 make
    it), by every choice of the other off-diagonal entries."""
    r = range(n)
    cells = [(i, j) for i in r for j in r if i != j and z not in (i, j)]
    out = []
    for values in itertools.product(r, repeat=len(cells)):
        t = [[i if i == j else None for j in r] for i in r]
        for k in r:
            t[z][k], t[k][z] = (z, z) if op == "circ" else (k, k)
        for (i, j), v in zip(cells, values):
            t[i][j] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r):
            out.append(t)
    return out


@pytest.mark.parametrize("n, bands, accepted", [
    (1, (1, 1), 1), (2, (1, 1), 1), (3, (5, 4), 1), (4, (51, 35), 4)])
def test_every_small_band_pair_matches_the_oracle(n, bands, accepted):
    # with the zero first and with it last: the validator's (law, witness),
    # or its acceptance, is the oracle's first finding, and every refusal is
    # explained by an axiom (no AssertionError); at four elements the three
    # pairs whose ∘ is not right normal are refused too
    for z in sorted({0, n - 1}):
        els = list("abc"[:n - 1])
        els.insert(z, "0")
        circs, bullets = zero_fixed_bands(n, z, "circ"), zero_fixed_bands(n, z, "bullet")
        assert (len(circs), len(bullets)) == bands
        ok = 0
        for circ, bullet in itertools.product(circs, bullets):
            raw = {"kind": "skew", "elements": els, "zero": "0",
                   "circ": [[els[v] for v in row] for row in circ],
                   "bullet": [[els[v] for v in row] for row in bullet]}
            try:
                skew.validate_skew(els, raw["circ"], raw["bullet"], "0")
                found = None
            except StructureError as e:
                found = e.law, e.witness
            assert found == laws.scan(raw), raw
            ok += found is None
        assert ok == accepted, z


# ------------------------------------------------------------- rejection

@pytest.mark.parametrize("sizes, count", [((2, 2, 2), 80), ((2, 2, 2, 2), 40),
                                          ((3, 3, 3, 3), 10)])
def test_seeded_mutants_match_reference(sizes, count):
    raw = generated_raw(sizes)
    rng = random.Random(count)
    ops, laws = set(), set()
    for _ in range(count):
        mutant = me.mutate_skew(raw, rng)
        ops.add("circ" if mutant["circ"] is not raw["circ"] else "bullet")
        result = assert_same_outcome(mutant)
        laws.add(result[1])
    assert ops == {"circ", "bullet"}
    assert len(laws) > 1


@pytest.mark.parametrize("sizes, count", [((2, 2, 2), 40), ((2, 2, 2, 2), 20),
                                          ((3, 3, 3, 3), 4)])
def test_mutants_with_intact_row_classes_match_reference(monkeypatch, sizes, count):
    # the certificate reaches the table comparison (the ∘ rows have atom
    # coordinates) and fails there; on a • edit the ∘ band check is left out
    raw = generated_raw(sizes)
    rng = random.Random(count)
    coords = Spy(monkeypatch, bset, "_coordinates")
    bands = Spy(monkeypatch, skew, "_band_check")
    compared = 0
    for m in range(count):
        if m % 2:
            mutant = class_preserving_circ_mutant(raw, rng)
        else:
            mutant = me.mutate_skew(raw, rng)
            while mutant["circ"] is not raw["circ"]:
                mutant = me.mutate_skew(raw, rng)
        coords.results.clear()
        bands.calls.clear()
        assert assert_same_outcome(mutant)[0] != "ok"
        [found] = coords.results  # one certificate per validation
        reached = found is not None
        compared += reached
        if mutant["circ"] is raw["circ"]:
            assert reached
            assert [args[2] for args in bands.calls] == ["bullet"]
    assert compared > count // 2


def consequence_mutants():
    """The 300 single-edit mutants of test_consequences_first_witness_on_mutants
    and 100 class-preserving ∘ mutants each of (2, 2) and (2, 1, 2)."""
    raw = raw_skew(bset.to_skew(bset.generate_boolean_set((2, 2), seed=1)))
    out = [me.mutate_skew(raw, random.Random(i)) for i in range(300)]
    for sizes in ((2, 2), (2, 1, 2)):
        raw = raw_skew(bset.to_skew(bset.generate_boolean_set(sizes, seed=1)))
        out += [class_preserving_circ_mutant(raw, random.Random(i)) for i in range(100)]
    return out


def lines_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_consequence_reports_on_mutants_are_pinned():
    # Pinned while gamma_right_zero_circ read x∘y = y within classes of equal
    # ∘ rows: every other line of the 500 reports, and that law's lines, which
    # the reference old_check_consequences still gives.  Checking Green's R by
    # its definition (x∘y = y and y∘x = x) changes that law's line on 137
    # mutants and no other line: an edited ∘ row leaves its class of equal
    # rows while still R-related to it (132 single edits, 5 class-preserving),
    # or a non-idempotent x is no longer the first witness, (x, x).
    mutants = [unvalidated_skew(m) for m in consequence_mutants()]
    reports = [skew.check_consequences(S).items for S in mutants]
    assert lines_digest([str(it) for items in reports for it in items
                         if it.law != "gamma_right_zero_circ"]) == "830b369c67bd6b9c"
    before = [old_check_consequences(S).items[2] for S in mutants]
    assert lines_digest(map(str, before)) == "ce3604c8d7d18413"
    now = [items[2] for items in reports]
    assert lines_digest(map(str, now)) == "1414b0bd905b778f"
    changed = [k for k, (a, b) in enumerate(zip(before, now)) if a != b]
    assert len(changed) == 137 and sum(k < 300 for k in changed) == 132
    assert all(not now[k].ok for k in changed)


@pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3, 3)])
def test_zero_row_circ_edits_match_reference(sizes):
    raw = generated_raw(sizes)
    els = raw["elements"]
    z = els.index(raw["zero"])
    assert z == 0
    rng = random.Random(len(els))
    index = {e: i for i, e in enumerate(els)}
    for j in rng.sample(range(1, len(els)), 6):
        rows = [list(r) for r in raw["circ"]]
        rows[z][j] = rng.choice([e for e in els if e != rows[z][j]])
        mutant = {**raw, "circ": rows}
        assert assert_same_outcome(mutant)[0] != "ok"
        # the failure is in the first row, so the reference stops there too
        table = [[index[v] for v in row] for row in rows]
        witness = band_witness(skew._band_check, els, table)
        assert witness[1][0] == els[0]
        assert witness == band_witness(_reference_band_check, els, table)


# ------------------------------------------------ tables, stanzas, equality

def test_to_skew_and_skew_stanza_match_reference():
    sets = [bset.generate_boolean_set(s, seed=1) for s in [(1,), (2, 1), (1, 1, 3), (2, 2, 2)]]
    sets += [etale.dual_bset(seeded_space(random.Random(s))) for s in range(10)]
    for X in sets:
        S = bset.to_skew(X)
        circ, bullet = old_to_skew_tables(X)
        assert [[S.circ(x, y) for y in S.elements] for x in S.elements] == circ
        assert [[S.bullet(x, y) for y in S.elements] for x in S.elements] == bullet
        stanza = textio.skew_stanza(S, "G")
        # the stanza keeps the algebra's index rows; its law view has the ids
        assert stanza.data["circ"] is S.circ_t and stanza.data["bullet"] is S.bullet_t
        law_view = textio.Document([stanza]).law_raw("G")
        assert law_view.pop("kind") == "skew" and law_view == old_skew_stanza_data(S)
        old = textio.Stanza("skew", "G", None, old_skew_stanza_data(S), 0)
        assert textio.print_stanza(stanza) == textio_reference.print_stanza(old)


def test_table_rows_parse_the_same_in_and_out_of_element_order():
    S = bset.to_skew(bset.generate_boolean_set((2, 2), seed=3))
    text = textio.print_stanza(textio.skew_stanza(S, "G"))
    in_order_doc = textio.parse(text)
    in_order = in_order_doc.stanzas[0].data
    lines = text.splitlines()
    # reverse the header and the rows of both tables, entries included
    for key in ("  circ:", "  bullet:"):
        at = lines.index(key) + 1
        n = len(S.elements)
        block = [line.split() for line in lines[at:at + n + 1]]
        header = block[0][::-1]
        rows = [row[::-1] for row in block[1:]][::-1]
        lines[at:at + n + 1] = ["    " + " ".join(r) for r in [header] + rows]
    shuffled = textio.parse("\n".join(lines)).stanzas[0].data
    assert shuffled == in_order
    assert in_order["circ"] == S.circ_t and in_order["bullet"] == S.bullet_t
    assert in_order_doc.law_raw("G")["circ"] == old_skew_stanza_data(S)["circ"]
    # a repeated id takes the reorder path, whose rows follow the last copy
    dup = textio.parse(
        "skew D {\n  elements: a, a\n  zero: a\n  circ:\n    a a\n    a b\n    c d\n}\n"
    )
    assert dup.law_raw("D")["circ"] == [["d", "d"], ["d", "d"]]


def test_skew_struct_eq_matches_reference():
    algebras = [bset.to_skew(bset.generate_boolean_set(s, seed=seed))
                for s in [(1, 1), (2, 1), (2, 2)] for seed in (None, 4)]
    X = etale.dual_bset(seeded_space(random.Random(2)))
    algebras += [bset.to_skew(X), bset.to_skew(bset.from_skew(bset.to_skew(X)))]
    rng = random.Random(9)
    for S in list(algebras):
        raw = raw_skew(S)
        algebras.append(unvalidated_skew(me.mutate_skew(raw, rng)))
        perm = list(raw["elements"])
        rng.shuffle(perm)
        pos = {x: raw["elements"].index(x) for x in perm}
        algebras.append(unvalidated_skew({
            **raw, "elements": perm,
            "circ": [[raw["circ"][pos[x]][pos[y]] for y in perm] for x in perm],
            "bullet": [[raw["bullet"][pos[x]][pos[y]] for y in perm] for x in perm],
        }))
    hits = 0
    for S in algebras:
        for T in algebras:
            hits += old_skew_struct_eq(S, T)
            assert skew.skew_struct_eq(S, T) == old_skew_struct_eq(S, T)
    assert hits > len(algebras)
