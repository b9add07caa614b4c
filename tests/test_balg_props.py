"""Balg ``props`` (``classical_properties_report``) against the set-based
report it replaced (``balg_props_reference``), on valid powersets and on
algebras whose ultrafilters, filters or ideals were tampered with; every FAIL names
a witness at which the failed fact is checked again here, over member sets.
Also the witnesses of the argument errors of ``extend_filter_avoiding_ideal``
and ``etale.restrict_section``, named in structure order."""

import random

import pytest

import balg_props_reference as reference
from skewstone import balg, etale
from skewstone.balg import FilterSet, FinBooleanAlgebra
from skewstone.errors import NotDisjoint, NotNested


def powerset(k):
    points = tuple(f"p{i}" for i in range(k))
    return balg.powerset_balg(points, balg.render_braces(points))[0]


def verdicts(report):
    return [(it.law, it.ok) for it in report.items]


def tampered(k, kind, rng):
    """The powerset of k atoms with one edit that toggles one element: an
    ultrafilter dropped from its memo, or the members edited of an
    ultrafilter, or of a filter or an ideal through a patched all_filters
    or all_ideals."""
    B = powerset(k)
    x = rng.choice(B.elements)
    ultra = list(B.ultrafilters())
    if kind == "drop":
        del ultra[rng.randrange(len(ultra))]
    elif kind == "ultrafilter":
        j = rng.randrange(len(ultra))
        ultra[j] = FilterSet(B, ultra[j].members ^ {x}, ultra[j].generator)
    else:
        table = list(getattr(B, f"all_{kind}s")())
        j = rng.randrange(len(table))
        table[j] = FilterSet(B, table[j].members ^ {x}, table[j].generator)
        setattr(B, f"all_{kind}s", lambda: tuple(table))
    B._ultra = tuple(ultra)
    return B


def tampered_cases():
    rng = random.Random(22)
    return [(k, kind, tampered(k, kind, rng))
            for k in range(2, 7) for kind in ("drop", "ultrafilter", "filter", "ideal")
            for _ in range(10 if k < 6 else 3)]


def fails_at(B, law, witness):
    """Whether the fact ``law`` fails at ``witness``, checked over member
    sets: filters and ideals are named by their generators."""
    ultra = B.ultrafilters()
    filters = {f.generator: f.members for f in B.all_filters()}
    ideals = {i.generator: i.members for i in B.all_ideals()}
    everything = frozenset(B.elements)
    primes = {m for m in filters.values() if B.is_prime_filter(m)}

    def stone(a):
        return frozenset(k for k, u in enumerate(ultra) if a in u.members)

    if law == "nonzero_in_ultrafilter":
        (x,) = witness
        return x != B.bottom and not stone(x)
    if law == "ultrafilters_are_prime_filters":
        (g,) = witness
        return (any(u.generator == g and u.members not in primes for u in ultra)
                or g in filters and filters[g] in primes
                and filters[g] not in {u.members for u in ultra})
    if law == "maximal_ideals_are_prime":
        (g,) = witness
        m = ideals[g]
        proper = [i for i in ideals.values() if i != everything]
        maximal = m != everything and not any(m < i for i in proper)
        return maximal != B.is_prime_ideal(m)
    if law == "prime_ideal_complement_is_prime_filter":
        (g,) = witness
        return B.is_prime_ideal(ideals[g]) and not B.is_prime_filter(everything - ideals[g])
    if law == "filter_extension_avoiding_ideal":
        f, i = witness
        F, I = filters[f], ideals[i]
        return not F & I and not any(F <= u.members and not I & u.members for u in ultra)
    if law == "separation_of_distinct_nonzero":
        a, b = witness
        return a != b and B.bottom not in (a, b) and stone(a) == stone(b)
    assert law == "stone_map_isomorphism"
    if len(witness) == 2:
        a, b = witness
        return (a != b and stone(a) == stone(b)
                or stone(B.meet(a, b)) != stone(a) & stone(b)
                or stone(B.join(a, b)) != stone(a) | stone(b))
    (g,) = witness
    images = {stone(a) for a in B.elements}
    return (g == B.bottom and bool(stone(g))
            or any(u.generator == g and frozenset({k}) not in images
                   for k, u in enumerate(ultra)))


# ------------------------------------------------------------ valid input

@pytest.mark.parametrize("k", range(5))
def test_powersets_print_what_the_reference_prints(k):
    B = powerset(k)
    assert str(balg.classical_properties_report(B)) == str(reference.classical_properties_report(B))


def test_small_algebras_print_what_the_reference_prints(b2, b4, b8):
    for B in (b2, b4, b8):
        new = balg.classical_properties_report(B)
        assert new.all_ok and len(new.items) == 7
        assert str(new) == str(reference.classical_properties_report(B))


# --------------------------------------------------------- tampered input

def test_tampered_algebras_keep_the_reference_verdicts_and_never_raise():
    returned = raised = failed = 0
    for k, kind, B in tampered_cases():
        new = balg.classical_properties_report(B)
        try:
            ref = reference.classical_properties_report(B)
        except (AssertionError, ValueError):
            raised += 1
        else:
            returned += 1
            assert verdicts(new) == verdicts(ref), (k, kind)
        failed += not new.all_ok
    assert returned and raised and failed


def test_every_failure_names_a_witness_where_the_fact_fails():
    seen = set()
    for k, kind, B in tampered_cases():
        for item in balg.classical_properties_report(B).failures():
            assert item.witness, (k, kind, item.law)
            assert fails_at(B, item.law, item.witness), (k, kind, item.law, item.witness)
            seen.add(item.law)
    # the complement of a prime ideal of the order is a prime filter of it,
    # and no edit here touches the order, so that one fact never fails
    assert len(seen) == 6 and "prime_ideal_complement_is_prime_filter" not in seen, seen


def test_the_report_reads_each_table_once_and_runs_no_per_pair_search(monkeypatch):
    def refuse(*args):
        raise RuntimeError("called")

    for name in ("separating_ultrafilter", "extend_filter_avoiding_ideal"):
        monkeypatch.setattr(balg, name, refuse)
    for name in ("stone_map", "is_prime_filter", "is_prime_ideal"):
        monkeypatch.setattr(FinBooleanAlgebra, name, refuse)
    for B in (powerset(4), tampered(4, "ultrafilter", random.Random(1))):
        calls = []
        for name in ("all_filters", "all_ideals"):
            def counted(name=name, read=getattr(B, name)):
                calls.append(name)
                return read()
            setattr(B, name, counted)
        balg.classical_properties_report(B)
        assert sorted(calls) == ["all_filters", "all_ideals"]


# ----------------------------------------------- argument witness order

def test_not_disjoint_names_the_first_common_element_in_element_order():
    points = ("p", "q", "r")
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    with pytest.raises(NotDisjoint) as e:
        balg.extend_filter_avoiding_ideal(B, B.principal_filter("{}"), B.principal_ideal("{p}"))
    assert e.value.witness == ("{}",)


def test_not_nested_names_base_points_in_base_order():
    sp = etale.validate_etale(["e1", "e2"], ["v", "u"], {"e1": "v", "e2": "u"})
    with pytest.raises(NotNested) as e:
        etale.restrict_section(etale.make_section(sp, {"e1", "e2"}), set(), set())
    assert e.value.witness == ("v", "u")
    with pytest.raises(NotNested) as e:
        etale.restrict_section(etale.make_section(sp, set()), set(), {"a", "u", "v"})
    assert e.value.witness == ("v", "u", "a")
