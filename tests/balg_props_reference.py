"""``balg.classical_properties_report`` as it was before it scanned member
masks: set comparisons over ``FilterSet`` members, a filter extension per
disjoint filter/ideal pair through ``extend_filter_avoiding_ideal`` (whose
failure was caught as a FAIL without a witness), ``separating_ultrafilter``
per distinct nonzero pair, and the Stone map rebuilt per element and per
pair.  Kept as the differential reference of ``tests/test_balg_props.py``.
"""

from skewstone.balg import extend_filter_avoiding_ideal, separating_ultrafilter
from skewstone.report import CheckItem, Report


def classical_properties_report(B):
    items = []
    ultra = B.ultrafilters()
    items.append(CheckItem(
        "nonzero_in_ultrafilter",
        all(any(x in f for f in ultra) for x in B.elements if x != B.bottom),
    ))
    everything = frozenset(B.elements)
    primes = {f.members for f in B.all_filters() if B.is_prime_filter(f.members)}
    items.append(CheckItem(
        "ultrafilters_are_prime_filters", {f.members for f in ultra} == primes,
    ))
    proper_ideals = [i for i in B.all_ideals() if i.members != everything]
    maximal = {
        i.members for i in proper_ideals
        if not any(i.members < j.members for j in proper_ideals)
    }
    prime_ideals = {
        i.members for i in B.all_ideals() if B.is_prime_ideal(i.members)
    }
    items.append(CheckItem("maximal_ideals_are_prime", maximal == prime_ideals))
    items.append(CheckItem(
        "prime_ideal_complement_is_prime_filter",
        all(B.is_prime_filter(everything - m) for m in prime_ideals),
    ))
    ok = True
    for f in B.all_filters():
        for i in B.all_ideals():
            if not (f.members & i.members):
                try:
                    extend_filter_avoiding_ideal(B, f, i)
                except AssertionError:
                    ok = False
    items.append(CheckItem("filter_extension_avoiding_ideal", ok))
    ok = all(
        (a in separating_ultrafilter(B, a, b)) != (b in separating_ultrafilter(B, a, b))
        for a in B.elements for b in B.elements
        if a != b and a != B.bottom and b != B.bottom
    )
    items.append(CheckItem("separation_of_distinct_nonzero", ok))
    subsets_hit = {frozenset(B.stone_map(a)) for a in B.elements}
    items.append(CheckItem(
        "stone_map_isomorphism",
        len(subsets_hit) == len(B.elements) == 2 ** len(ultra)
        and all(
            B.stone_map(B.meet(a, b)) == B.stone_map(a) & B.stone_map(b)
            and B.stone_map(B.join(a, b)) == B.stone_map(a) | B.stone_map(b)
            for a in B.elements for b in B.elements
        ),
    ))
    return Report(items)
