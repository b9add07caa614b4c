"""DOT export: Hasse diagrams for orders, dashed fibration edges for stalks."""

from . import balg, bset, etale, skew


def _q(s):
    return '"' + s.replace('"', r'\"') + '"'


def balg_dot(B, name):
    lines = [f"digraph {_q(name)} {{", "  rankdir=BT;"]
    for e in B.elements:
        lines.append(f"  {_q(e)};")
    for upper, lower in B.cover_pairs:
        lines.append(f"  {_q(lower)} -> {_q(upper)};")
    lines.append("}")
    return "\n".join(lines)


def _order_covers(elements, below):
    """Hasse covers (x, y) of the relation with ``below[j]`` the mask of the
    i related to j: x below y and nothing else between them, x-major, then
    y, in element order."""
    above = balg._down_masks(len(elements), below)
    return [
        (x, elements[j])
        for i, x in enumerate(elements)
        for j in range(len(elements))
        if i != j and below[j] >> i & 1 and not above[i] & below[j] & ~(1 << i | 1 << j)
    ]


def skew_dot(S, name):
    lines = [f"digraph {_q(name)} {{", "  rankdir=BT;"]
    for e in S.elements:
        lines.append(f"  {_q(e)};")
    for x, y in _order_covers(S.elements, skew._natural_below(S)):
        lines.append(f"  {_q(x)} -> {_q(y)};")
    lines.append("}")
    return "\n".join(lines)


def bset_dot(X, name):
    lines = [f"digraph {_q(name)} {{", "  rankdir=BT;"]
    for e in X.base.elements:
        lines.append(f"  {_q(e)} [shape=box];")
    for upper, lower in X.base.cover_pairs:
        lines.append(f"  {_q(lower)} -> {_q(upper)};")
    for x in X.elements:
        lines.append(f"  {_q(x)};")
    for x, y in _order_covers(X.elements, X._below):
        lines.append(f"  {_q(x)} -> {_q(y)};")
    for x in X.elements:
        lines.append(f"  {_q(x)} -> {_q(X.p(x))} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def etale_dot(sp, name):
    lines = [f"digraph {_q(name)} {{", "  rankdir=BT;"]
    for x in sp.base:
        lines.append(f"  {_q(x)} [shape=box];")
    for e in sp.total:
        lines.append(f"  {_q(e)};")
        lines.append(f"  {_q(e)} -> {_q(sp.proj[e])} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def export(obj, name):
    if isinstance(obj, bset.BooleanSet):
        return bset_dot(obj, name)
    if isinstance(obj, balg.FinBooleanAlgebra):
        return balg_dot(obj, name)
    if isinstance(obj, skew.SkewAlgebra):
        return skew_dot(obj, name)
    if isinstance(obj, bset.RightNormalBand):
        return skew_dot(obj, name)
    if isinstance(obj, etale.FinEtaleSpace):
        return etale_dot(obj, name)
    raise ValueError(f"no DOT rendering for {type(obj).__name__}")
