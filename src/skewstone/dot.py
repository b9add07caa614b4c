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


def _presheaf_covers(P, index):
    """Hasse covers (x, y) of P's restriction order, x-major, then y, in the
    order of ``index``: x = y|f for f a lower cover of p(y)."""
    covers = [(P._rest[y][f], y) for e, f in P.base.cover_pairs for y in P.stalks[e]]
    return sorted(covers, key=lambda c: (index[c[0]], index[c[1]]))


def skew_dot(S, name):
    """The natural order, that of the presheaf of R classes."""
    lines = [f"digraph {_q(name)} {{", "  rankdir=BT;"]
    for e in S.elements:
        lines.append(f"  {_q(e)};")
    for x, y in _presheaf_covers(bset.band_to_presheaf(S), S.index):
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
    for x, y in _presheaf_covers(X, X.index):
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
