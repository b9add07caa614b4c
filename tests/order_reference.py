"""The order-row readers of ``skewstone.balg`` as they were before they read
their rows by set bits: each scans every index, or walks the lowest set bit
by hand; and ``powerset_balg`` as it was before it gave ``validate_balg``
only the cover pairs, when it compared all 4^k pairs of subsets.  The tests
compare the package with them; none is used by it.
"""

from skewstone.balg import _bits, _closure, validate_balg
from skewstone.errors import NotAPoset


def down_masks(n, up):
    down = [0] * n
    for i in range(n):
        row = up[i]
        for j in range(n):
            if row >> j & 1:
                down[j] |= 1 << i
    return down


def check_poset(elements, index, leq_pairs):
    """The up rows of the order, or NotAPoset on the first pair (i, j > i)
    below each other."""
    n = len(elements)
    pairs = []
    for x, y in leq_pairs:
        if x not in index or y not in index:
            raise ValueError(f"order pair ({x!r}, {y!r}) uses undeclared elements")
        pairs.append((index[x], index[y]))
    up = _closure(n, pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise NotAPoset((elements[i], elements[j]))
    return up


def down_set(L, x):
    m = L._down[L.index[x]]
    return tuple(e for i, e in enumerate(L.elements) if m >> i & 1)


def up_set(L, x):
    m = L._up[L.index[x]]
    return tuple(e for i, e in enumerate(L.elements) if m >> i & 1)


def cover_pairs(L):
    covers = []
    for i, e in enumerate(L.elements):
        strict = L._down[i] & ~(1 << i)
        for j in range(len(L.elements)):
            if strict >> j & 1 and L._up[j] & strict == 1 << j:
                covers.append((e, L.elements[j]))
    return tuple(covers)


def ultrafilter_generators(B):
    """The generators of the maximal proper filters, by pairwise containment
    of the up rows."""
    up = B._up
    full = (1 << len(B.elements)) - 1
    proper = [i for i, row in enumerate(up) if row != full]
    return [
        i for i in proper
        if not any(up[i] & ~up[j] == 0 and up[i] != up[j] for j in proper)
    ]


def ultra_masks(B):
    ultra = [B._mask(u.members) for u in B.ultrafilters()]
    return ultra, [sum(1 << k for k, m in enumerate(ultra) if m >> i & 1)
                   for i in range(len(B.elements))]


def stone_tables(n, up, down, bot):
    full = (1 << n) - 1
    if up[bot] != full:
        return None
    base = 1 << bot
    atoms = [i for i in range(n) if i != bot and down[i] == base | 1 << i]
    k = len(atoms)
    if n != 1 << k:
        return None
    code = [0] * n
    for b, a in enumerate(atoms):
        bit = 1 << b
        m = up[a]
        while m:
            low = m & -m
            code[low.bit_length() - 1] |= bit
            m ^= low
    pos = [-1] * n
    for i, c in enumerate(code):
        if pos[c] >= 0:
            return None
        pos[c] = i
    all_atoms = n - 1
    for i, c in enumerate(code):
        rest = all_atoms & ~c
        expect = 1 << pos[c]
        s = rest
        while s:
            expect |= 1 << pos[c | s]
            s = (s - 1) & rest
        if up[i] != expect:
            return None
    meet = [[pos[c & d] for d in code] for c in code]
    join = [[pos[c | d] for d in code] for c in code]
    comp_in = {}
    for b in range(n):
        cb = code[b]
        m = down[b]
        while m:
            low = m & -m
            a = low.bit_length() - 1
            m ^= low
            comp_in[b, a] = pos[cb & ~code[a]]
    return meet, join, comp_in


def powerset_balg(points, render):
    points = tuple(points)
    n = len(points)
    subsets = [frozenset(map(points.__getitem__, _bits(mask))) for mask in range(1 << n)]
    id_of, ids = {}, set()
    for s in subsets:
        sid = render(s)
        if sid in ids or s in id_of:
            raise ValueError(f"subset renderer not injective at {sid!r}")
        id_of[s] = sid
        ids.add(sid)
    set_of = {sid: s for s, sid in id_of.items()}
    pairs = [
        (id_of[s], id_of[t]) for s in subsets for t in subsets if s <= t
    ]
    alg = validate_balg([id_of[s] for s in subsets], pairs, id_of[frozenset()])
    return alg, id_of, set_of
