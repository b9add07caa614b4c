"""``FinBooleanAlgebra``'s reads as they were while it kept n×n meet and
join tables and a relative-complement dict with one entry per pair a <= b:
``meet``, ``join``, ``join_all``, ``rel_complement``, ``top``, ``atoms``,
the prime filter and ideal predicates, ``ultrafilters``,
``classical_properties_report`` and ``validate_bahom`` with its atom check
over the tables.  The tables are the ones ``order_reference.stone_tables``
reads off the algebra's up and down rows.  Kept as the differential
reference of ``tests/test_stone_code.py``.
"""

from itertools import chain, product

from skewstone import balg
from skewstone.errors import NotAHomomorphism
from skewstone.report import Report, _first_witness

import order_reference


class Tables:
    """The table-based reads of the validated algebra ``B``."""

    def __init__(self, B):
        self.B = B
        self._meet, self._join, self._comp_in = order_reference.stone_tables(
            len(B.elements), B._up, B._down, B._bottom_i)

    def meet(self, x, y):
        B = self.B
        return B.elements[self._meet[B.index[x]][B.index[y]]]

    def join(self, x, y):
        B = self.B
        return B.elements[self._join[B.index[x]][B.index[y]]]

    def join_all(self, xs):
        B = self.B
        acc = B._bottom_i
        for x in xs:
            acc = self._join[acc][B.index[x]]
        return B.elements[acc]

    def rel_complement(self, e, f):
        B = self.B
        i = B.index[e]
        m = self._meet[i][B.index[f]]
        return B.elements[self._comp_in[i, m]]

    @property
    def top(self):
        B = self.B
        return B.elements[balg._bound((1 << len(B.elements)) - 1, B._down)]

    @property
    def atoms(self):
        B = self.B
        base = 1 << B._bottom_i
        return tuple(e for i, e in enumerate(B.elements)
                     if i != B._bottom_i and B._down[i] == base | 1 << i)

    def is_prime_mask(self, m, table):
        n = len(self.B.elements)
        if m == (1 << n) - 1:
            return False
        inside = [m >> i & 1 for i in range(n)]
        outside = [i for i in range(n) if not inside[i]]
        for i in outside:
            row = table[i]
            for j in outside:
                if inside[row[j]]:
                    return False
        return True

    def is_prime_filter_mask(self, m):
        return self.B._is_filter_mask(m) and self.is_prime_mask(m, self._join)

    def is_prime_filter(self, members):
        return self.is_prime_filter_mask(self.B._mask(members))

    def is_prime_ideal(self, members):
        m = self.B._mask(members)
        return self.B._is_ideal_mask(m) and self.is_prime_mask(m, self._meet)

    def ultrafilters(self):
        B = self.B
        up = B._up
        full = (1 << len(B.elements)) - 1
        proper = sum(1 << i for i, row in enumerate(up) if row != full)
        gens = [i for i in balg._bits(proper) if B._down[i] & proper == 1 << i]
        ultra = tuple(B.principal_filter(B.elements[i]) for i in gens)
        covered = 0
        for i, f in zip(gens, ultra):
            if not self.is_prime_filter_mask(up[i]):
                raise AssertionError(f)
            covered |= up[i]
        missing = full & ~covered & ~(1 << B._bottom_i)
        if missing:
            raise AssertionError(B.elements[balg._first(missing)])
        return ultra

    def classical_properties_report(self):
        """The report over ``B.ultrafilters()``, as the tables read it."""
        B = self.B
        els, n, bot = B.elements, len(B.elements), B._bottom_i
        full = (1 << n) - 1
        ultra = B.ultrafilters()
        U = [B._mask(u.members) for u in ultra]
        stone = balg._transpose(U, n)
        filters = [(f.generator, B._mask(f.members)) for f in B.all_filters()]
        ideals = [(i.generator, B._mask(i.members)) for i in B.all_ideals()]
        nonzero = [i for i in range(n) if i != bot]
        primes = {m for _, m in filters if self.is_prime_filter_mask(m)}
        proper = [m for _, m in ideals if m != full]
        maximal = [m != full and not any(m | p == p != m for p in proper) for _, m in ideals]
        prime_ideal = [B._is_ideal_mask(m) and self.is_prime_mask(m, self._meet)
                       for _, m in ideals]
        contain = [sum(1 << k for k, u in enumerate(U) if m | u == u) for _, m in filters]
        avoid = [sum(1 << k for k, u in enumerate(U) if not m & u) for _, m in ideals]
        images = set(stone)
        return Report([
            _first_witness("nonzero_in_ultrafilter", ((els[i],) for i in nonzero if not stone[i])),
            _first_witness("ultrafilters_are_prime_filters", chain(
                ((u.generator,) for u, m in zip(ultra, U) if m not in primes),
                ((g,) for g, m in filters if m in primes and m not in U))),
            _first_witness("maximal_ideals_are_prime", (
                (g,) for (g, _), mx, p in zip(ideals, maximal, prime_ideal) if mx != p)),
            _first_witness("prime_ideal_complement_is_prime_filter", (
                (g,) for (g, m), p in zip(ideals, prime_ideal)
                if p and not self.is_prime_filter_mask(full & ~m))),
            _first_witness("filter_extension_avoiding_ideal", (
                (f, i) for (f, fm), c in zip(filters, contain)
                for (i, im), a in zip(ideals, avoid) if not fm & im and not c & a)),
            _first_witness("separation_of_distinct_nonzero", (
                (els[a], els[b]) for a in nonzero for b in nonzero
                if a != b and stone[a] == stone[b])
                if len({stone[i] for i in nonzero}) < len(nonzero) else ()),
            _first_witness("stone_map_isomorphism", chain(
                ((els[a], els[b]) for a, b in product(range(n), repeat=2)
                 if a != b and stone[a] == stone[b]
                 or stone[self._meet[a][b]] != stone[a] & stone[b]
                 or stone[self._join[a][b]] != stone[a] | stone[b]),
                ((B.bottom,),) if stone[bot] else (),
                ((u.generator,) for k, u in enumerate(ultra) if 1 << k not in images))),
        ])


def preserved_by_atoms(f, source, target):
    """The atom check over the target's meet and join tables."""
    T = target.B
    bot, meet, join = T._bottom_i, target._meet, target._join
    atoms = [source.B.index[a] for a in source.atoms]
    images = [f[a] for a in atoms]
    for m, u in enumerate(images):
        row = meet[u]
        if any(row[v] != bot for v in images[m + 1:]):
            return False
    mask = sum(1 << a for a in atoms)
    for x, down in enumerate(source.B._down):
        acc = bot
        for a in balg._bits(down & mask):
            acc = join[acc][f[a]]
        if acc != f[x]:
            return False
    return True


def validate_bahom(mapping, source, target):
    """validate_bahom on two ``Tables``: the atom check, and on a refusal
    the pair scan over the stored tables."""
    S, T = source.B, target.B
    f = balg._index_map(mapping, S, T, "map", "a source element")
    if f[S._bottom_i] != T._bottom_i:
        raise NotAHomomorphism((S.bottom,), "bottom")
    if preserved_by_atoms(f, source, target):
        return balg.BAHom(S, T, dict(mapping))
    bad = balg._unpreserved(f, source._meet, target._meet, source._join, target._join)
    if bad is None:
        raise AssertionError("the atom check refused a map that preserves every meet and join")
    i, j, k = bad
    raise NotAHomomorphism((S.elements[i], S.elements[j]), ("meet", "join")[k])
