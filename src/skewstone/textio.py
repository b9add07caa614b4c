"""Line-oriented text format for the structures.

Grammar (normative):
    stanza  = keyword name ["over" name] "{" body "}"
    keyword = balg | skew | bset | etale | morphism | relmor
    body    = lines of "key: value" with comma-separated tokens
    leq     = "x<=y" pairs; the reflexive-transitive closure is implied
    stalk   = "stalk e: x, y" per base element
    restrict= "restrict e -> f: x->y, ..." on Hasse covers only
    circ / bullet = row-major tables on the following lines, first a header
        row of element ids fixing row and column order, then one row per id
    relmor  = "phi: e->f1+f2, ..." (empty image allowed), "phibar: x->y, ..."
    "#" starts a comment; ids are whitespace-free and may not contain ":".
    A key appears at most once per stanza (stalk and restrict once per
    argument list), and a map-valued list (proj, map, basemap, phi, phibar,
    a restrict body) names each left-hand id at most once; leq pairs may
    repeat.

Separators split only at bracket depth zero, so ids like "(a1,b1)" or
"{e1,e3}" pass through unharmed; a value whose brackets do not nest is split
in one pass (_split_top), and a "->" or "<=" pair list whose ids nest no
brackets is read by one pattern (_pairs).

A skew stanza's "circ" and "bullet" data are index rows, the form that
``SkewAlgebra.circ_t``/``bullet_t`` keep: row x holds the position in
"elements" of x∘y for each y, in element order.  One reader takes every line
of a table (_TableReader.read_rows): each line is split once and its
tokens mapped through the header's position dict, and identical lines of a
table share one index row, which the algebra keeps.  Parsed and index tables are therefore read-only: an edit in
place would change every row sharing the list.  Ids are made only where they
are read, by ``Document.law_raw`` and ``print_stanza`` (_id_rows).  An entry
that is not an element id stays in its row as that id, and the table
(_StrayRows) keeps the first one in element order for the build step to
name.

Morphism and relmor stanzas name their endpoints with "from:"/"to:" body
keys; every reference must resolve to an earlier stanza, and a right normal
band is no morphism endpoint.  Output ordering is the input order of ids
everywhere.
"""

import re
from dataclasses import dataclass, field

from . import balg, bset, etale, skew
from .errors import DuplicateName, ParseError, UnresolvedReference, _band_endpoint

KEYWORDS = ("balg", "skew", "bset", "etale", "morphism", "relmor")

# the keys of each stanza kind, in print order
_KEYS = {
    "balg": ("elements", "leq", "bottom"),
    "skew": ("elements", "zero", "circ", "bullet"),
    "bset": ("stalk", "restrict"),
    "etale": ("total", "base", "proj"),
    "morphism": ("from", "to", "map", "basemap"),
    "relmor": ("from", "to", "phi", "phibar"),
}
# the keys a stanza must hold to be built ("zero:" only when both tables are)
_REQUIRED = {
    "balg": ("elements", "leq", "bottom"),
    "skew": ("elements", "circ"),
    "bset": (),
    "etale": ("total", "base", "proj"),
    "morphism": ("map",),
    "relmor": ("phi", "phibar"),
}
# the stanza kinds that the "from:" and "to:" of each morphism kind may name
_ENDPOINTS = {"morphism": ("balg", "skew", "bset"), "relmor": ("etale",)}

_OPEN = "([{"
_CLOSE = ")]}"
_BRACKETS = _OPEN + _CLOSE
_OUTSIDE = r"[^()\[\]{}]*"
# brackets that never nest (each one opened is closed before the next opens),
# between runs of at most 128 other characters, which bounds the lookahead of
# _TOP_SEP; a value with a longer run goes to the merge loop, which is linear
_RUN = r"[^()\[\]{}]{0,128}"
_FLAT = re.compile(_RUN + r"(?:[(\[{]" + _RUN + r"[)\]}]" + _RUN + ")*")
# on a flat value, a separator is at depth 0 iff the next bracket opens or there is none
_TOP_SEP = {
    sep: re.compile(re.escape(sep) + "(?=" + _OUTSIDE + r"(?:[(\[{]|\Z))")
    for sep in (",", "->", "<=", "+")
}


def _pair_pattern(sep):
    """The pattern of one chunk of a ``sep`` pair list: "x sep y" with the
    spaces around it, then the comma and any empty chunks after it, or the
    end; the first chunk also takes the empty chunks before it.  An id is a
    run of plain characters (no space, comma or bracket, and no ``sep``
    starting at one) and of bracket groups that do not nest.  Where the
    matches cover a value with nothing between them, its commas and the
    one ``sep`` of each pair are exactly those at bracket depth 0, so the
    ids are what _split_top reads.

    Such matches start at 0 or after a space or comma, so no other start is
    tried, and each id is one character or group per repetition: a value
    the pattern does not cover costs linear time, not quadratic or worse."""
    head, tail = re.escape(sep[0]), re.escape(sep[1:])
    ident = (r"(?:[^\s,()\[\]{}" + head + "]|" + head + "(?!" + tail + r")"
             r"|[(\[{][^()\[\]{}]*[)\]}])+")
    return re.compile(r"(?:\A[\s,]*|(?<=[\s,]))(" + ident + r")\s*" + re.escape(sep)
                      + r"\s*(" + ident + r")\s*(?:,[\s,]*|\Z)")


_PAIR = {sep: _pair_pattern(sep) for sep in ("->", "<=")}


@dataclass
class Stanza:
    kind: str
    name: str
    over: str | None
    data: dict
    line: int


@dataclass
class Document:
    stanzas: list
    by_name: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_name:
            self.by_name = {s.name: s for s in self.stanzas}

    def law_raw(self, name):
        """The raw shape consumed by skewstone.laws, base inlined for bsets."""
        s = self.by_name[name]
        if s.kind == "balg":
            return {"kind": "balg", **{k: s.data[k] for k in ("elements", "leq", "bottom")}}
        if s.kind == "skew":
            els, bullet = s.data["elements"], s.data.get("bullet")
            return {
                "kind": "skew",
                "elements": els,
                "zero": s.data.get("zero"),
                "circ": _id_rows(els, s.data["circ"], "circ"),
                "bullet": None if bullet is None else _id_rows(els, bullet, "bullet"),
            }
        if s.kind == "bset":
            return {
                "kind": "bset",
                "base": self.law_raw(s.over),
                "stalks": s.data.get("stalks", {}),
                "restrict": s.data.get("restrict", {}),
            }
        raise ValueError(f"no law view for stanza kind {s.kind!r}")


def _split_top(value, sep=","):
    """Split at separator occurrences outside any bracket nesting.

    A value without brackets is split by ``str.split``, and a value whose
    brackets never nest, with short runs between them (_FLAT), by one
    ``re.split`` at the separators followed by an opening bracket or by no
    bracket (_TOP_SEP).
    Any other value splits into the pieces of ``value.split(sep)``, each
    merged with its successors until the bracket depth (opens minus closes)
    of the merged run is 0.  This is exact for the separators used here,
    none of which holds a bracket or overlaps itself."""
    if not any(ch in value for ch in _BRACKETS):
        return [p.strip() for p in value.split(sep)]
    if _FLAT.fullmatch(value):
        return [p.strip() for p in _TOP_SEP[sep].split(value)]
    parts, run, depth = [], [], 0
    for piece in value.split(sep):
        run.append(piece)
        depth += sum(map(piece.count, _OPEN)) - sum(map(piece.count, _CLOSE))
        if depth == 0:
            parts.append(sep.join(run).strip())
            run = []
    if run:
        parts.append(sep.join(run).strip())
    return parts


def _ids(value, line):
    if not value.strip():
        return []
    out = []
    for chunk in _split_top(value):
        if not chunk or " " in chunk:
            raise ParseError(line, 1, f"an id, got {chunk!r}")
        out.append(chunk)
    return out


def _pairs(value, sep, line):
    """The (x, y) pairs of a ``sep`` list: by one ``re.split`` at _PAIR[sep]
    when its matches cover the whole value (every piece between them is
    empty), else chunk by chunk (_split_top), which also names the first
    malformed chunk."""
    parts = _PAIR[sep].split(value)
    if len(parts) > 1 and not any(parts[::3]):
        return list(zip(parts[1::3], parts[2::3]))
    out = []
    for chunk in _split_top(value):
        if not chunk:
            continue
        sides = _split_top(chunk, sep)
        if len(sides) != 2 or not sides[0] or not sides[1]:
            raise ParseError(line, 1, f"'x{sep}y' pair, got {chunk!r}")
        out.append((sides[0], sides[1]))
    return out


def _arrow_sets(value, line):
    out = []
    for chunk in _split_top(value):
        if not chunk:
            continue
        sides = _split_top(chunk, "->")
        if len(sides) != 2 or not sides[0]:
            raise ParseError(line, 1, f"'e->f1+f2' entry, got {chunk!r}")
        targets = [t for t in _split_top(sides[1], "+") if t]
        out.append((sides[0], targets))
    return out


def _maplets(entries, key, line):
    """The entries of a map-valued list, each left-hand id at most once."""
    seen = set()
    for x, _ in entries:
        if x in seen:
            raise ParseError(line, 1, f"one entry for {x!r} in '{key}:'")
        seen.add(x)
    return entries


def _strip(line):
    return line.split("#", 1)[0].rstrip()


def parse(text):
    """Parse a document; the first problem raises with line and column."""
    lines = text.splitlines()
    stanzas = []
    names = {}
    i = 0
    while i < len(lines):
        raw = _strip(lines[i])
        if not raw.strip():
            i += 1
            continue
        found = list(re.finditer(r"\S+", raw))
        toks = [m.group() for m in found]
        if toks[0] not in KEYWORDS:
            raise ParseError(i + 1, found[0].start() + 1,
                             f"stanza keyword, one of {', '.join(KEYWORDS)}")
        kind = toks[0]
        if len(toks) < 2 or toks[1] == "{":
            raise ParseError(i + 1, len(kind) + 2, "stanza name")
        name = toks[1]
        over = None
        rest = toks[2:]
        if rest and rest[0] == "over":
            if len(rest) < 2 or rest[1] == "{":
                col = found[3].start() + 1 if len(rest) > 1 else len(raw) + 1
                raise ParseError(i + 1, col, "base name after 'over'")
            over = rest[1]
            rest = rest[2:]
        if rest != ["{"]:
            raise ParseError(i + 1, len(raw), "'{' ending the stanza header")
        if name in names:
            raise DuplicateName(name, i + 1)
        header_line = i + 1
        i += 1
        data, tables, i = _parse_body(lines, i, kind)
        _finish_tables(data, tables, name, header_line)
        stanza = Stanza(kind, name, over, data, header_line)
        _check_refs(stanza, names, header_line)
        names[name] = stanza
        stanzas.append(stanza)
    return Document(stanzas)


def _check_refs(stanza, names, line):
    def need(ref, kinds):
        if ref not in names:
            raise UnresolvedReference(ref, line)
        if names[ref].kind not in kinds:
            raise ParseError(line, 1, f"{'/'.join(kinds)} stanza named {ref!r}")

    if stanza.kind == "bset":
        if stanza.over is None:
            raise ParseError(line, 1, "'over <balg>' in a bset header")
        need(stanza.over, ("balg",))
    if stanza.kind in _ENDPOINTS:
        for key in ("from", "to"):
            if key not in stanza.data:
                raise ParseError(line, 1, f"'{key}:' in a {stanza.kind} stanza")
            need(stanza.data[key], _ENDPOINTS[stanza.kind])
        if names[stanza.data["from"]].kind != names[stanza.data["to"]].kind:
            raise ParseError(line, 1, "morphism endpoints of the same kind")


class _TableReader:
    """One circ or bullet table as it is read (read_rows): the header row's
    ids and position dict, then each row as the header positions of its
    tokens, with its line number.  ``known`` maps a line's text, stripped of
    its comment, to the row of its tokens, so identical lines are split once
    and share one row.  A token the header lacks stays in its row as that
    token, and sets ``strays``."""

    __slots__ = ("line", "header", "hline", "pos", "rows", "lines", "known", "strays")

    def __init__(self, line):
        self.line = line  # of the "circ:" or "bullet:" key
        self.header = self.hline = self.pos = None
        self.rows, self.lines, self.known, self.strays = [], [], {}, False

    def _index(self, toks):
        try:
            return list(map(self.pos.__getitem__, toks))
        except KeyError:
            self.strays = True
            return [self.pos.get(t, t) for t in toks]

    def read_rows(self, lines, i):
        """Read the table from line i on, each line stripped of its comment:
        blank lines are skipped, the first other line is the header row and
        each further one a row, up to a line with ":" (a key) or a lone "}".
        Returns the index of that line, which the caller reads."""
        known, rows, at, index = self.known, self.rows, self.lines, self._index
        end = len(lines)
        while i < end:
            text = lines[i]
            if "#" in text:
                text = text.split("#", 1)[0]
            row = known.get(text)
            if row is None:
                if ":" in text:
                    break
                toks = text.split()
                if not toks:
                    i += 1
                    continue
                if toks == ["}"]:
                    break
                if self.header is None:
                    self.header, self.hline = toks, i + 1
                    self.pos = {e: k for k, e in enumerate(toks)}
                    i += 1
                    continue
                row = known[text] = index(toks)
            rows.append(row)
            i += 1
            at.append(i)
        return i


def _parse_body(lines, i, kind):
    """The data of the stanza body from line i on, the _TableReader of each
    table key, and the index of the line after the closing "}"."""
    data = {}
    seen = set()  # keys with their arguments, e.g. ("stalk", "a")
    tables = {}
    while True:
        if i >= len(lines):
            raise ParseError(len(lines), 1, "'}' closing the stanza")
        raw = _strip(lines[i])
        stripped = raw.strip()
        if not stripped:
            i += 1
            continue
        if stripped == "}":
            i += 1
            break
        if ":" in raw:
            head, value = raw.split(":", 1)
            head_toks = head.split()
            if not head_toks:
                raise ParseError(i + 1, 1, "a key before ':'")
            key = head_toks[0]
            if key not in _KEYS[kind]:
                raise ParseError(i + 1, raw.index(key) + 1,
                                 f"one of {sorted(_KEYS[kind])} in a {kind} stanza")
            if tuple(head_toks) in seen:
                raise ParseError(i + 1, raw.index(key) + 1,
                                 f"one {' '.join(head_toks)!r} line in a {kind} stanza")
            seen.add(tuple(head_toks))
            _store(data, kind, key, head_toks[1:], value.strip(), i + 1)
            if key in ("circ", "bullet"):
                table = tables[key] = _TableReader(i + 1)
                i = table.read_rows(lines, i + 1)
                continue
        else:
            raise ParseError(i + 1, 1, "'key: value' line or '}'")
        i += 1
    return data, tables, i


def _one_id(value, key, line):
    toks = _ids(value, line)
    if len(toks) != 1:
        raise ParseError(line, 1, f"a single id for {key!r}")
    return toks[0]


def _read_map(value, key, line):
    return _maplets(_pairs(value, "->", line), key, line)


def _write_map(entries):
    return ", ".join(f"{x}->{y}" for x, y in entries)


_IDS = (lambda value, key, line: _ids(value, line), ", ".join)
_ID = (_one_id, str)
_MAP = (_read_map, _write_map)
# the reader and the writer of each key whose value is the rest of its line
_PLAIN = {
    "elements": _IDS, "total": _IDS, "base": _IDS,
    "bottom": _ID, "zero": _ID, "from": _ID, "to": _ID,
    "proj": _MAP, "map": _MAP, "basemap": _MAP, "phibar": _MAP,
    "leq": (lambda value, key, line: _pairs(value, "<=", line),
            lambda pairs: ", ".join(f"{x}<={y}" for x, y in pairs)),
    "phi": (lambda value, key, line: _maplets(_arrow_sets(value, line), key, line),
            lambda entries: ", ".join(f"{e}->" + "+".join(ts) for e, ts in entries)),
}


def _store(data, kind, key, args, value, line):
    if key in _PLAIN:
        data[key] = _PLAIN[key][0](value, key, line)
    elif key == "stalk":
        if len(args) != 1:
            raise ParseError(line, 1, "'stalk <base-element>:'")
        data.setdefault("stalks", {})[args[0]] = _ids(value, line)
    elif key == "restrict":
        if len(args) != 3 or args[1] != "->":
            raise ParseError(line, 1, "'restrict <e> -> <f>:'")
        data.setdefault("restrict", {})[(args[0], args[2])] = dict(
            _read_map(value, " ".join((key, *args)), line))
    elif value:  # circ, bullet: _finish_tables stores the table
        raise ParseError(line, 1, f"table rows on the lines after '{key}:'")


def _finish_tables(data, tables, name, line):
    """Check each table read for the skew stanza ``name`` (header line
    ``line``) and store it in ``data`` as index rows in element order, each
    problem raised at its line."""
    for op in ("circ", "bullet"):
        t = tables.get(op)
        if t is None:
            continue
        if t.header is None:
            raise ParseError(t.line, 1, f"table rows after '{op}:'")
        if "elements" not in data:
            raise ParseError(line, 1, f"'elements:' in skew stanza {name}")
        header, elements = t.header, data["elements"]
        n = len(header)
        if sorted(header) != sorted(elements):
            raise ParseError(t.hline, 1, "header row listing every element id")
        if len(t.rows) != n:
            raise ParseError(t.hline, 1, f"{n} table rows after the header")
        for row, rline in zip(t.rows, t.lines):
            if len(row) != n:
                raise ParseError(rline, 1, f"{n} entries in the row")
        if header == elements and len(t.pos) == n:
            table = t.rows  # already in element order
        else:
            # the row and column of element x are those of its last header
            # position, and an entry's header position becomes its element's
            where = {e: k for k, e in enumerate(elements)}
            to_el = [where[e] for e in header]
            take = [t.pos[e] for e in elements]
            table = [[v if isinstance(v, str) else to_el[v]
                      for v in map(t.rows[r].__getitem__, take)] for r in take]
        # a repeated id's rows and columns but its last are left out
        stray = t.strays and next((v for row in table for v in row if isinstance(v, str)), None)
        if stray:
            table = _StrayRows(table)
            table.stray = stray
        data[op] = table


class _StrayRows(list):
    """The index rows of a parsed table that holds entries which are not
    element ids: each such entry stays in its row as that id, and ``stray``
    is the first one in element order, for the build step to name."""

    __slots__ = ("stray",)


# ------------------------------------------------------------------ building

def dependencies(s):
    """The names of the stanzas that stanza s is built from: its base and
    its morphism endpoints."""
    return {s.over, s.data.get("from"), s.data.get("to")} - {None}


def build(document):
    """Validate every stanza in order; returns name -> object."""
    built = {}
    for s in document.stanzas:
        built[s.name] = _build_one(s, built)
    return built


def _build_one(s, built):
    """Validate stanza s; a ValueError or KeyError is raised again as a
    ValueError that names the stanza and its line."""
    try:
        return _build_stanza(s, built)
    except (ValueError, KeyError) as e:
        raise ValueError(f"{s.kind} {s.name} (line {s.line}): {e}") from e


def _index_table(d, op):
    """The index rows of table ``op``.  The first entry that is not an
    element id, when the parser kept one, raises as validate_skew would; a
    table whose first row holds ids (a hand-built table of ids) raises as
    _id_rows does."""
    t = d[op]
    if isinstance(t, _StrayRows):
        raise skew._not_an_element(op, t.stray)
    if t:
        bad = next((v for v in t[0] if v.__class__ is not int), None)
        if bad is not None:
            raise _not_a_position(op, bad)
    return t


def _not_a_position(op, entry):
    return ValueError(f"{op} entry {entry!r} is not an element position: "
                      "the tables of a skew stanza are index rows")


def _build_stanza(s, built):
    d = s.data
    for key in _REQUIRED[s.kind]:
        if key not in d:
            raise ParseError(s.line, 1, f"'{key}:' in {s.kind} stanza {s.name}")
    if s.kind == "balg":
        return balg.validate_balg(d["elements"], d["leq"], d["bottom"])
    if s.kind == "skew":
        # the checks of validate_band and validate_skew, in their order, on
        # the index rows the parser made
        if d.get("bullet") is None:
            elements, index = balg._index_elements(d["elements"])
            return bset._band_of_index(elements, index, _index_table(d, "circ"))
        if "zero" not in d:
            raise ParseError(s.line, 1, "'zero:' in a skew stanza with both tables")
        elements, index = balg._index_elements(d["elements"])
        z = skew._zero_index(index, d["zero"])
        circ, bullet = _index_table(d, "circ"), _index_table(d, "bullet")
        return skew._validate_index(elements, index, circ, bullet, z)
    if s.kind == "bset":
        base = built[s.over]
        P = bset.validate_presheaf(base, d.get("stalks", {}), d.get("restrict", {}))
        return bset.validate_boolean_set(P)
    if s.kind == "etale":
        return etale.validate_etale(d["total"], d["base"], dict(d["proj"]))
    if s.kind == "morphism":
        src, tgt = built[d["from"]], built[d["to"]]
        for end in (d["from"], d["to"]):
            if isinstance(built[end], bset.RightNormalBand):
                raise _band_endpoint(f"endpoint {end!r}")
        mapping = dict(d["map"])
        if isinstance(src, balg.FinBooleanAlgebra):
            return balg.validate_bahom(mapping, src, tgt)
        if isinstance(src, skew.SkewAlgebra):
            return skew.validate_skew_morphism(mapping, src, tgt)
        basemap = dict(d["basemap"]) if "basemap" in d else None
        return bset.validate_bset_morphism(mapping, basemap, src, tgt)
    if s.kind == "relmor":
        src, tgt = built[d["from"]], built[d["to"]]
        phi = {e: set(ts) for e, ts in d["phi"]}
        return etale.validate_relational_morphism(phi, dict(d["phibar"]), src, tgt)
    raise ValueError(f"unknown stanza kind {s.kind!r}")  # pragma: no cover


# ------------------------------------------------------------------ printing

def print_document(document):
    return "\n".join(print_stanza(s) for s in document.stanzas)


def print_stanza(s):
    """The stanza's text: each key it holds, in the order of its kind's keys."""
    d = s.data
    head = f"{s.kind} {s.name}"
    if s.over:
        head += f" over {s.over}"
    lines = [head + " {"]
    for key in _KEYS[s.kind]:
        if key == "stalk":
            lines += [f"  stalk {e}: {', '.join(m)}" for e, m in d.get("stalks", {}).items()]
        elif key == "restrict":
            lines += [f"  restrict {e} -> {f}: {_write_map(m.items())}"
                      for (e, f), m in d.get("restrict", {}).items()]
        elif d.get(key) is None:
            continue
        elif key in _PLAIN:
            lines.append(f"  {key}: {_PLAIN[key][1](d[key])}")
        else:  # circ, bullet: a header row, then one row per element
            rows = _id_rows(d["elements"], d[key], key)
            # one line per distinct row object: _id_rows shares them per R class
            text = {k: "    " + " ".join(row) for k, row in {id(r): r for r in rows}.items()}
            lines += [f"  {key}:", "    " + " ".join(d["elements"]),
                      *map(text.__getitem__, map(id, rows))]
    lines.append("}")
    return "\n".join(lines)


# -------------------------------------------------- stanzas from built objects

def balg_stanza(B, name):
    return Stanza("balg", name, None, {
        "elements": list(B.elements),
        "leq": [(lo, hi) for hi, lo in B.cover_pairs],
        "bottom": B.bottom,
    }, 0)


def _id_rows(els, table, op):
    """The index rows of table ``op`` as ids, each distinct row object
    converted once: rows that share an index list share one id list.  An
    entry the parser kept as an id (not an element's, _StrayRows) is that
    id; any other entry that is not a position raises."""
    strays = isinstance(table, _StrayRows)
    out, done = [], {}
    for row in table:
        ids = done.get(id(row))
        if ids is None:
            try:
                ids = done[id(row)] = (
                    [k if k.__class__ is str else els[k] for k in row] if strays
                    else list(map(els.__getitem__, row)))
            except TypeError:
                raise _not_a_position(op, next(
                    k for k in row if k.__class__ is not int)) from None
        out.append(ids)
    return out


def skew_stanza(S, name):
    els = S.elements
    return Stanza("skew", name, None, {
        "elements": list(els),
        "zero": S.zero,
        "circ": S.circ_t,
        "bullet": S.bullet_t,
    }, 0)


def bset_stanza(X, name, base_name):
    return Stanza("bset", name, base_name, {
        "stalks": {e: list(X.stalks[e]) for e in X.base.elements},
        "restrict": {
            (e, f): {x: X._rest[x][f] for x in X.stalks[e]}
            for e, f in X.base.cover_pairs
        },
    }, 0)


def etale_stanza(sp, name):
    return Stanza("etale", name, None, {
        "total": list(sp.total),
        "base": list(sp.base),
        "proj": [(e, sp.proj[e]) for e in sp.total],
    }, 0)
