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
brackets is read by one pattern (_pairs).  Identical table lines of a
stanza are split once and share one id list, and ``skew.validate_skew``
indexes each distinct row once, so equal rows share one index row too.  Parsed and index tables are
therefore read-only: an edit in place would change every row sharing the
list.  Morphism and relmor stanzas name their
endpoints with "from:"/"to:" body keys; every reference must resolve to an
earlier stanza, and a right normal band is no morphism endpoint.  Output ordering is the input order of ids everywhere.
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
            return {
                "kind": "skew",
                "elements": s.data["elements"],
                "zero": s.data.get("zero"),
                "circ": s.data["circ"],
                "bullet": s.data.get("bullet"),
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
        data, i = _parse_body(lines, i, kind)
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


def _parse_body(lines, i, kind):
    data = {}
    seen = set()  # keys with their arguments, e.g. ("stalk", "a")
    table_key = None
    split_rows = {}  # stripped table line -> its ids, one list per distinct line
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
            table_key = None
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
            if key in ("circ", "bullet") and not value.strip():
                table_key = key
        elif table_key is not None:
            row = split_rows.get(stripped)
            if row is None:
                row = split_rows[stripped] = stripped.split()
            data.setdefault(f"_{table_key}_rows", []).append((row, i + 1))
        else:
            raise ParseError(i + 1, 1, "'key: value' line or '}'")
        i += 1
    _finish_tables(data, kind)
    return data, i


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
    else:  # circ, bullet
        if value:
            raise ParseError(line, 1, f"table rows on the lines after '{key}:'")
        data[key] = line  # the table replaces it in _finish_tables


def _finish_tables(data, kind):
    if kind != "skew":
        return
    for op in ("circ", "bullet"):
        rows = data.pop(f"_{op}_rows", None)
        if isinstance(data.get(op), int):
            if not rows:
                raise ParseError(data[op], 1, f"table rows after '{op}:'")
            header, hline = rows[0]
            elements = data.get("elements", ())
            if sorted(header) != sorted(elements):
                raise ParseError(hline, 1, "header row listing every element id")
            if len(rows) != len(header) + 1:
                raise ParseError(hline, 1, f"{len(header)} table rows after the header")
            row_of = {}
            for x, (row, rline) in zip(header, rows[1:]):
                if len(row) != len(header):
                    raise ParseError(rline, 1, f"{len(header)} entries in the row")
                row_of[x] = row
            if header == elements and len(row_of) == len(header):
                data[op] = [row for row, _ in rows[1:]]  # already in element order
            else:
                pos = {e: k for k, e in enumerate(header)}
                data[op] = [
                    [row_of[x][pos[y]] for y in elements] for x in elements
                ]


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


def _build_stanza(s, built):
    d = s.data
    for key in _REQUIRED[s.kind]:
        if key not in d:
            raise ParseError(s.line, 1, f"'{key}:' in {s.kind} stanza {s.name}")
    if s.kind == "balg":
        return balg.validate_balg(d["elements"], d["leq"], d["bottom"])
    if s.kind == "skew":
        if d.get("bullet") is None:
            return bset.validate_band(d["elements"], d["circ"])
        if "zero" not in d:
            raise ParseError(s.line, 1, "'zero:' in a skew stanza with both tables")
        return skew.validate_skew(d["elements"], d["circ"], d["bullet"], d["zero"])
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
            lines.append(f"  {key}:")
            lines += ["    " + " ".join(row) for row in (d["elements"], *d[key])]
    lines.append("}")
    return "\n".join(lines)


# -------------------------------------------------- stanzas from built objects

def balg_stanza(B, name):
    return Stanza("balg", name, None, {
        "elements": list(B.elements),
        "leq": [(lo, hi) for hi, lo in B.cover_pairs],
        "bottom": B.bottom,
    }, 0)


def _id_rows(els, table):
    """The index rows of ``table`` as ids, each distinct row object converted
    once: rows that share an index list share one id list."""
    out, done = [], {}
    for row in table:
        ids = done.get(id(row))
        if ids is None:
            ids = done[id(row)] = [els[k] for k in row]
        out.append(ids)
    return out


def skew_stanza(S, name):
    els = S.elements
    return Stanza("skew", name, None, {
        "elements": list(els),
        "zero": S.zero,
        "circ": _id_rows(els, S.circ_t),
        "bullet": _id_rows(els, S.bullet_t),
    }, 0)


def bset_stanza(X, name, base_name):
    return Stanza("bset", name, base_name, {
        "stalks": {e: list(X.stalks[e]) for e in X.base.elements},
        "restrict": {
            (e, f): {x: X.cover_maps[(e, f)][x] for x in X.stalks[e]}
            for e, f in X.base.cover_pairs
        },
    }, 0)


def etale_stanza(sp, name):
    return Stanza("etale", name, None, {
        "total": list(sp.total),
        "base": list(sp.base),
        "proj": [(e, sp.proj[e]) for e in sp.total],
    }, 0)
