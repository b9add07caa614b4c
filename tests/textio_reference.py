"""The text format as it was before each stanza kind's keys were stated in
one table: the parser, the builder's required-key checks and the printer.

``parse`` is also the parser as it was before identical table lines shared
one id list and before bracketed values without nesting were split in one
pass: its ``_split_top`` merges the pieces of ``str.split`` by bracket depth.
``_KEYS`` (the allowed keys as sets), ``_store`` (one if-chain branch per
key), ``_check_refs`` (one ``from:``/``to:`` loop per morphism kind), the
``_require`` calls of ``_build_stanza`` and ``print_stanza`` (one branch per
kind) are copies of the package's before that change.  Its skew tables
are id rows, as the package's were before it read them into index rows.
Its code is kept unchanged for ``test_parse_reference.py`` (and the table
fuzz that uses it), ``test_key_tables.py`` and ``test_reconstruct.py``'s
printer check; it builds the same ``Stanza`` and ``Document`` objects as
the package.
"""

from skewstone import balg, bset, etale, skew
from skewstone.errors import DuplicateName, ParseError, UnresolvedReference, _band_endpoint
from skewstone.textio import KEYWORDS, Document, Stanza

_KEYS = {
    "balg": {"elements", "leq", "bottom"},
    "skew": {"elements", "zero", "circ", "bullet"},
    "bset": {"stalk", "restrict"},
    "etale": {"total", "base", "proj"},
    "morphism": {"from", "to", "map", "basemap"},
    "relmor": {"from", "to", "phi", "phibar"},
}

_OPEN = "([{"
_CLOSE = ")]}"
_BRACKETS = _OPEN + _CLOSE


def _split_top(value, sep=","):
    """Split at separator occurrences outside any bracket nesting.

    The pieces of ``value.split(sep)`` are merged with their successors
    until the bracket depth (opens minus closes) of the merged run is 0.
    This is exact for the separators used here, none of which holds a
    bracket or overlaps itself."""
    pieces = value.split(sep)
    if not any(ch in value for ch in _BRACKETS):
        return [p.strip() for p in pieces]
    parts, run, depth = [], [], 0
    for piece in pieces:
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
        toks = raw.split()
        if toks[0] not in KEYWORDS:
            raise ParseError(i + 1, raw.index(toks[0]) + 1,
                             f"stanza keyword, one of {', '.join(KEYWORDS)}")
        kind = toks[0]
        if len(toks) < 2 or toks[1] == "{":
            raise ParseError(i + 1, len(kind) + 2, "stanza name")
        name = toks[1]
        over = None
        rest = toks[2:]
        if rest and rest[0] == "over":
            if len(rest) < 2 or rest[1] == "{":
                raise ParseError(i + 1, raw.index("over") + 5, "base name after 'over'")
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
    if stanza.kind == "morphism":
        for key in ("from", "to"):
            if key not in stanza.data:
                raise ParseError(line, 1, f"'{key}:' in a morphism stanza")
            need(stanza.data[key], ("balg", "skew", "bset"))
        if names[stanza.data["from"]].kind != names[stanza.data["to"]].kind:
            raise ParseError(line, 1, "morphism endpoints of the same kind")
    if stanza.kind == "relmor":
        for key in ("from", "to"):
            if key not in stanza.data:
                raise ParseError(line, 1, f"'{key}:' in a relmor stanza")
            need(stanza.data[key], ("etale",))


def _parse_body(lines, i, kind):
    data = {}
    seen = set()  # keys with their arguments, e.g. ("stalk", "a")
    table_key = None
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
            data.setdefault(f"_{table_key}_rows", []).append((stripped.split(), i + 1))
        else:
            raise ParseError(i + 1, 1, "'key: value' line or '}'")
        i += 1
    _finish_tables(data, kind)
    return data, i


def _store(data, kind, key, args, value, line):
    if key in ("elements", "total", "base"):
        data[key] = _ids(value, line)
    elif key == "leq":
        data["leq"] = _pairs(value, "<=", line)
    elif key in ("bottom", "zero", "from", "to"):
        toks = _ids(value, line)
        if len(toks) != 1:
            raise ParseError(line, 1, f"a single id for {key!r}")
        data[key] = toks[0]
    elif key in ("proj", "map", "basemap", "phibar"):
        data[key] = _maplets(_pairs(value, "->", line), key, line)
    elif key == "phi":
        data[key] = _maplets(_arrow_sets(value, line), key, line)
    elif key == "stalk":
        if len(args) != 1:
            raise ParseError(line, 1, "'stalk <base-element>:'")
        data.setdefault("stalks", {})[args[0]] = _ids(value, line)
    elif key == "restrict":
        if len(args) != 3 or args[1] != "->":
            raise ParseError(line, 1, "'restrict <e> -> <f>:'")
        data.setdefault("restrict", {})[(args[0], args[2])] = dict(
            _maplets(_pairs(value, "->", line), " ".join((key, *args)), line)
        )
    elif key in ("circ", "bullet"):
        if value:
            raise ParseError(line, 1, f"table rows on the lines after '{key}:'")
        data[key] = line  # the table replaces it in _finish_tables
    else:  # pragma: no cover
        raise ParseError(line, 1, f"supported key, got {key!r}")


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


def build(document):
    """Validate every stanza in order; returns name -> object."""
    built = {}
    for s in document.stanzas:
        built[s.name] = _build_one(s, built)
    return built


def _require(s, *keys):
    for key in keys:
        if key not in s.data:
            raise ParseError(s.line, 1, f"'{key}:' in {s.kind} stanza {s.name}")


def _build_one(s, built):
    try:
        return _build_stanza(s, built)
    except (ValueError, KeyError) as e:
        raise ValueError(f"{s.kind} {s.name} (line {s.line}): {e}") from e


def _build_stanza(s, built):
    d = s.data
    if s.kind == "balg":
        _require(s, "elements", "leq", "bottom")
        return balg.validate_balg(d["elements"], d["leq"], d["bottom"])
    if s.kind == "skew":
        _require(s, "elements", "circ")
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
        _require(s, "total", "base", "proj")
        return etale.validate_etale(d["total"], d["base"], dict(d["proj"]))
    if s.kind == "morphism":
        _require(s, "map")
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
        _require(s, "phi", "phibar")
        src, tgt = built[d["from"]], built[d["to"]]
        phi = {e: set(ts) for e, ts in d["phi"]}
        return etale.validate_relational_morphism(phi, dict(d["phibar"]), src, tgt)
    raise ValueError(f"unknown stanza kind {s.kind!r}")


def print_stanza(s):
    d = s.data
    head = f"{s.kind} {s.name}"
    if s.over:
        head += f" over {s.over}"
    lines = [head + " {"]
    if s.kind == "balg":
        lines.append(f"  elements: {', '.join(d['elements'])}")
        lines.append(f"  leq: {', '.join(f'{x}<={y}' for x, y in d['leq'])}")
        lines.append(f"  bottom: {d['bottom']}")
    elif s.kind == "skew":
        lines.append(f"  elements: {', '.join(d['elements'])}")
        if d.get("zero") is not None:
            lines.append(f"  zero: {d['zero']}")
        for op in ("circ", "bullet"):
            if d.get(op) is None:
                continue
            lines.append(f"  {op}:")
            lines.append("    " + " ".join(d["elements"]))
            for row in d[op]:
                lines.append("    " + " ".join(row))
    elif s.kind == "bset":
        for e, members in d["stalks"].items():
            lines.append(f"  stalk {e}: {', '.join(members)}")
        for (e, f), m in d["restrict"].items():
            body = ", ".join(f"{x}->{y}" for x, y in m.items())
            lines.append(f"  restrict {e} -> {f}: {body}")
    elif s.kind == "etale":
        lines.append(f"  total: {', '.join(d['total'])}")
        lines.append(f"  base: {', '.join(d['base'])}")
        lines.append(f"  proj: {', '.join(f'{e}->{x}' for e, x in d['proj'])}")
    elif s.kind == "morphism":
        lines.append(f"  from: {d['from']}")
        lines.append(f"  to: {d['to']}")
        lines.append(f"  map: {', '.join(f'{x}->{y}' for x, y in d['map'])}")
        if "basemap" in d:
            lines.append(f"  basemap: {', '.join(f'{x}->{y}' for x, y in d['basemap'])}")
    elif s.kind == "relmor":
        lines.append(f"  from: {d['from']}")
        lines.append(f"  to: {d['to']}")
        body = ", ".join(f"{e}->" + "+".join(ts) for e, ts in d["phi"])
        lines.append(f"  phi: {body}")
        lines.append(f"  phibar: {', '.join(f'{x}->{y}' for x, y in d['phibar'])}")
    lines.append("}")
    return "\n".join(lines)
