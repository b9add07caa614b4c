"""Command line interface: validation, conversion, dualization, reports.

Exit codes: 0 success, 1 validation or property failure (the report names
the law and a witness tuple), 2 parse error.
"""

import argparse
import functools
import sys

from . import balg, bset, dot, duality, etale, laws, skew, textio
from .errors import DocumentError, StructureError


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    return textio.parse(text)


class _Stop(Exception):
    """Ends a command whose report is printed; main returns ``args[0]`` as
    the exit code."""


def _load_named(args):
    """The validated object named ``args.name``, after building, in document
    order, the stanzas it depends on.  A dependency that fails is reported
    as validate reports it, with exit code 1."""
    doc = _load(args.file)
    if args.name not in doc.by_name:
        print(f"no stanza named {args.name!r}")
        raise _Stop(2)
    needed = {args.name}
    for s in reversed(doc.stanzas):  # references point to earlier stanzas
        if s.name in needed:
            needed |= textio.dependencies(s)
    built = {}
    for s in doc.stanzas:
        if s.name in needed:
            try:
                built[s.name] = textio._build_one(s, built)
            except StructureError as e:
                if s.name == args.name:
                    raise
                print(f"{s.kind} {s.name}: FAIL {e}")
                raise _Stop(1) from None
    return built[args.name]


def cmd_validate(args):
    doc = _load(args.file)
    built = {}
    failed = set()
    for s in doc.stanzas:
        if textio.dependencies(s) & failed:
            print(f"{s.kind} {s.name}: skipped (depends on a failed stanza)")
            failed.add(s.name)
            continue
        try:
            built[s.name] = textio._build_one(s, built)
        except StructureError as e:
            print(f"{s.kind} {s.name}: FAIL {e}")
            failed.add(s.name)
            continue
        obj = built[s.name]
        extra = ""
        if isinstance(obj, balg.FinBooleanAlgebra):
            extra = f"{len(obj.elements)} elements, {len(obj.ultrafilters())} ultrafilters"
        elif isinstance(obj, skew.SkewAlgebra):
            extra = f"{len(obj.elements)} elements"
        elif isinstance(obj, bset.BooleanSet):
            extra = f"{len(obj.elements)} elements over {len(obj.base.elements)}"
        elif isinstance(obj, etale.FinEtaleSpace):
            extra = f"{len(obj.total)} points over {len(obj.base)}"
        print(f"{s.kind} {s.name}: ok" + (f" ({extra})" if extra else ""))
    return 1 if failed else 0


def cmd_to_skew(args):
    X = _load_named(args)
    if not isinstance(X, bset.BooleanSet):
        print(f"{args.name!r} is not a bset stanza")
        return 1
    S = bset.to_skew(X)
    print(textio.print_stanza(textio.skew_stanza(S, args.name + "_skew")))
    return 0


def cmd_to_bset(args):
    obj = _load_named(args)
    if isinstance(obj, skew.SkewAlgebra):
        X = bset.from_skew(obj)
    elif isinstance(obj, bset.RightNormalBand):
        X = bset.band_to_bset(obj)
    elif isinstance(obj, etale.FinEtaleSpace):
        return _print_dual_bset(obj, args.name)
    else:
        print(f"{args.name!r} is not a skew, band or etale stanza")
        return 1
    return _print_bset(X, args.name + "_bset", args.name + "_base")


def _print_dual_bset(sp, name):
    return _print_bset(etale.dual_bset(sp), name + "_dual", name + "_dual_base")


def _print_bset(X, name, base_name):
    print(textio.print_stanza(textio.balg_stanza(X.base, base_name)))
    print(textio.print_stanza(textio.bset_stanza(X, name, base_name)))
    return 0


def cmd_dualize(args):
    obj = _load_named(args)
    if isinstance(obj, bset.BooleanSet):
        sp = duality.bset_to_etale(obj)
        print(textio.print_stanza(textio.etale_stanza(sp, args.name + "_dual")))
        return 0
    if isinstance(obj, etale.FinEtaleSpace):
        return _print_dual_bset(obj, args.name)
    print(f"{args.name!r} is not a bset or etale stanza")
    return 1


def cmd_roundtrip(args):
    obj = _load_named(args)
    if isinstance(obj, bset.BooleanSet):
        m = duality.bset_double_dual(obj)
        print(f"alpha: isomorphism ({len(m.mapping)} elements)")
        return 0
    if isinstance(obj, etale.FinEtaleSpace):
        rm = duality.etale_double_dual(obj)
        print(f"beta: isomorphism ({len(rm.phi)} points)")
        return 0
    if isinstance(obj, skew.SkewAlgebra):
        X = bset.from_skew(obj)
        back = bset.to_skew(X)
        if not skew.skew_struct_eq(back, obj):
            print("FAIL skew round trip: tables differ")
            return 1
        print(f"skew round trip: identity ({len(obj.elements)} elements)")
        return 0
    print(f"{args.name!r} has no round trip")
    return 1


def cmd_ultrafilters(args):
    obj = _load_named(args)
    if isinstance(obj, balg.FinBooleanAlgebra):
        for f in obj.ultrafilters():
            members = [e for e in obj.elements if e in f.members]
            print(f"up({f.generator}) = {{{', '.join(members)}}}")
        return 0
    if isinstance(obj, bset.BooleanSet):
        for u in duality.bset_ultrafilters(obj):
            members = [x for x in obj.elements if x in u.members]
            print(f"{u.ident} = {{{', '.join(members)}}} over {u.base_filter.generator}")
        return 0
    print(f"{args.name!r} is not a balg or bset stanza")
    return 1


def cmd_sections(args):
    sp = _load_named(args)
    if not isinstance(sp, etale.FinEtaleSpace):
        print(f"{args.name!r} is not an etale stanza")
        return 1
    if args.over is not None:
        wanted = [x for x in args.over.split(",") if x]
        for x in wanted:
            if x not in sp.base:
                print(f"unknown base point {x!r}")
                return 1
        secs = etale.sections_over(sp, wanted)
        for s in secs:
            print(s.ident)
        return 0
    for s in etale.all_sections(sp):
        over = [x for x in sp.base if x in s.footprint]
        print(f"{s.ident} over {{{','.join(over)}}}")
    return 0


def cmd_check_morphism(args):
    m = _load_named(args)
    if isinstance(m, bset.BSetMorphism):
        print("BM1: ok")
        print("BM2: ok")
        proper = balg.is_proper_hom(m.base_hom)
        print(f"base hom proper: {proper}")
        if proper:
            rep = duality.check_meet_partial_correspondence(m)
            print(rep)
            return 0 if rep.equivalent else 1
        return 0
    if isinstance(m, skew.SkewMorphism):
        print("circ/bullet/zero preservation: ok")
        print(f"wedge-preserving: {skew.is_wedge_morphism(m)}")
        return 0
    if isinstance(m, etale.RelationalMorphism):
        print(f"locally injective: {m.locally_injective}")
        print(f"locally surjective: {m.locally_surjective}")
        print(f"partial map: {m.partial_map}")
        print(f"covering: {m.covering}")
        print(f"continuous: {m.continuous} (finite discrete)")
        print(f"proper: {m.proper} (finite discrete)")
        return 0
    if isinstance(m, balg.BAHom):
        print("meet/join/bottom preservation: ok")
        print(f"proper: {balg.is_proper_hom(m)}")
        return 0
    print(f"{args.name!r} is not a morphism stanza")
    return 1


def _print_report(rep):
    print(rep)
    return 0 if rep.all_ok else 1


def cmd_props(args):
    obj = _load_named(args)
    if isinstance(obj, balg.FinBooleanAlgebra):
        return _print_report(balg.classical_properties_report(obj))
    if isinstance(obj, skew.SkewAlgebra):
        return _print_report(skew.check_consequences(obj))
    if isinstance(obj, bset.BooleanSet):
        rep = duality.check_topology(obj)
        print(rep)
        sheaf = bset.sheaf_condition(obj)
        print(f"{'PASS' if sheaf else 'FAIL'} sheaf_condition")
        print(duality.check_meets_vs_hausdorff(obj))
        return 0 if rep.all_ok and sheaf else 1
    if isinstance(obj, etale.FinEtaleSpace):
        X = etale.dual_bset(obj)
        expected = 1
        for x in obj.base:
            expected *= 1 + len(obj.fibers[x])
        ok = len(X.elements) == expected
        print(f"{'PASS' if ok else 'FAIL'} section_counts "
              f"({len(X.elements)} sections, fibers {[len(obj.fibers[x]) for x in obj.base]})")
        return 0 if ok else 1
    print(f"no property suite for {args.name!r}")
    return 1


def cmd_gen(args):
    sizes = tuple(int(s) for s in args.stalks.split(",") if s)
    if len(sizes) != args.atoms:
        print(f"--atoms {args.atoms} does not match {len(sizes)} stalk sizes")
        return 1
    X = bset.generate_boolean_set(sizes, args.seed)
    print(textio.print_stanza(textio.balg_stanza(X.base, "B")))
    print(textio.print_stanza(textio.bset_stanza(X, "G", "B")))
    return 0


def cmd_export(args):
    obj = _load_named(args)
    print(dot.export(obj, args.name))
    return 0


def cmd_replay(args):
    doc = _load(args.file)
    if args.name not in doc.by_name:
        print(f"no stanza named {args.name!r}")
        return 2
    raw = doc.law_raw(args.name)
    witness = tuple(textio._split_top(args.witness)) if args.witness else ()
    if laws.holds(args.law, raw, witness):
        print(f"not confirmed: {args.law} holds at ({args.witness})")
        return 1
    print(f"confirmed: {args.law} violated at ({args.witness})")
    return 0


@functools.cache
def make_parser():
    """The argument parser, built once per import.  It holds no handlers:
    main runs cmd_x_y for subcommand x-y."""
    p = argparse.ArgumentParser(
        prog="skewstone",
        description="Finite Boolean algebras, skew Boolean algebras, Boolean "
                    "sets and etale spaces, with their dualities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, needs_file=True, needs_name=True):
        sp = sub.add_parser(name)
        if needs_file:
            sp.add_argument("file")
        if needs_name:
            sp.add_argument("name")
        return sp

    add("validate", needs_name=False)
    add("to-skew")
    add("to-bset")
    add("dualize")
    add("roundtrip")
    add("ultrafilters")
    sec = add("sections")
    sec.add_argument("--over", default=None, help="comma-separated base points")
    add("check-morphism")
    add("props")
    gen = add("gen", needs_file=False, needs_name=False)
    gen.add_argument("--atoms", type=int, required=True)
    gen.add_argument("--stalks", required=True)
    gen.add_argument("--seed", type=int, default=None)
    add("export")
    rep = add("replay")
    rep.add_argument("--law", required=True)
    rep.add_argument("--witness", required=True)
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except _Stop as e:
        return e.args[0]
    except DocumentError as e:
        print(f"parse error: {e}")
        return 2
    except StructureError as e:
        print(f"FAIL {e}")
        return 1
    except (ValueError, KeyError) as e:
        print(f"document error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
