"""Recorded stdout and exit codes of CLI commands, compared line for line.

``cli_pinned.json`` holds the output of every command listed by
``commands()``: ``to-bset``, ``export``, ``check-morphism`` and ``props`` on
every stanza of ``docs/*.txt``, ``to-bset``/``export`` on generated
Boolean-set, skew, band and etale documents (seeded band mutants included),
``gen`` for four shapes, the duality commands on the generated Boolean set
and on an etale space whose total order interleaves its fibers,
``dualize`` and ``roundtrip`` on a five-point etale space, ``props``
on the generated skew algebra, ``check-morphism`` on two skew
morphisms (the identity of the generated skew algebra, and the skew
counterpart of ``docs/showcase.txt``'s ``collapse``), and ``props`` on the
256-element generated Boolean set (stalks 3,3,3,3) and on the dual of a
generated 72-section etale space, then the refusals of a missing stanza
name, of stanzas of the wrong kind and of an unknown ``sections --over``
base point, and ``check-morphism`` of a Boolean-set morphism whose base
hom is not proper and of two that break BM2 and BM1; last, ``validate``
on each refused document of ``test_cli.REFUSED`` and ``replay`` of each
FAIL line among them.  To record it again,
from the repository root:

    PYTHONPATH=src python tests/test_cli_pinned.py --record tests/cli_pinned.json
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import skewstone
from skewstone import bset, cli, etale, textio

import mutation_engine as me
from test_cli import REFUSED, REPLAYS

HERE = Path(__file__).resolve().parent
DOCS = HERE.parent / "docs"
SHOWCASE = DOCS / "showcase.txt"
RECORDED = HERE / "cli_pinned.json"
BAND_MUTANTS = 6
GEN_SHAPES = [("2", "3,1", None), ("4", "1,1,3,3", "4"), ("3", "2,1,2", "0"),
              ("5", "1,2,1,2,1", "3")]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def band_text(band, name):
    return textio.print_stanza(textio.Stanza("skew", name, None, {
        "elements": list(band.elements),
        "circ": band.table,
    }, 0)) + "\n"


def etale_text(fibers, seed, name):
    """An etale stanza over u0, u1, ... with the given fiber sizes; the
    seed shuffles the total order, so it interleaves the fibers."""
    proj = {f"e{i}{k}": f"u{i}" for i, s in enumerate(fibers) for k in range(s)}
    total = list(proj)
    random.Random(seed).shuffle(total)
    sp = etale.validate_etale(total, [f"u{i}" for i in range(len(fibers))], proj)
    return textio.print_stanza(textio.etale_stanza(sp, name)) + "\n"


# a Boolean-set morphism over a base hom that does not map the top to the
# top; appended to docs/prod.txt, check-morphism only (see commands)
NONPROPER = """balg B2 {
  elements: 0, 1
  leq: 0<=1
  bottom: 0
}
bset X3 over B2 {
  stalk 0: 0
  stalk 1: x1, x2
  restrict 1 -> 0: x1->0, x2->0
}
morphism embed {
  from: X3
  to: Prod
  map: 0->0, x1->a1, x2->a2
  basemap: 0->0, 1->a
}
"""


def write_documents(root):
    """Generated documents, written under ``root``; name -> stanza names."""
    root = Path(root)
    docs = {}
    _, gen = run(["gen", "--atoms", "3", "--stalks", "2,2,2", "--seed", "7"])
    (root / "gen.txt").write_text(gen)
    docs["gen.txt"] = ["B", "G"]
    _, skew_doc = run(["to-skew", str(root / "gen.txt"), "G"])
    (root / "skew.txt").write_text(skew_doc)
    docs["skew.txt"] = ["G_skew"]
    b4 = bset.generate_boolean_set((1, 1)).base
    sources = {
        "band222": bset.generate_boolean_set((2, 2, 2), seed=3),
        "band1133": bset.generate_boolean_set((1, 1, 3, 3), seed=4),
        "bandconst": bset.constant_bset(b4),
    }
    rng = random.Random(11)
    (root / "chain3.txt").write_text(band_text(bset.validate_band(
        ["0", "m", "1"], [["0", "0", "0"], ["0", "m", "m"], ["0", "m", "1"]]), "S"))
    docs["chain3.txt"] = ["S"]
    # global support over B4, but t1 and t2 are two least bounds of a1, b1
    no_join = bset.validate_presheaf(
        b4, {"0": ["z"], "a": ["a1"], "b": ["b1"], "1": ["t1", "t2"]},
        {("1", "a"): {"t1": "a1", "t2": "a1"}, ("1", "b"): {"t1": "b1", "t2": "b1"},
         ("a", "0"): {"a1": "z"}, ("b", "0"): {"b1": "z"}})
    (root / "nojoin.txt").write_text(band_text(bset.presheaf_to_band(no_join), "S"))
    docs["nojoin.txt"] = ["S"]
    for tag, X in sources.items():
        band = bset.presheaf_to_band(X)
        (root / f"{tag}.txt").write_text(band_text(band, "S"))
        docs[f"{tag}.txt"] = ["S"]
        els = list(band.elements)
        rows = [[band.circ(x, y) for y in els] for x in els]
        raw = {"kind": "skew", "elements": els, "zero": None, "circ": rows, "bullet": rows}
        for m in range(BAND_MUTANTS):
            mutant = raw
            while mutant["circ"] == rows:  # an edit of the bullet copy
                mutant = me.mutate_skew(raw, rng)
            text = textio.print_stanza(textio.Stanza("skew", "S", None, {
                "elements": els, "circ": me.index_rows(els, mutant["circ"])}, 0)) + "\n"
            (root / f"{tag}_m{m}.txt").write_text(text)
            docs[f"{tag}_m{m}.txt"] = ["S"]
    (root / "etale.txt").write_text(etale_text((2, 1, 3), 2, "E"))
    docs["etale.txt"] = ["E"]
    # dualize and roundtrip only (see commands)
    (root / "etale5.txt").write_text(etale_text((2, 1, 3, 1, 2), 9, "P"))
    (root / "skewmor.txt").write_text(skew_morphisms_text(skew_doc))
    # props only (see commands)
    _, gen256 = run(["gen", "--atoms", "4", "--stalks", "3,3,3,3"])
    (root / "gen256.txt").write_text(gen256)
    (root / "etale72.txt").write_text(etale_text((2, 3, 1, 2), 5, "F"))
    _, dual = run(["dualize", str(root / "etale72.txt"), "F"])
    (root / "etale72_dual.txt").write_text(dual)
    (root / "nonproper.txt").write_text((DOCS / "prod.txt").read_text() + NONPROPER)
    (root / "bsetmor.txt").write_text(bset_morphisms_text(gen))
    return docs


def bset_morphisms_text(gen_doc):
    """Two edits of the identity of G in ``gen_doc``, with the identity
    basemap: ``bm2`` moves (a1,b2) to (a2,b2) in its own stalk, which keeps
    BM1 and breaks BM2; ``bm1`` sends a1 into the stalk of b, which breaks
    BM1.  Only ``check-morphism`` runs on this document."""
    doc = textio.parse(gen_doc)
    base, G = doc.stanzas[0].data["elements"], textio.build(doc)["G"]
    stanzas = [
        textio.Stanza("morphism", name, None, {
            "from": "G", "to": "G", "basemap": [(e, e) for e in base],
            "map": [(x, edit.get(x, x)) for x in G.elements]}, 0)
        for name, edit in [("bm2", {"(a1,b2)": "(a2,b2)"}), ("bm1", {"a1": "b2"})]
    ]
    return gen_doc + "".join(textio.print_stanza(s) + "\n" for s in stanzas)


def skew_morphisms_text(skew_doc):
    """The identity of the skew algebra in ``skew_doc``, and X3s -> the skew
    algebra of Cst by the map of showcase's ``collapse``.  Only
    ``check-morphism`` runs on this document."""
    els = textio.parse(skew_doc).stanzas[0].data["elements"]
    showcase = textio.build(textio.parse(SHOWCASE.read_text()))
    stanzas = [
        textio.Stanza("morphism", "ident", None, {
            "from": "G_skew", "to": "G_skew", "map": [(x, x) for x in els]}, 0),
        textio.skew_stanza(showcase["X3s"], "X3s"),
        textio.skew_stanza(bset.to_skew(showcase["Cst"]), "Cst_skew"),
        textio.Stanza("morphism", "collapse", None, {
            "from": "X3s", "to": "Cst_skew",
            "map": [("0", "c0"), ("x1", "c1"), ("x2", "c1")]}, 0),
    ]
    return skew_doc + "".join(textio.print_stanza(s) + "\n" for s in stanzas)


def commands(root):
    """(key, argv) for every pinned command; keys name files relative to
    the documents directory or to docs/."""
    out = []
    for path in sorted(DOCS.glob("*.txt")):
        names = [s.name for s in textio.parse(path.read_text()).stanzas]
        for name in names:
            for cmd in ("to-bset", "export", "check-morphism", "props"):
                out.append((f"{cmd} docs/{path.name} {name}", [cmd, str(path), name]))
    for fname, names in write_documents(root).items():
        for name in names:
            for cmd in ("to-bset", "export"):
                out.append((f"{cmd} {fname} {name}", [cmd, str(Path(root) / fname), name]))
    for atoms, stalks, seed in GEN_SHAPES:
        argv = ["gen", "--atoms", atoms, "--stalks", stalks] + (["--seed", seed] if seed else [])
        out.append((" ".join(argv), argv))
    for fname, name, cmds in [
        ("gen.txt", "G", ("dualize", "ultrafilters", "roundtrip", "props")),
        ("etale.txt", "E", ("dualize", "roundtrip", "sections")),
        ("etale5.txt", "P", ("dualize", "roundtrip")),
        ("skew.txt", "G_skew", ("props",)),
        ("skewmor.txt", "ident", ("check-morphism",)),
        ("skewmor.txt", "collapse", ("check-morphism",)),
    ]:
        for cmd in cmds:
            out.append((f"{cmd} {fname} {name}", [cmd, str(Path(root) / fname), name]))
    for fname, name in [("gen256.txt", "G"), ("etale72_dual.txt", "F_dual")]:
        out.append((f"props {fname} {name}", ["props", str(Path(root) / fname), name]))
    # refusals: a missing stanza, a stanza of the wrong kind, an unknown
    # base point; a morphism whose base hom is not proper, and Boolean-set
    # morphisms that break BM2 and BM1
    for cmd, fname, name, extra in [
        ("to-skew", "gen.txt", "missing", []),
        ("to-skew", "gen.txt", "B", []),
        ("dualize", "gen.txt", "B", []),
        ("roundtrip", "gen.txt", "B", []),
        ("ultrafilters", "etale.txt", "E", []),
        ("sections", "gen.txt", "G", []),
        ("sections", "etale.txt", "E", ["--over", "u0,zz"]),
        ("check-morphism", "nonproper.txt", "embed", []),
        ("check-morphism", "bsetmor.txt", "bm2", []),
        ("check-morphism", "bsetmor.txt", "bm1", []),
    ]:
        out.append((" ".join([cmd, fname, name, *extra]),
                    [cmd, str(Path(root) / fname), name, *extra]))
    # validate on each refused document of test_cli, and replay of each
    # FAIL line among them
    for fname, (text, _, _) in REFUSED.items():
        (Path(root) / fname).write_text(text)
        out.append((f"validate {fname}", ["validate", str(Path(root) / fname)]))
    for fname, (law, witness) in REPLAYS.items():
        out.append((f"replay {fname} P --law {law} --witness {witness}",
                    ["replay", str(Path(root) / fname), "P", "--law", law, "--witness", witness]))
    return out


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    return commands(root), json.loads(RECORDED.read_text())


def test_recording_covers_every_command(pinned):
    cmds, recorded = pinned
    assert [key for key, _ in cmds] == list(recorded)


def test_cli_output_matches_recording(pinned):
    cmds, recorded = pinned
    for key, argv in cmds:
        code, out = run(argv)
        assert [code, out] == recorded[key], key


def test_cli_output_same_without_asserts(tmp_path):
    # every pinned command once more, under python -O, in one process
    out = tmp_path / "optimized.json"
    env = dict(os.environ, PYTHONPATH=str(Path(skewstone.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-O", __file__, "--record", str(out)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text()) == json.loads(RECORDED.read_text())


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_cli_pinned.py --record OUT.json")
    with tempfile.TemporaryDirectory() as tmp:
        result = {key: list(run(argv)) for key, argv in commands(tmp)}
    Path(sys.argv[2]).write_text(json.dumps(result, indent=1) + "\n")
