import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewstone
from skewstone import cli, textio

DOCS = Path(__file__).resolve().parent.parent / "docs"
PROD = str(DOCS / "prod.txt")
SHOW = str(DOCS / "showcase.txt")


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", PROD)
    assert code == 0
    assert "balg B4: ok" in out
    assert "bset Prod: ok (6 elements over 4)" in out


def test_validate_failure_names_law(capsys, tmp_path):
    f = tmp_path / "m3.txt"
    f.write_text(
        "balg M3 {\n"
        "  elements: 0, a, b, c, 1\n"
        "  leq: 0<=a, 0<=b, 0<=c, a<=1, b<=1, c<=1\n"
        "  bottom: 0\n"
        "}\n"
    )
    code, out = run(capsys, "validate", str(f))
    assert code == 1
    assert "lattice.distributivity witness=(a,b,c)" in out


def test_validate_skips_dependents_of_failed_stanza(capsys, tmp_path):
    f = tmp_path / "dep.txt"
    f.write_text(
        "balg C {\n"
        "  elements: 0, m, 1\n"
        "  leq: 0<=m, m<=1\n"
        "  bottom: 0\n"
        "}\n"
        "bset P over C {\n"
        "  stalk 0: z\n"
        "  stalk m: m1\n"
        "  stalk 1: t\n"
        "  restrict 1 -> m: t->m1\n"
        "  restrict m -> 0: m1->z\n"
        "}\n"
    )
    code, out = run(capsys, "validate", str(f))
    assert code == 1
    assert "lattice.relative_complement" in out
    assert "skipped" in out


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("balg X {\n  oops\n}\n")
    code, out = run(capsys, "validate", str(f))
    assert code == 2
    assert "parse error" in out


def test_roundtrip_alpha(capsys):
    code, out = run(capsys, "roundtrip", PROD, "Prod")
    assert code == 0
    assert out.strip() == "alpha: isomorphism (6 elements)"


def test_roundtrip_beta(capsys):
    code, out = run(capsys, "roundtrip", SHOW, "Efix")
    assert code == 0
    assert out.strip() == "beta: isomorphism (3 points)"


def test_roundtrip_skew(capsys):
    code, out = run(capsys, "roundtrip", SHOW, "X3s")
    assert code == 0
    assert "identity (3 elements)" in out


def test_gen_prints_prod_isomorphic_stanza(capsys, tmp_path):
    code, out = run(capsys, "gen", "--atoms", "2", "--stalks", "2,1")
    assert code == 0
    f = tmp_path / "gen.txt"
    f.write_text(out)
    code2, out2 = run(capsys, "validate", str(f))
    assert code2 == 0

    from skewstone import bset, textio
    built = textio.build(textio.parse(out))
    from conftest import make_prod
    assert bset.bset_isomorphic(built["G"], make_prod()) is not None


def test_gen_seed_changes_labels_only(capsys):
    _, out1 = run(capsys, "gen", "--atoms", "1", "--stalks", "3")
    _, out2 = run(capsys, "gen", "--atoms", "1", "--stalks", "3", "--seed", "4")
    assert out1 != out2
    from skewstone import bset, textio
    b1 = textio.build(textio.parse(out1))["G"]
    b2 = textio.build(textio.parse(out2))["G"]
    assert bset.bset_isomorphic(b1, b2) is not None


def test_gen_atoms_mismatch_fails_before_generating(capsys, monkeypatch):
    from skewstone import bset

    def refuse(*args, **kwargs):
        raise AssertionError("generate_boolean_set called on an --atoms mismatch")

    monkeypatch.setattr(bset, "generate_boolean_set", refuse)
    code, out = run(capsys, "gen", "--atoms", "3", "--stalks", "3,3,3,3")
    assert code == 1
    assert out.strip() == "--atoms 3 does not match 4 stalk sizes"


@pytest.mark.parametrize("text, missing", [
    ("balg B {\n  elements: 0, 1\n  leq: 0<=1\n}\n", "'bottom:' in balg stanza B"),
    ("etale E {\n  total: p\n  proj: p->x\n}\n", "'base:' in etale stanza E"),
    ("skew S {\n  elements: 0\n  zero: 0\n}\n", "'circ:' in skew stanza S"),
    ("morphism M {\n  from: B2\n  to: B2\n}\n", "'map:' in morphism stanza M"),
])
def test_missing_required_key_is_a_located_parse_error(capsys, tmp_path, text, missing):
    f = tmp_path / "missing.txt"
    f.write_text("balg B2 {\n  elements: 0, 1\n  leq: 0<=1\n  bottom: 0\n}\n" + text)
    code, out = run(capsys, "validate", str(f))
    assert code == 2
    assert f"parse error: line 6, col 1: expected {missing}" in out
    assert "skipped" not in out


def test_to_skew_and_back(capsys, tmp_path):
    code, out = run(capsys, "to-skew", PROD, "Prod")
    assert code == 0
    f = tmp_path / "skew.txt"
    f.write_text(out)
    code2, out2 = run(capsys, "validate", str(f))
    assert code2 == 0
    code3, out3 = run(capsys, "to-bset", str(f), "Prod_skew")
    assert code3 == 0
    assert "bset Prod_skew_bset" in out3


def test_to_bset_band(capsys, tmp_path):
    code, out = run(capsys, "to-bset", SHOW, "Band3")
    assert code == 0
    assert "bset Band3_bset" in out
    f = tmp_path / "band_bset.txt"
    f.write_text(out)
    code2, _ = run(capsys, "validate", str(f))
    assert code2 == 0


def test_balg_morphism_stanza(capsys, tmp_path):
    f = tmp_path / "hom.txt"
    f.write_text(
        "balg B2 {\n  elements: 0, 1\n  leq: 0<=1\n  bottom: 0\n}\n"
        "balg B4 {\n  elements: 0, a, b, 1\n"
        "  leq: 0<=a, 0<=b, a<=1, b<=1\n  bottom: 0\n}\n"
        "morphism inc {\n  from: B2\n  to: B4\n  map: 0->0, 1->a\n}\n"
    )
    code, out = run(capsys, "validate", str(f))
    assert code == 0
    code2, out2 = run(capsys, "check-morphism", str(f), "inc")
    assert code2 == 0
    assert "proper: False" in out2


def test_dualize_both_ways(capsys, tmp_path):
    code, out = run(capsys, "dualize", SHOW, "Efix")
    assert code == 0
    f = tmp_path / "dual.txt"
    f.write_text(out)
    code2, _ = run(capsys, "validate", str(f))
    assert code2 == 0
    code3, out3 = run(capsys, "dualize", PROD, "Prod")
    assert code3 == 0
    assert "etale Prod_dual" in out3


def test_ultrafilters_command(capsys):
    code, out = run(capsys, "ultrafilters", PROD, "B4")
    assert code == 0
    assert "up(a)" in out and "up(b)" in out
    code2, out2 = run(capsys, "ultrafilters", PROD, "Prod")
    assert code2 == 0
    assert "[a1]@a" in out2


@pytest.mark.parametrize("command", ["ultrafilters", "dualize"])
def test_same_output_without_asserts(capsys, tmp_path, command):
    # the ultrafilter classes are built outside every assert, so stripping
    # the asserts with python -O changes no output
    code, doc = run(capsys, "gen", "--atoms", "4", "--stalks", "2,2,2,2", "--seed", "3")
    assert code == 0
    f = tmp_path / "g.txt"
    f.write_text(doc)
    env = dict(os.environ, PYTHONPATH=str(Path(skewstone.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    results = [
        subprocess.run([sys.executable, *flags, "-m", "skewstone.cli", command, str(f), "G"],
                       capture_output=True, text=True, env=env)
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in results] == [0, 0]
    assert results[0].stdout.strip()
    assert results[0].stdout == results[1].stdout


def test_round_trip_same_without_asserts(capsys, tmp_path):
    # validate, to-skew and the skew round trip give the same output and exit
    # codes with and without python -O
    code, doc = run(capsys, "gen", "--atoms", "3", "--stalks", "2,1,2")
    assert code == 0
    gen = tmp_path / "g.txt"
    gen.write_text(doc)
    env = dict(os.environ, PYTHONPATH=str(Path(skewstone.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")

    def cli_run(flags, *argv):
        r = subprocess.run([sys.executable, *flags, "-m", "skewstone.cli", *argv],
                           capture_output=True, text=True, env=env)
        return r.returncode, r.stdout, r.stderr

    outcomes = []
    for flags in ([], ["-O"]):
        skew_doc = tmp_path / f"s{len(flags)}.txt"
        to_skew = cli_run(flags, "to-skew", str(gen), "G")
        skew_doc.write_text(to_skew[1])
        outcomes.append([
            cli_run(flags, "validate", str(gen)),
            to_skew,
            cli_run(flags, "roundtrip", str(skew_doc), "G_skew"),
        ])
    assert [r[0] for r in outcomes[0]] == [0, 0, 0]
    assert "skew round trip: identity (18 elements)" in outcomes[0][2][1]
    assert outcomes[0] == outcomes[1]


PARITY = """
import contextlib, io, json, sys
from skewstone import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([argv, code, buf.getvalue()])
print(json.dumps([__debug__, out]))
"""


def test_commands_give_the_same_output_under_python_O(capsys, tmp_path):
    # one process runs every call with asserts and one with python -O: the
    # validators accept and name failures outside every assert, so stdout
    # and exit codes are the same
    code, doc = run(capsys, "gen", "--atoms", "3", "--stalks", "2,2,2", "--seed", "1")
    gen = tmp_path / "g.txt"
    gen.write_text(doc)
    code2, skew_doc = run(capsys, "to-skew", str(gen), "G")
    assert code == code2 == 0
    skew_path = tmp_path / "s.txt"
    skew_path.write_text(skew_doc)
    lines = skew_doc.splitlines()
    row = lines.index("  circ:") + 3  # the second row of the ∘ table
    entries = lines[row].split()
    assert entries[-1] != "0"
    lines[row] = "    " + " ".join(entries[:-1] + ["0"])
    mutant = tmp_path / "m.txt"
    mutant.write_text("\n".join(lines) + "\n")
    docs = {str(path): [s.name for s in textio.parse(path.read_text()).stanzas]
            for path in sorted(DOCS.glob("*.txt"))}
    docs[str(gen)] = ["B", "G"]
    docs[str(skew_path)] = ["G_skew"]
    calls = [["validate", str(mutant)]]
    for path, names in docs.items():
        calls.append(["validate", path])
        calls += [[command, path, name] for name in names
                  for command in ("props", "roundtrip", "to-bset")]
    env = dict(os.environ, PYTHONPATH=str(Path(skewstone.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    runs = [json.loads(subprocess.run(
        [sys.executable, *flags, "-c", PARITY, json.dumps(calls)],
        capture_output=True, text=True, env=env, check=True).stdout)
        for flags in ([], ["-O"])]
    assert [debug for debug, _ in runs] == [True, False]
    assert runs[0][1] == runs[1][1]
    codes = [code for _, code, _ in runs[0][1]]
    assert codes[0] == 1 and "skew G_skew: FAIL" in runs[0][1][0][2]
    assert {0, 1} <= set(codes) and len(calls) > 40


def test_sections_command(capsys):
    code, out = run(capsys, "sections", SHOW, "Efix", "--over", "u,v")
    assert code == 0
    assert out.splitlines() == ["{e1,e3}", "{e2,e3}"]
    code2, out2 = run(capsys, "sections", SHOW, "Efix")
    assert code2 == 0
    assert "{} over {}" in out2


def test_check_morphism(capsys):
    code, out = run(capsys, "check-morphism", SHOW, "collapse")
    assert code == 0
    assert "meet-preserving: False; dual partial map: False; equivalence holds" in out
    code2, out2 = run(capsys, "check-morphism", SHOW, "spread")
    assert code2 == 0
    assert "covering: True" in out2 and "partial map: False" in out2


def test_named_commands_build_only_what_they_name(capsys, tmp_path):
    # collapse breaks BM1; nothing the other stanzas are built from reads it
    text = Path(SHOW).read_text()
    edited = text.replace("map: 0->c0, x1->c1, x2->c1", "map: 0->c0, x1->c1, x2->c0")
    assert edited != text
    f = tmp_path / "edited.txt"
    f.write_text(edited)
    for command, name in [("dualize", "X3"), ("ultrafilters", "X3"), ("props", "B2")]:
        assert run(capsys, command, str(f), name) == run(capsys, command, SHOW, name)
    assert run(capsys, "check-morphism", str(f), "collapse") == (
        1, "FAIL bsetmor.BM1 witness=(x2)\n")


def test_a_failed_dependency_is_reported_as_validate_reports_it(capsys, tmp_path):
    f = tmp_path / "m3.txt"
    f.write_text(
        "balg M3 {\n"
        "  elements: 0, a, b, c, 1\n"
        "  leq: 0<=a, 0<=b, 0<=c, a<=1, b<=1, c<=1\n"
        "  bottom: 0\n"
        "}\n"
        "balg C2 {\n"
        "  elements: 0, 1\n"
        "  leq: 0<=1\n"
        "  bottom: 0\n"
        "}\n"
        "bset P over M3 {\n"
        "  stalk 0: z\n"
        "}\n"
    )
    line = "balg M3: FAIL lattice.distributivity witness=(a,b,c)\n"
    code, out = run(capsys, "validate", str(f))
    assert code == 1 and out.startswith(line)
    assert run(capsys, "props", str(f), "P") == (1, line)
    assert run(capsys, "props", str(f), "C2")[0] == 0
    assert run(capsys, "props", str(f), "M3") == (
        1, "FAIL lattice.distributivity witness=(a,b,c)\n")


def test_props_commands(capsys):
    code, out = run(capsys, "props", PROD, "B4")
    assert code == 0
    assert "PASS stone_map_isomorphism" in out
    code2, out2 = run(capsys, "props", SHOW, "X3s")
    assert code2 == 0
    assert "PASS right_normal_circ" in out2
    code3, out3 = run(capsys, "props", PROD, "Prod")
    assert code3 == 0
    assert "PASS sections_exhausted" in out3 and "PASS sheaf_condition" in out3


def test_export_dot(capsys):
    code, out = run(capsys, "export", PROD, "Prod")
    assert code == 0
    assert out.startswith('digraph "Prod"')
    assert '"a1" -> "a" [style=dashed];' in out


def test_replay_confirms_reported_witness(capsys, tmp_path):
    f = tmp_path / "m3.txt"
    f.write_text(
        "balg M3 {\n"
        "  elements: 0, a, b, c, 1\n"
        "  leq: 0<=a, 0<=b, 0<=c, a<=1, b<=1, c<=1\n"
        "  bottom: 0\n"
        "}\n"
    )
    code, out = run(capsys, "replay", str(f), "M3",
                    "--law", "lattice.distributivity", "--witness", "a,b,c")
    assert code == 0 and "confirmed" in out
    code2, out2 = run(capsys, "replay", str(f), "M3",
                      "--law", "order.antisymmetry", "--witness", "a,b")
    assert code2 == 1 and "not confirmed" in out2


ZEROLESS = (
    "skew Z {\n"
    "  elements: 0, a\n"
    "  circ:\n"
    "    0 a\n"
    "    0 0\n"
    "    0 a\n"
    "  bullet:\n"
    "    0 a\n"
    "    0 a\n"
    "    a a\n"
    "}\n"
)
NO_ZERO = "the skew algebra declares no zero among its elements, which skew.SB4 and skew.SB5 read"


@pytest.mark.parametrize("name, law, witness, message", [
    ("B4", "order.meet_exists", "zz,a", "order.meet_exists: 'zz' is not an element of the"
                                        " Boolean algebra"),
    ("B4", "lattice.bottom", "", "lattice.bottom takes a witness of 2 ids, not 0"),
    ("B4", "order.meet_exists", "a", "order.meet_exists takes a witness of 2 ids, not 1"),
    ("B4", "order.antisymmetry", "a,,b", "order.antisymmetry takes a witness of 2 ids, not 3"),
    ("Prod", "bset.compatible_join", "a1,zz",
     "bset.compatible_join: 'zz' is not an element of the Boolean set"),
    ("Prod", "skew.SB1", "a1,a2", "skew.SB1 is not a law of a Boolean set"),
    ("Band3", "skew.SB1", "x1,x2", "skew.SB1 is not a law of a band"),
    ("Z", "skew.SB4", "a", NO_ZERO),
    ("Z", "skew.SB5", "a", NO_ZERO),
])
def test_replay_refuses_what_the_oracle_cannot_evaluate(capsys, tmp_path, name, law, witness,
                                                        message):
    # a law of another kind, a witness of the wrong length, an unknown id or
    # a zero that the stanza does not declare (validate refuses it as a
    # parse error) is a document error, never a verdict or a traceback
    doc = SHOW if name == "Band3" else PROD
    if name == "Z":
        doc = tmp_path / "zeroless.txt"
        doc.write_text(ZEROLESS)
    code, out = run(capsys, "replay", str(doc), name, "--law", law, "--witness", witness)
    assert (code, out) == (2, f"document error: {message}\n")


@pytest.mark.parametrize("name, reason", [
    ("missing.txt", "No such file or directory"), ("", "Is a directory")])
def test_an_unreadable_file_is_a_document_error(capsys, tmp_path, name, reason):
    path = str(tmp_path / name) if name else str(tmp_path)
    code, out = run(capsys, "validate", path)
    assert (code, out) == (2, f"document error: cannot read {path}: {reason}\n")


def test_consecutive_calls_match_fresh_processes(capsys):
    # the parser is built once per import; no option of one call may leak
    # into the next
    calls = [
        ["sections", SHOW, "Efix", "--over", "u"],
        ["sections", SHOW, "Efix"],
        ["gen", "--atoms", "2", "--stalks", "2,1", "--seed", "5"],
        ["validate", PROD],
        ["sections", SHOW, "Efix", "--over", "v"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(Path(skewstone.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    fresh = []
    for argv in calls:
        r = subprocess.run([sys.executable, "-m", "skewstone.cli", *argv],
                           capture_output=True, text=True, env=env)
        fresh.append((r.returncode, r.stdout))
    assert in_process == fresh
    assert in_process[0][1] != in_process[1][1] != in_process[4][1]
    assert cli.make_parser() is cli.make_parser()


def test_main_runs_the_handler_on_the_module(capsys, monkeypatch):
    # handlers are looked up by subcommand name at each call, so one that is
    # replaced on the module after import (by a tracer, say) is the one run
    seen = []
    original = cli.cmd_validate

    def wrapped(args):
        seen.append(args.file)
        return original(args)

    cli.main(["validate", PROD])
    monkeypatch.setattr(cli, "cmd_validate", wrapped)
    code, out = run(capsys, "validate", PROD)
    assert code == 0 and "bset Prod: ok" in out
    assert seen == [PROD]


def test_stray_restriction_id_is_a_document_error(capsys, tmp_path):
    f = tmp_path / "stray.txt"
    text = Path(PROD).read_text()
    assert "restrict b -> 0: b1->0\n" in text
    f.write_text(text.replace("restrict b -> 0: b1->0\n", "restrict b -> 0: b1->0, zz->0\n"))
    code, out = run(capsys, "validate", str(f))
    assert code == 2
    assert out.splitlines() == [
        "balg B4: ok (4 elements, 2 ultrafilters)",
        "document error: bset Prod (line 7): restriction ('b', '0') maps 'zz', not in stalk 'b'",
    ]


def test_a_document_error_names_its_stanza(capsys, tmp_path):
    f = tmp_path / "bottom.txt"
    text = Path(PROD).read_text()
    assert "  bottom: 0\n" in text
    f.write_text(text.replace("  bottom: 0\n", "  bottom: 2\n"))
    expected = "document error: balg B4 (line 2): declared bottom '2' is not an element"
    code, out = run(capsys, "validate", str(f))
    assert (code, out.splitlines()) == (2, [expected])
    code, out = run(capsys, "to-skew", str(f), "Prod")
    assert (code, out.splitlines()) == (2, [expected])


def test_validate_skips_exactly_the_dependents_of_failed_stanzas(capsys, tmp_path):
    f = tmp_path / "deps.txt"
    f.write_text(
        "balg C {\n  elements: 0, m, 1\n  leq: 0<=m, m<=1\n  bottom: 0\n}\n"
        "bset P over C {\n  stalk 0: z\n  stalk m: m1\n  stalk 1: t\n"
        "  restrict 1 -> m: t->m1\n  restrict m -> 0: m1->z\n}\n"
        "balg B2 {\n  elements: 0, 1\n  leq: 0<=1\n  bottom: 0\n}\n"
        "bset Q over B2 {\n  stalk 0: q0\n  stalk 1: q1\n  restrict 1 -> 0: q1->q0\n}\n"
        "morphism f {\n  from: C\n  to: B2\n  map: 0->0, m->1, 1->1\n}\n"
        "morphism g {\n  from: P\n  to: Q\n  map: z->q0, m1->q1, t->q1\n}\n"
        "morphism k {\n  from: B2\n  to: C\n  map: 0->0, 1->1\n}\n"
        "morphism h {\n  from: Q\n  to: Q\n  map: q0->q0, q1->q1\n}\n"
    )
    code, out = run(capsys, "validate", str(f))
    assert code == 1
    assert out.splitlines() == [
        "balg C: FAIL lattice.relative_complement witness=(m,1)",
        "bset P: skipped (depends on a failed stanza)",
        "balg B2: ok (2 elements, 1 ultrafilters)",
        "bset Q: ok (2 elements over 2)",
        "morphism f: skipped (depends on a failed stanza)",
        "morphism g: skipped (depends on a failed stanza)",
        "morphism k: skipped (depends on a failed stanza)",
        "morphism h: ok",
    ]


NOT_RIGHT_NORMAL = (
    "skew S {\n"
    "  elements: p, q, r\n"
    "  circ:\n"
    "    p q r\n"
    "    p p r\n"
    "    p q r\n"
    "    p r r\n"
    "}\n"
)


def test_band_that_is_not_right_normal(capsys, tmp_path):
    # right regular (x∘y∘x = y∘x everywhere), but p∘r∘q = r and r∘p∘q = p
    f = tmp_path / "band.txt"
    f.write_text(NOT_RIGHT_NORMAL)
    code, out = run(capsys, "validate", str(f))
    assert (code, out) == (1, "skew S: FAIL band.right_normal witness=(p,r,q)\n")
    raw = skewstone.parse(NOT_RIGHT_NORMAL).law_raw("S")
    assert skewstone.laws.scan(raw) == ("band.right_normal", ("p", "r", "q"))
    code, out = run(capsys, "replay", str(f), "S",
                    "--law", "band.right_normal", "--witness", "p,r,q")
    assert (code, out) == (0, "confirmed: band.right_normal violated at (p,r,q)\n")
    code, out = run(capsys, "replay", str(f), "S",
                    "--law", "band.right_normal", "--witness", "p,r")
    assert code == 1  # the pair form, right regularity, holds
    code, out = run(capsys, "to-bset", str(f), "S")
    assert (code, out) == (1, "FAIL band.right_normal witness=(p,r,q)\n")


NOT_RIGHT_NORMAL_SKEW = (
    "skew N {\n"
    "  elements: 0, a, b, c\n"
    "  zero: 0\n"
    "  circ:\n"
    "    0 a b c\n"
    "    0 0 0 0\n"
    "    0 a a c\n"
    "    0 a b c\n"
    "    0 a c c\n"
    "  bullet:\n"
    "    0 a b c\n"
    "    0 a b c\n"
    "    a a b a\n"
    "    b b b b\n"
    "    c c b c\n"
    "}\n"
)


def test_skew_algebra_whose_circ_is_not_right_normal(capsys, tmp_path):
    # SB1-SB5 hold, but a∘c∘b = c and c∘a∘b = a: rejected at load, so the
    # commands that use the algebra name the same law
    f = tmp_path / "skew.txt"
    f.write_text(NOT_RIGHT_NORMAL_SKEW)
    code, out = run(capsys, "validate", str(f))
    assert (code, out) == (1, "skew N: FAIL band.right_normal witness=(a,c,b)\n")
    for command in ("to-bset", "props", "roundtrip"):
        code, out = run(capsys, command, str(f), "N")
        assert (code, out) == (1, "FAIL band.right_normal witness=(a,c,b)\n"), command
    raw = skewstone.parse(NOT_RIGHT_NORMAL_SKEW).law_raw("N")
    assert skewstone.laws.scan(raw) == ("band.right_normal", ("a", "c", "b"))
    code, out = run(capsys, "replay", str(f), "N",
                    "--law", "band.right_normal", "--witness", "a,c,b")
    assert (code, out) == (0, "confirmed: band.right_normal violated at (a,c,b)\n")


def test_band_with_a_two_element_least_class_is_not_boolean(capsys, tmp_path):
    # p and q form one R class, the least one: a Boolean set's zero stalk
    # has one member, so the band is not Boolean
    f = tmp_path / "band.txt"
    f.write_text("skew S {\n  elements: p, q\n  circ:\n    p q\n    p q\n    p q\n}\n")
    code, out = run(capsys, "to-bset", str(f), "S")
    assert (code, out) == (1, "FAIL bset.zero_stalk witness=(p,q)\n")


@pytest.mark.parametrize("text, line, op", [
    ("skew S {\n  elements: p\n  circ:\n}\n", 3, "circ"),
    ("skew S {\n  elements: p\n  zero: p\n  circ:\n    p\n    p\n  bullet:\n}\n", 7, "bullet"),
])
def test_missing_table_rows_name_the_key_line(capsys, tmp_path, text, line, op):
    f = tmp_path / "rows.txt"
    f.write_text(text)
    code, out = run(capsys, "validate", str(f))
    assert (code, out) == (2, f"parse error: line {line}, col 1: expected table rows after '{op}:'\n")


SKEW_IDENTITY = "morphism ident {\n  from: X3s\n  to: X3s\n  map: 0->0, x1->x1, x2->x2\n}\n"
BALG_IDENTITY = "morphism h {\n  from: B2\n  to: B2\n  map: 0->0, 1->1\n}\n"


@pytest.mark.parametrize("old, new, name, message", [
    ("  map: 0->0, 1->1\n", "  map: 0->0, 1->1, zz->1\n", "h",
     "map entry 'zz' is not a source element"),
    ("  map: 0->c0, x1->c1, x2->c1\n", "  map: 0->c0, x1->c1, x2->c1, zz->c1\n", "collapse",
     "map entry 'zz' is not a source element"),
    ("  basemap: 0->0, 1->1\n", "  basemap: 0->0, 1->1, zz->1\n", "collapse",
     "basemap entry 'zz' is not a source base element"),
    ("  map: 0->0, x1->x1, x2->x2\n", "  map: 0->0, x1->x1, x2->x2, zz->0\n", "ident",
     "map entry 'zz' is not a source element"),
    ("  phi: e1->f1+f2, e2->, e3->f1+f2\n", "  phi: e1->f1+f2, e2->, e3->f1+f2, zz->f1\n",
     "spread", "phi entry 'zz' is not a source point"),
    ("  phibar: u->w, v->w\n", "  phibar: u->w, v->w, zz->w\n", "spread",
     "phibar entry 'zz' is not a source base point"),
], ids=["balg", "bset-map", "bset-basemap", "skew", "relmor-phi", "relmor-phibar"])
def test_a_stray_morphism_map_key_is_a_document_error(capsys, tmp_path, old, new, name,
                                                      message):
    text = Path(SHOW).read_text() + BALG_IDENTITY + SKEW_IDENTITY
    assert text.count(old) == 1
    text = text.replace(old, new)
    f = tmp_path / "stray.txt"
    f.write_text(text)
    line = next(k + 1 for k, ln in enumerate(text.splitlines())
                if ln.split()[:2] in (["morphism", name], ["relmor", name]))
    kind = "relmor" if name == "spread" else "morphism"
    expected = f"document error: {kind} {name} (line {line}): {message}"
    code, out = run(capsys, "validate", str(f))
    assert (code, out.splitlines()[-1]) == (2, expected)
    assert run(capsys, "check-morphism", str(f), name) == (2, expected + "\n")


@pytest.mark.parametrize("old, new, name, message", [
    ("  total: e1, e2, e3\n", "  total: e1, e2, e3, e2\n", "Efix", "duplicate element id 'e2'"),
    ("  total: e1, e2, e3\n  base: u, v\n", "  total: e1, e3, e2, e3\n  base: u, u, v\n", "Efix",
     "duplicate element id 'e3'"),
    ("  base: u, v\n", "  base: u, v, u\n", "Efix", "duplicate element id 'u'"),
    ("  proj: e1->u, e2->u, e3->v\n", "  proj: e1->u, e2->u\n", "Efix",
     "projection not total: missing 'e3'"),
    ("  proj: e1->u, e2->u, e3->v\n", "  proj: e1->u, e2->u, e3->zz\n", "Efix",
     "projection image 'zz' not a base point"),
    ("  phibar: u->w, v->w\n", "  phibar: u->w\n", "spread", "base map not total at 'v'"),
    ("  phi: e1->f1+f2, e2->, e3->f1+f2\n", "  phi: e1->f1+f2, e2->\n", "spread",
     "phi not total: missing 'e3'"),
    ("  phi: e1->f1+f2, e2->, e3->f1+f2\n", "  phi: e1->f1+f2, e2->, e3->f1+zz\n", "spread",
     "phi('e3') contains unknown point 'zz'"),
], ids=["repeated-point", "total-before-base", "repeated-base-point", "proj-not-total",
        "proj-off-base", "phibar-not-total", "phi-not-total", "phi-unknown-point"])
def test_a_malformed_etale_space_or_relmor_is_a_located_document_error(capsys, tmp_path, old,
                                                                       new, name, message):
    text = Path(SHOW).read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    f = tmp_path / "bad_etale.txt"
    f.write_text(text)
    line = next(k + 1 for k, ln in enumerate(text.splitlines()) if ln.split()[1:2] == [name])
    kind = "relmor" if name == "spread" else "etale"
    code, out = run(capsys, "validate", str(f))
    expected = f"document error: {kind} {name} (line {line}): {message}"
    assert (code, out.splitlines()[-1]) == (2, expected)
    assert sum(ln.startswith("document error") for ln in out.splitlines()) == 1


def test_a_missing_basemap_entry_names_the_basemap(capsys, tmp_path):
    text = Path(SHOW).read_text()
    assert text.count("  basemap: 0->0, 1->1\n") == 1
    text = text.replace("  basemap: 0->0, 1->1\n", "  basemap: 0->0\n")
    f = tmp_path / "partial.txt"
    f.write_text(text)
    line = next(k + 1 for k, ln in enumerate(text.splitlines())
                if ln.split()[:2] == ["morphism", "collapse"])
    expected = f"document error: morphism collapse (line {line}): basemap not total: missing '1'"
    code, out = run(capsys, "validate", str(f))
    assert (code, out.splitlines()[-1]) == (2, expected)
    assert run(capsys, "check-morphism", str(f), "collapse") == (2, expected + "\n")


@pytest.mark.parametrize("source, target", [
    ("Band3", "Band3"), ("X3s", "Band3"), ("Band3", "X3s")],
    ids=["band-band", "skew-band", "band-skew"])
def test_a_band_endpoint_is_a_document_error(capsys, tmp_path, source, target):
    # a right normal band has neither a zero nor •, so it is no morphism
    # endpoint; a stanza that names one is refused at its line
    show = Path(SHOW).read_text()
    f = tmp_path / "band_morphism.txt"
    f.write_text(show + f"morphism M {{\n  from: {source}\n  to: {target}\n"
                        "  map: 0->0, x1->x1, x2->x2\n}\n")
    line = len(show.splitlines()) + 1
    expected = (f"document error: morphism M (line {line}): endpoint 'Band3' is a right "
                "normal band (a skew stanza without bullet:), which has no morphisms")
    code, out = run(capsys, "validate", str(f))
    assert (code, out.splitlines()[-2:]) == (2, ["relmor spread: ok", expected])
    assert run(capsys, "check-morphism", str(f), "M") == (2, expected + "\n")


B2_TEXT = "balg B2 {\n  elements: 0, 1\n  leq: 0<=1\n  bottom: 0\n}\n"
B4_TEXT = "balg B4 {\n  elements: 0, a, b, 1\n  leq: 0<=a, 0<=b, a<=1, b<=1\n  bottom: 0\n}\n"
# documents that validate refuses: file name -> (text, exit code, last output line)
REFUSED = {
    "keyword.txt": ("balgebra B2 {\n}\n", 2, "parse error: line 1, col 1: expected stanza "
                    "keyword, one of balg, skew, bset, etale, morphism, relmor"),
    "over.txt": (B2_TEXT + "bset P over {\n}\n", 2,
                 "parse error: line 6, col 13: expected base name after 'over'"),
    "cover.txt": (B2_TEXT + "bset cover over {\n}\n", 2,
                  "parse error: line 6, col 17: expected base name after 'over'"),
    "brace.txt": ("balg B2\n  elements: 0, 1\n}\n", 2,
                  "parse error: line 1, col 7: expected '{' ending the stanza header"),
    "noover.txt": (B2_TEXT + "bset P {\n  stalk 0: z\n}\n", 2,
                   "parse error: line 6, col 1: expected 'over <balg>' in a bset header"),
    "unclosed.txt": (B2_TEXT + "bset P over B2 {\n  stalk 0: z\n", 2,
                     "parse error: line 7, col 1: expected '}' closing the stanza"),
    "nokey.txt": ("balg B2 {\n  : 0\n}\n", 2,
                  "parse error: line 2, col 1: expected a key before ':'"),
    "fewrows.txt": ("skew S {\n  elements: p, q\n  circ:\n    p q\n    p q\n}\n", 2,
                    "parse error: line 4, col 1: expected 2 table rows after the header"),
    "nozero.txt": ("skew S {\n  elements: p, q\n  circ:\n    p q\n    p q\n    p q\n"
                   "  bullet:\n    p q\n    p q\n    p q\n}\n", 2,
                   "parse error: line 1, col 1: expected 'zero:' in a skew stanza with both tables"),
    "stalkkey.txt": (B2_TEXT + "bset P over B2 {\n  stalk 0: z\n  stalk zz: x\n}\n", 2,
                     "document error: bset P (line 6): stalk key 'zz' is not a base element"),
    "noncover.txt": (B4_TEXT + "bset P over B4 {\n  stalk 0: z\n  stalk a: a1\n  stalk b: b1\n"
                     "  stalk 1: s\n  restrict 1 -> 0: s->z\n}\n", 2,
                     "document error: bset P (line 6): restriction ('1', '0') is not a Hasse "
                     "covering pair"),
    "norestrict.txt": (B2_TEXT + "bset P over B2 {\n  stalk 0: z\n  stalk 1: x\n}\n", 1,
                       "bset P: FAIL presheaf.restriction witness=(1,0)"),
    "onestalk.txt": (B2_TEXT + "bset P over B2 {\n  stalk 0: z\n}\n", 1,
                     "bset P: FAIL bset.global_support witness=(1)"),
    "emptybody.txt": (B2_TEXT + "bset P over B2 {\n}\n", 1,
                      "bset P: FAIL bset.global_support witness=(0)"),
    "unmapped.txt": (B4_TEXT + "bset P over B4 {\n  stalk 0: z\n  stalk a: a1\n  stalk b: b1\n"
                     "  stalk 1: s, t\n  restrict 1 -> a: s->a1, t->a1\n  restrict 1 -> b: t->b1\n"
                     "  restrict a -> 0: a1->z\n  restrict b -> 0: b1->z\n}\n", 1,
                     "bset P: FAIL presheaf.restriction witness=(1,b,s)"),
}
# the refused documents whose FAIL line names a (law, witness)
REPLAYS = {fname: re.fullmatch(r"bset P: FAIL (\S+) witness=\((.*)\)", last).groups()
           for fname, (_, _, last) in REFUSED.items() if " FAIL " in last}


@pytest.mark.parametrize("fname", list(REFUSED))
def test_a_refused_document_names_its_line_or_witness(capsys, tmp_path, fname):
    # a malformed document is one located parse error, before any stanza is
    # built; a bad stalk key or restriction pair is its stanza's document
    # error, and a failed law its FAIL line
    text, code, last = REFUSED[fname]
    f = tmp_path / fname
    f.write_text(text)
    got, out = run(capsys, "validate", str(f))
    assert (got, out.splitlines()[-1]) == (code, last)
    if last.startswith("parse error"):
        assert out == last + "\n"


@pytest.mark.parametrize("fname", list(REPLAYS))
def test_every_bset_fail_line_replays(capsys, tmp_path, fname):
    # a bset stanza without stalk or restrict lines holds none: replay and
    # the printer read the absent keys as empty, as the builder does
    assert len(REPLAYS) == 4
    text = REFUSED[fname][0]
    f = tmp_path / fname
    f.write_text(text)
    law, witness = REPLAYS[fname]
    assert run(capsys, "replay", str(f), "P", "--law", law, "--witness", witness) == (
        0, f"confirmed: {law} violated at ({witness})\n")
    doc = textio.parse(text)
    again = textio.parse("\n".join(textio.print_stanza(s) for s in doc.stanzas))
    assert [s.data for s in again.stanzas] == [s.data for s in doc.stanzas]
