"""skewstone benchmark: seeded, closed-loop workloads of in-process CLI calls.

    python3 perfbench/run.py --workload accept|dualize|reject --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process runs ``skewstone.cli.main([...])`` on
documents written during set-up, the next operation starting when the
previous one returns.  Every output is checked against an answer the
benchmark computes itself (see ``instances.py``); rejections are replayed
through ``skewstone.laws``, which is never timed.

An operation is one subcommand on one document.  A workload's mix is a fixed
list of operations; the run makes one full pass over it and then repeats the
operations that still fit in ``--seconds``, least measured time first.
End-to-end metrics (``--trace 0``) come from each operation's median time,
read at a reference speed (``speed.py``): ``ops_per_s`` is the mix size over
the summed medians, ``op_p50_ms``/``op_p90_ms`` are percentiles over the
mix.  ``--trace 1`` runs each operation once untraced and once with the
layer modules wrapped (``spans.py``) and reports per-layer metrics.

The last line of standard output is the JSON result.  The exit code is 0
when a result was printed, 2 when the benchmark could not run.
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import heapq
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import instances as inst
from speed import PROBE_NOMINAL_S, ReferenceClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
# laws.scan is affordable up to these carrier sizes; its balg distributivity
# pass recomputes the order closure per triple, so balg stays small
SCAN_MAX = {"balg": 16, "bset": 81, "skew": 81}

SMALL = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2),
         (3, 3), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 1), (1, 1, 1, 1)]
DEEP = [(2, 2, 2), (1, 1, 3, 3), (2, 2, 2, 2), (2, 2, 2, 5), (3, 3, 3, 3)]
WIDE = [(1,) * 6, (1,) * 7]
ETALE = [(1, 2, 3), (2, 2, 2), (3, 1, 1), (3, 3, 1), (1, 3, 2), (1, 1, 2, 2), (2, 1, 2, 1),
         (1, 1, 1, 3), (2, 1, 1, 1), (1, 2, 1, 2), (3, 1, 1, 1), (1, 1, 1, 2, 2),
         (1, 2, 1, 1, 1), (2, 2, 1, 1, 1), (1, 1, 2, 1, 1), (1, 1, 1, 1, 1), (2, 3, 1),
         (1, 1, 3, 1), (2, 1, 1, 2, 1), (1, 3, 1, 1)]

PROPS_OK = "\n".join(
    [f"PASS {law}" for law in (
        "base_for_topology", "meet_is_intersection", "injective_on_elements",
        "order_reflecting", "is_local_section", "join_is_union",
        "union_section_implies_compatible", "projects_onto_stone_image",
        "compact", "sections_exhausted", "sheaf_condition")]
    + ["binary meets: True; dual Hausdorff: True; equivalence holds"]) + "\n"

DOCS_VALIDATE = {
    "prod.txt": "balg B4: ok (4 elements, 2 ultrafilters)\n"
                "bset Prod: ok (6 elements over 4)\n",
    "showcase.txt": "balg B2: ok (2 elements, 1 ultrafilters)\n"
                    "bset X3: ok (3 elements over 2)\n"
                    "bset Cst: ok (2 elements over 2)\n"
                    "skew X3s: ok (3 elements)\n"
                    "skew Band3: ok\n"
                    "etale Efix: ok (3 points over 2)\n"
                    "etale Twin: ok (2 points over 1)\n"
                    "morphism collapse: ok\n"
                    "relmor spread: ok\n",
}


class Op:
    """One subcommand on one document, its known answer and its timings."""

    def __init__(self, name, argv, check, size):
        self.name, self.argv, self.check, self.size = name, argv, check, size
        self.raw = []            # seconds as timed, less the probes
        self.times = []          # seconds at the reference speed
        self.digest = None       # of the first output, to re-check repeats cheaply
        self.finding = None      # (law, witness) of a rejection


# ------------------------------------------------------------ output parsing

def _split_top(s):
    parts, depth, buf = [], 0, []
    for ch in s:
        depth += ch in "([{"
        depth -= ch in ")]}"
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def _key_lines(out, key):
    """Values of '  key: ...' / '  key e: ...' lines, as (head args, value)."""
    res = []
    for line in out.splitlines():
        s = line.strip()
        if s.startswith(key + " ") or s.startswith(key + ":"):
            head, value = s.split(":", 1)
            res.append((head.split()[1:], value.strip()))
    return res


def _finding(line):
    """(law, witness) from a 'FAIL law witness=(...)' report line."""
    tail = line.split(": FAIL ", 1)[1]
    law, rest = tail.split(" witness=(", 1)
    depth, end = 1, 0
    for end, ch in enumerate(rest):
        depth += ch in "([{"
        depth -= ch in ")]}"
        if depth == 0:
            break
    return law, tuple(_split_top(rest[:end]))


def _first_diff(out, expected):
    for k, (a, b) in enumerate(zip(out, expected)):
        if a != b:
            return f"at char {k}: got {out[k:k + 40]!r}, expected {expected[k:k + 40]!r}"
    return f"length {len(out)}, expected {len(expected)}"


# ------------------------------------------------------------- known answers

def expect_text(expected):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}: {out[:200]!r}"
        if out != expected:
            return "output " + _first_diff(out, expected)
        return None
    return check


def expect_skew(ps, name, expected):
    """to-skew output: the exact stanza, or failing that the same tables by id."""
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}: {out[:200]!r}"
        if out == expected:
            return None
        lines = [ln.strip() for ln in out.splitlines()]
        try:
            ids = _split_top(lines[1].split(":", 1)[1])
            circ, bullet = ps.skew_tables()
            for op, table in (("circ", circ), ("bullet", bullet)):
                at = lines.index(f"{op}:")
                header = lines[at + 1].split()
                got = {(x, y): v for x, row in zip(ids, lines[at + 2:at + 2 + len(ids)])
                       for y, v in zip(header, row.split())}
                want = {(ps.ids[i], ps.ids[j]): ps.ids[v]
                        for i, row in enumerate(table) for j, v in enumerate(row)}
                if got != want or lines[0] != f"skew {name} {{":
                    return f"{op} table differs from the formula"
        except (IndexError, ValueError):
            return "unreadable skew stanza: " + _first_diff(out, expected)
        return None
    return check


def expect_gen(ps):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = {args[0]: set(_split_top(v)) for args, v in _key_lines(out, "stalk")}
        if got != {e: set(m) for e, m in ps.stalks.items()}:
            return "stalks differ from the product"
        return None
    return check


def expect_ultrafilters(ps):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = set()
        for line in out.splitlines():
            members, atom = line.split(" = {", 1)[1].rsplit("} over ", 1)
            got.add((atom, frozenset(members.split(", "))))
        return None if got == ps.ultrafilters() else "ultrafilters differ"
    return check


def expect_etale_dual(ps):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        (_, total), = _key_lines(out, "total")
        (_, base), = _key_lines(out, "base")
        (_, proj), = _key_lines(out, "proj")
        counts = {}
        for pair in _split_top(proj):
            counts[pair.split("->")[1]] = counts.get(pair.split("->")[1], 0) + 1
        if (set(_split_top(base)) != set(ps.fibers()) or counts != ps.fibers()
                or len(_split_top(total)) != sum(ps.sizes)):
            return f"dual points {counts}, expected {ps.fibers()}"
        return None
    return check


def expect_sections(es):
    """etale dualize: prod over each base subset of its fiber sizes."""
    fiber = dict(zip(es.base, es.fibers))

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        stalks = _key_lines(out, "stalk")
        total = 0
        for (sub,), members in stalks:
            want = 1
            for x in _split_top(sub[1:-1]):
                want *= fiber[x]
            got = len(_split_top(members))
            if got != want:
                return f"{got} sections over {sub}, expected {want}"
            total += got
        if len(stalks) != 2 ** len(es.base) or total != es.sections():
            return f"{total} sections, expected {es.sections()}"
        return None
    return check


def expect_reject(laws, make_raw, line_prefix, size, valid=False):
    """validate on a mutant: a rejection confirmed by laws.holds and, where a
    scan is affordable, equal to its first finding; or an accept of a mutant
    known to be valid.  ``make_raw`` builds the mutant's raw data."""
    scan = {}

    def check(rc, out):
        raw = make_raw()
        line = next((ln for ln in out.splitlines() if ln.startswith(line_prefix)), "")
        if ": FAIL " not in line:
            if rc == 0 and ": ok" in line:
                if valid:
                    return None
                if raw["kind"] == "bset" and size <= SCAN_MAX["bset"]:
                    if "found" not in scan:
                        scan["found"] = laws.scan(raw)
                    if scan["found"] is None:
                        return None
                return f"false accept: {line!r}"
            return f"exit {rc}, no verdict line: {out[:200]!r}"
        if rc != 1:
            return f"exit {rc} on a rejection"
        law, witness = _finding(line)
        check.finding = (law, witness)
        if valid:
            return f"false reject of a valid mutant: {law} {witness}"
        if laws.holds(law, raw, witness):
            return f"witness not confirmed: {law} holds at {witness}"
        if size <= SCAN_MAX[raw["kind"]]:
            if "found" not in scan:
                scan["found"] = laws.scan(raw)
            if scan["found"] != (law, witness):
                return f"{law} {witness} is not the first scan finding {scan['found']}"
        return None

    check.finding = None
    return check


# ------------------------------------------------------------------ workloads

class Writer:
    """Writes each set-up document to a new file in the work directory."""

    def __init__(self):
        self.count = 0

    def __call__(self, text):
        self.count += 1
        path = WORK / f"d{self.count}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _shape_name(sizes):
    return "x".join(map(str, sizes))


def accept_ops(rng, seed, laws, write):
    ops = []
    for doc, expected in DOCS_VALIDATE.items():
        path = str(ROOT / "docs" / doc)
        ops.append(Op(f"validate docs/{doc}", ["validate", path], expect_text(expected), 0))
    prod = inst.ProductSet((2, 1), labels=[["a1", "a2"], ["b1"]])
    ops.append(Op("to-skew docs/prod.txt", ["to-skew", str(ROOT / "docs" / "prod.txt"), "Prod"],
                  expect_skew(prod, "Prod_skew", "\n".join(
                      prod.skew_lines("Prod_skew", *prod.skew_tables())) + "\n"), 6))
    for sizes in SMALL + DEEP + WIDE:
        ps = inst.ProductSet(sizes, rng)
        n, k = ps.size, len(sizes)
        tag = _shape_name(sizes)
        bpath = write(ps.bset_text())
        circ, bullet = ps.skew_tables()
        skew_text = "\n".join(ps.skew_lines("G_skew", circ, bullet)) + "\n"
        spath = write(skew_text)
        ops += [
            Op(f"gen {tag}", ["gen", "--atoms", str(k), "--stalks", ",".join(map(str, sizes)),
                              "--seed", str(seed)], expect_gen(ps), n),
            Op(f"validate bset {tag}", ["validate", bpath], expect_text(
                f"balg B: ok ({2 ** k} elements, {k} ultrafilters)\n"
                f"bset G: ok ({n} elements over {2 ** k})\n"), n),
            Op(f"to-skew {tag}", ["to-skew", bpath, "G"], expect_skew(ps, "G_skew", skew_text), n),
            Op(f"validate skew {tag}", ["validate", spath],
               expect_text(f"skew G_skew: ok ({n} elements)\n"), n),
        ]
        if sizes != WIDE[-1]:   # left out to keep one pass inside a run (README)
            ops.append(Op(f"roundtrip skew {tag}", ["roundtrip", spath, "G_skew"],
                          expect_text(f"skew round trip: identity ({n} elements)\n"), n))
    return ops


def dualize_ops(rng, seed, laws, write):
    ops = []
    # DEEP without 3x3x3x3: its dualize (11 s) is a single sample of more than
    # a third of a run, which no run can measure steadily (README)
    for sizes in [s for s in SMALL if len(s) > 1] + DEEP[:-1]:
        ps = inst.ProductSet(sizes, rng)
        n, tag = ps.size, _shape_name(sizes)
        path = write(ps.bset_text())
        ops.append(Op(f"dualize {tag}", ["dualize", path, "G"], expect_etale_dual(ps), n))
        ops.append(Op(f"ultrafilters {tag}", ["ultrafilters", path, "G"],
                      expect_ultrafilters(ps), n))
        if n < 162:             # left out at 162 to keep one pass inside a run (README)
            ops.append(Op(f"roundtrip alpha {tag}", ["roundtrip", path, "G"],
                          expect_text(f"alpha: isomorphism ({n} elements)\n"), n))
        if n <= 81:             # props enumerates 2^|base| sieves; bases here are <= 16
            ops.append(Op(f"props {tag}", ["props", path, "G"], expect_text(PROPS_OK), n))
    for fibers in ETALE:
        es = inst.EtaleSpace(fibers, rng)
        path = write(es.text())
        tag = _shape_name(fibers)
        ops.append(Op(f"dualize etale {tag}", ["dualize", path, "E"], expect_sections(es),
                      es.sections()))
        ops.append(Op(f"roundtrip beta {tag}", ["roundtrip", path, "E"],
                      expect_text(f"beta: isomorphism ({sum(fibers)} points)\n"), sum(fibers)))
    return ops


REJECT_BALG = {(2, 2, 2, 2): 12, (1,) * 6: 12}
REJECT_BSET = {(2, 2, 2): 10, (1, 1, 3, 3): 10, (2, 2, 2, 2): 10}
REJECT_SKEW = {(2, 2, 2): 12, (1, 1, 3, 3): 12, (2, 2, 2, 2): 12, (2, 2, 2, 5): 12,
               (3, 3, 3, 3): 12}


def reject_ops(rng, seed, laws, write):
    ops = []
    for sizes, count in REJECT_BALG.items():
        ps = inst.ProductSet(sizes, rng)
        tag = _shape_name(sizes)
        for m in range(count):
            # drops and additions alternate (the engine draws them 50/50)
            raw, valid = inst.balg_mutant(ps.raw_base(), rng, drop=m % 2 == 0)
            leq = ", ".join(f"{x}<={y}" for x, y in raw["leq"])
            path = write(f"balg M {{\n  elements: {', '.join(raw['elements'])}\n"
                         f"  leq: {leq}\n  bottom: 0\n}}\n")
            n = len(raw["elements"])
            ops.append(Op(f"balg mutant {tag}#{m}", ["validate", path],
                          expect_reject(laws, lambda raw=raw: raw, "balg M:", n, valid), n))
    for sizes, count in REJECT_BSET.items():
        ps = inst.ProductSet(sizes, rng)
        tag = _shape_name(sizes)
        for m in range(count):
            # in-stalk targets for 3 edits in 5 (the engine draws them 60/40)
            raw = inst.bset_mutant(ps, rng, inside=m % 5 < 3)
            path = write("\n".join(ps.balg_lines() + ps.bset_lines(
                "M", restrict=raw["restrict"])) + "\n")
            ops.append(Op(f"bset mutant {tag}#{m}", ["validate", path],
                          expect_reject(laws, lambda raw=raw: raw, "bset M:", ps.size), ps.size))
    for sizes, count in REJECT_SKEW.items():
        ps = inst.ProductSet(sizes, rng)
        n, tag = ps.size, _shape_name(sizes)
        circ, bullet = ps.skew_tables()
        lines = ps.skew_lines("M", circ, bullet)
        at = {"circ": lines.index("  circ:") + 2, "bullet": lines.index("  bullet:") + 2}
        half = count // 2
        for m in range(count):
            # circ and bullet edits alternate, each half with one row per stratum
            # of the table, so every seed spreads its edits the same way
            op, s = ("circ", "bullet")[m % 2], m // 2
            i = rng.randrange(s * n // half, (s + 1) * n // half)
            table = circ if op == "circ" else bullet
            j, v = inst.skew_mutant(table, rng, i)
            edited = list(table[i])
            edited[j] = v
            mut = list(lines)
            mut[at[op] + i] = "    " + " ".join(ps.ids[e] for e in edited)
            path = write("\n".join(mut) + "\n")
            ops.append(Op(f"skew mutant {tag}#{m} {op}[{i}][{j}]", ["validate", path],
                          expect_reject(laws, _skew_raw(ps, circ, bullet, op, i, edited),
                                        "skew M:", n), n))
    return ops


def _skew_raw(ps, circ, bullet, op, i, edited):
    """A function that makes the mutant's raw data for skewstone.laws; the id
    tables exist only while a check needs them."""
    def build():
        tables = {}
        for key, table in (("circ", circ), ("bullet", bullet)):
            tables[key] = [[ps.ids[v] for v in (edited if key == op and r == i else row)]
                           for r, row in enumerate(table)]
        return {"kind": "skew", "elements": list(ps.ids), "zero": "0", **tables}
    return build


WORKLOADS = {"accept": accept_ops, "dualize": dualize_ops, "reject": reject_ops}


# ----------------------------------------------------------------- running

def import_package():
    """A fresh import of skewstone from this checkout's src/."""
    for name in [m for m in sys.modules if m == "skewstone" or m.startswith("skewstone.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("skewstone.cli")
    pkg = sys.modules["skewstone"]
    if Path(pkg.__file__).resolve().parent != SRC / "skewstone":
        raise ImportError(f"skewstone imported from {pkg.__file__}, not from {SRC}")
    return pkg, cli


def set_up(workload, seed):
    """Import the package and write the workload's documents; returns
    (package, cli, ops)."""
    pkg, cli = import_package()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    ops = WORKLOADS[workload](random.Random(seed), seed, pkg.laws, Writer())
    # one fixed order for every seed that spreads each kind and size of
    # operation over the pass, so that no group is timed in one stretch of
    # a machine whose speed drifts
    random.Random(0).shuffle(ops)
    return pkg, cli, ops


def call(cli, argv):
    """One CLI call with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # an unexpected exception is a failed operation
            rc = f"exception {type(e).__name__}: {e}"
    return rc, buf.getvalue()


def run_op(cli, op):
    """One CLI call timed as it runs; returns (seconds, exit code, stdout)."""
    gc.collect()
    t0 = perf_counter()
    rc, out = call(cli, op.argv)
    return perf_counter() - t0, rc, out


def verdict(op, rc, out):
    """None when the output is the known answer, else the failure."""
    digest = hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest()
    if op.digest is not None:
        return None if digest == op.digest else "output changed between repeats"
    failure = op.check(rc, out)
    op.finding = getattr(op.check, "finding", None)
    if failure is None:
        op.digest = digest
    return failure


def measure(clock, cli, ops, seconds, failures):
    """One full pass over the mix, then repeats until ``seconds`` are up,
    each time of the operation with the least time measured so far among
    those that still fit, so that cheap operations collect more samples."""
    deadline = perf_counter() + seconds
    queue = [(0.0, k) for k in range(len(ops))]
    attempted = 0
    while queue:
        total, k = heapq.heappop(queue)
        op = ops[k]
        if op.raw and perf_counter() + op.raw[0] > deadline:
            continue
        gc.collect()
        scaled, dt, (rc, out) = clock.time(functools.partial(call, cli, op.argv))
        attempted += 1
        op.times.append(scaled)
        op.raw.append(dt)
        failure = verdict(op, rc, out)
        if failure:
            failures.append((op.name, failure))
        heapq.heappush(queue, (total + dt, k))
    return attempted


def measure_traced(pkg, cli, ops, failures):
    """Each operation untraced, then traced; outputs must agree."""
    from spans import Tracer
    tracer = Tracer(pkg)
    untraced = traced = 0.0
    for op in ops:
        dt, rc, out = run_op(cli, op)
        untraced += dt
        failure = verdict(op, rc, out)
        tracer.install()
        try:
            dt_t, rc_t, out_t = run_op(cli, op)
        finally:
            tracer.uninstall()
        traced += dt_t
        op.raw.append(dt)
        op.times.append(dt)
        if failure:
            failures.append((op.name, failure))
        elif (rc_t, out_t) != (rc, out):
            failures.append((op.name, "traced output differs from untraced output"))
    return tracer, untraced, traced


def git_sha():
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "skewstone").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not __debug__:
        # the package's asserts are part of its checking cost
        print("refusing to run under python -O: asserts would be stripped", file=sys.stderr)
        return 2

    setups, failures = [], []
    with ReferenceClock() as clock:
        try:
            for _ in range(SETUP_REPS):
                gc.collect()
                scaled, _, (pkg, cli, ops) = clock.time(
                    functools.partial(set_up, args.workload, args.seed))
                setups.append(scaled)
            # set-up objects live to the end; keep them out of the collections
            # that run before each operation
            gc.collect()
            gc.freeze()
            if args.trace:
                tracer, untraced, traced = measure_traced(pkg, cli, ops, failures)
                attempted = 2 * len(ops)
            else:
                attempted = measure(clock, cli, ops, args.seconds, failures)
        except (ImportError, OSError) as e:
            print(f"cannot set up: {e}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(WORK, ignore_errors=True)

    medians = [statistics.median(op.times) for op in ops]
    sizes = sorted({op.size for op in ops if op.size})
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "git_sha": git_sha(),
        "src_digest": src_digest(), "nproc": os.cpu_count(),
        "mix_ops": len(ops), "attempted": attempted, "instance_sizes": sizes,
        "setup_reps_s": [round(s, 4) for s in setups],
        "probe_nominal_ms": round(1000 * PROBE_NOMINAL_S, 4),
        "probe_median_ms": round(1000 * statistics.median(clock.probe_means), 4),
    }
    print("provenance " + json.dumps(provenance))
    slowest = sorted(zip(medians, (op.name for op in ops)), reverse=True)[:8]
    print("slowest ops (median s): " + "; ".join(f"{n} {t:.4f}" for t, n in slowest))
    if args.workload == "reject":
        findings = [(op.name, op.finding) for op in ops]
        print("witness_digest " + hashlib.sha256(
            json.dumps(findings).encode()).hexdigest()[:16]
              + f" over {sum(f is not None for _, f in findings)} rejections")
    for name, why in failures:
        print(f"FAILED {name}: {why}")

    raw = [statistics.median(op.raw) for op in ops]
    print(f"as timed: ops_per_s {len(ops) / sum(raw):.6g}, op_p50_ms "
          f"{1000 * statistics.median(raw):.6g}, op_p90_ms "
          f"{1000 * statistics.quantiles(raw, n=10)[8]:.6g}")

    failed = len(failures)
    e2e = {
        "ops_per_s": (len(ops) / sum(medians), "1/s"),
        "op_p50_ms": (1000 * statistics.median(medians), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(medians, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (failed / attempted, "1"),
    }
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"over {len(ops)} operations in the mix ({attempted} timed calls), "
          f"{sum(m * 1000 > e2e['op_p90_ms'][0] for m in medians)} beyond p90")
    if args.trace:
        metrics = tracer.metrics(untraced, traced)
        print("top self time (s, calls): " + "; ".join(
            f"{k} {s} {c}" for k, s, c in tracer.top_functions()))
        print(f"spans recorded: {len(tracer.spans)}")
    else:
        del e2e["failed_frac"]   # carried by "attempted" and "failed" below
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
