"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import io
import itertools
import random
import time
from collections import Counter
from functools import lru_cache

from skewstone import balg, bset, cli, duality, etale, skew, textio
from skewstone.errors import StructureError

import morphism_reference
import mutation_engine as me
from conftest import cover_maps


@contextlib.contextmanager
def criterion(num, title):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [{title}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num} [{title}]: PASS ({time.time() - t0:.1f}s)")


def all_profiles(max_atoms=3, max_size=3):
    out = []
    for k in range(1, max_atoms + 1):
        out.extend(itertools.product(range(1, max_size + 1), repeat=k))
    return out


@lru_cache(maxsize=None)
def instance(sizes):
    return bset.generate_boolean_set(sizes)


@lru_cache(maxsize=None)
def instance_skew(sizes):
    return bset.to_skew(instance(sizes))


SMALL_PROFILES = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2)]  # carriers of <= 6
TINY_PROFILES = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]  # <= 2 atoms, sizes <= 2


@lru_cache(maxsize=None)
def morphism_pool(src_sizes, dst_sizes):
    """All Boolean-set morphisms with proper base homs between tiny instances."""
    X, Y = instance(src_sizes), instance(dst_sizes)
    return tuple(bset.enumerate_bset_morphisms(X, Y, proper_only=True))


def test_criterion_1_skew_axiom_soundness():
    with criterion(1, "skew-axiom soundness"):
        t0 = time.time()
        profiles = all_profiles()
        assert len(profiles) == 39
        for sizes in profiles:
            S = instance_skew(sizes)  # validate_skew checks bands and SB1-SB5
            rep = skew.check_consequences(S)
            assert rep.all_ok, f"{sizes}: {rep.failures()}"
            gq = skew.gamma_classes(S)  # congruence + Boolean quotient checks
            assert len(gq.algebra.atoms) == len(sizes)
        elapsed = time.time() - t0
        assert elapsed < 30, f"took {elapsed:.1f}s"
        print(f"  {len(profiles)} generated instances, axioms and consequences"
              f" exhaustive, {elapsed:.1f}s", end="")


def test_criterion_2_category_isomorphism_round_trips():
    with criterion(2, "Boolean set / skew algebra round trips"):
        for sizes in all_profiles():
            X = instance(sizes)
            S = instance_skew(sizes)
            assert bset.bset_struct_eq(bset.from_skew(S), X), sizes
            assert skew.skew_struct_eq(bset.to_skew(bset.from_skew(S)), S), sizes

        rng = random.Random(20240808)
        for _ in range(50):
            k = rng.randint(1, 3)
            sizes = tuple(rng.randint(1, 3) for _ in range(k))
            X = bset.generate_boolean_set(sizes, seed=rng.randint(0, 10 ** 6))
            S = bset.to_skew(X)
            assert bset.bset_struct_eq(bset.from_skew(S), X)
            assert skew.skew_struct_eq(bset.to_skew(bset.from_skew(S)), S)

        # morphism translation: between small instances the skew morphisms and
        # the Boolean-set morphisms are literally the same maps; the skew side
        # is the backtracking search over the tables (morphism_reference), as
        # skew.enumerate_skew_morphisms itself goes through the Boolean sets
        total = 0
        for p1 in SMALL_PROFILES:
            for p2 in SMALL_PROFILES:
                S1, S2 = instance_skew(p1), instance_skew(p2)
                Y1, Y2 = bset.from_skew(S1), bset.from_skew(S2)
                skew_maps = {
                    frozenset(m.mapping.items())
                    for m in morphism_reference.enumerate_skew_morphisms(S1, S2)
                }
                bset_maps = {
                    frozenset(m.mapping.items())
                    for m in bset.enumerate_bset_morphisms(Y1, Y2)
                }
                assert skew_maps == bset_maps, (p1, p2)
                total += len(skew_maps)
        assert total > 100
        print(f"  39 + 50 instances round-tripped; {total} morphisms translated"
              f" across {len(SMALL_PROFILES) ** 2} instance pairs", end="")


def test_criterion_3_section_double_dual():
    with criterion(3, "element-to-sections double dual"):
        for sizes in all_profiles():
            m = duality.bset_double_dual(instance(sizes))
            assert len(set(m.mapping.values())) == len(m.mapping), sizes
        print(f"  isomorphism verified on {len(all_profiles())} instances", end="")


def test_criterion_4_point_double_dual():
    with criterion(4, "point-to-ultrafilters double dual"):
        t0 = time.time()
        count = 0
        for n in range(1, 4):
            base = [f"u{i}" for i in range(n)]
            for m in range(n, 6):
                total = [f"e{i}" for i in range(m)]
                for proj_choice in itertools.product(base, repeat=m):
                    if set(proj_choice) != set(base):
                        continue
                    sp = etale.validate_etale(
                        total, base, dict(zip(total, proj_choice))
                    )
                    duality.etale_double_dual(sp)
                    count += 1
        elapsed = time.time() - t0
        assert count == 249
        assert elapsed < 10, f"took {elapsed:.1f}s"
        print(f"  all {count} labeled surjections with <=5 points over <=3,"
              f" {elapsed:.1f}s", end="")


def test_criterion_5_finite_stone_duality():
    with criterion(5, "finite Stone duality"):
        for k in range(9):
            points = tuple(f"p{i}" for i in range(k))
            B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
            rep = balg.classical_properties_report(B)
            assert rep.all_ok, f"{k} atoms: {rep.failures()}"
            ultra = B.ultrafilters()
            images = {B.stone_map(a) for a in B.elements}
            assert len(images) == len(B.elements) == 2 ** len(ultra)
        print("  powerset algebras with 0..8 atoms, all seven classical"
              " properties exhaustive", end="")


def test_criterion_6_dual_topology_suite():
    with criterion(6, "dual-topology property suite"):
        for sizes in all_profiles():
            rep = duality.check_topology(instance(sizes))
            assert rep.all_ok, f"{sizes}: {rep.failures()}"
        print(f"  10 properties x {len(all_profiles())} instances", end="")


def test_criterion_7_meet_partial_equivalence():
    with criterion(7, "meet preservation vs partial-map duality"):
        total = 0
        both_true = both_false = 0
        for p1 in TINY_PROFILES:
            for p2 in TINY_PROFILES:
                for m in morphism_pool(p1, p2):
                    rep = duality.check_meet_partial_correspondence(m)
                    assert rep.equivalent, (p1, p2, m.mapping)
                    total += 1
                    if rep.preserves_meets:
                        both_true += 1
                    else:
                        both_false += 1
        assert total > 100 and both_true and both_false
        print(f"  {total} morphisms ({both_true} meet-preserving,"
              f" {both_false} not), both sides computed independently", end="")


def test_criterion_8_functor_laws_and_naturality():
    with criterion(8, "functor laws and naturality"):
        rng = random.Random(1234)

        pools = {}
        for p1 in TINY_PROFILES:
            for p2 in TINY_PROFILES:
                pool = morphism_pool(p1, p2)
                if pool:
                    pools[(p1, p2)] = pool
        checked = 0
        while checked < 50:
            (p1, p2) = rng.choice(sorted(pools))
            candidates = [key for key in pools if key[0] == p2]
            if not candidates:
                continue
            (_, p3) = rng.choice(sorted(candidates))
            f = rng.choice(pools[(p1, p2)])
            g = rng.choice(pools[(p2, p3)])
            rep = duality.check_functor_laws_bset(f, g)
            assert rep.all_ok, str(rep)
            checked += 1

        spaces = [
            etale.validate_etale(["e1", "e2", "e3"], ["u", "v"],
                                 {"e1": "u", "e2": "u", "e3": "v"}),
            etale.validate_etale(["f1", "f2"], ["w"], {"f1": "w", "f2": "w"}),
            etale.validate_etale(["q"], ["z"], {"q": "z"}),
            etale.validate_etale(["g1", "g2", "g3", "g4"], ["s", "t"],
                                 {"g1": "s", "g2": "s", "g3": "t", "g4": "t"}),
        ]
        rel_pools = {}
        for i, S in enumerate(spaces):
            for j, T in enumerate(spaces):
                pool = tuple(etale.enumerate_covering_relational(S, T))
                if pool:
                    rel_pools[(i, j)] = pool
        checked_rel = 0
        while checked_rel < 50:
            (i, j) = rng.choice(sorted(rel_pools))
            candidates = [key for key in rel_pools if key[0] == j]
            if not candidates:
                continue
            (_, k) = rng.choice(sorted(candidates))
            chi = rng.choice(rel_pools[(i, j)])
            psi = rng.choice(rel_pools[(j, k)])
            rep = duality.check_functor_laws_relational(chi, psi)
            assert rep.all_ok, str(rep)
            checked_rel += 1
        print(f"  {checked} section-functor pairs and {checked_rel}"
              f" point-functor pairs, identities, compositions and"
              f" naturality squares", end="")


def test_criterion_9_sheaf_condition_equivalence():
    with criterion(9, "sheaf condition matches Boolean-set validation"):
        t0 = time.time()
        B4 = balg.validate_balg(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
            "0",
        )
        agree = 0
        sheaves = 0
        for s0, sa, sb, s1 in itertools.product((1, 2), repeat=4):
            stalks = {
                "0": [f"z{i}" for i in range(s0)],
                "a": [f"a{i}" for i in range(sa)],
                "b": [f"b{i}" for i in range(sb)],
                "1": [f"t{i}" for i in range(s1)],
            }
            map_1a = list(itertools.product(stalks["a"], repeat=s1))
            map_1b = list(itertools.product(stalks["b"], repeat=s1))
            map_a0 = list(itertools.product(stalks["0"], repeat=sa))
            map_b0 = list(itertools.product(stalks["0"], repeat=sb))
            for ra, rb, r0a, r0b in itertools.product(map_1a, map_1b, map_a0, map_b0):
                restrict = {
                    ("1", "a"): dict(zip(stalks["1"], ra)),
                    ("1", "b"): dict(zip(stalks["1"], rb)),
                    ("a", "0"): dict(zip(stalks["a"], r0a)),
                    ("b", "0"): dict(zip(stalks["b"], r0b)),
                }
                try:
                    P = bset.validate_presheaf(B4, stalks, restrict)
                except StructureError:
                    continue
                is_sheaf = bset.sheaf_condition(P)
                try:
                    bset.validate_boolean_set(P)
                    is_bset = True
                except StructureError:
                    is_bset = False
                assert is_sheaf == is_bset, (stalks, restrict)
                agree += 1
                sheaves += is_sheaf
        elapsed = time.time() - t0
        assert agree >= 150 and 0 < sheaves < agree
        assert elapsed < 60, f"took {elapsed:.1f}s"
        print(f"  {agree} presheaves on the 2-atom algebra"
              f" ({sheaves} sheaves), 100% agreement, {elapsed:.1f}s", end="")


def _b8_raw():
    B, _, _ = balg.powerset_balg(("p", "q", "r"), balg.render_braces(("p", "q", "r")))
    return {
        "kind": "balg",
        "elements": list(B.elements),
        "leq": [(lo, hi) for hi, lo in B.cover_pairs],
        "bottom": B.bottom,
    }


def _prod_skew_raw():
    S = instance_skew((2, 1))
    els = list(S.elements)
    return {
        "kind": "skew",
        "elements": els,
        "zero": S.zero,
        "circ": [[S.circ(x, y) for y in els] for x in els],
        "bullet": [[S.bullet(x, y) for y in els] for x in els],
    }


def _gen_bset_raw(sizes):
    X = instance(sizes)
    return {
        "kind": "bset",
        "base": {
            "kind": "balg",
            "elements": list(X.base.elements),
            "leq": [(lo, hi) for hi, lo in X.base.cover_pairs],
            "bottom": X.base.bottom,
        },
        "stalks": {e: list(X.stalks[e]) for e in X.base.elements},
        "restrict": cover_maps(X),
    }


def test_criterion_10_negative_witness_quality(tmp_path):
    with criterion(10, "negative-witness quality"):
        from test_mutations import B4_RAW, PROD_RAW, X3_RAW

        plan = [
            (B4_RAW, 40),
            (_b8_raw(), 30),
            (X3_RAW, 40),
            (_prod_skew_raw(), 30),
            (PROD_RAW, 40),
            (_gen_bset_raw((2, 2)), 40),
        ]
        rng = random.Random(424242)
        accepts = rejects = 0
        replayed = 0
        law_mix = Counter()
        for raw, count in plan:
            assert me.validate_raw(raw) is None, "fixture must start valid"
            for _ in range(count):
                mut = me.mutate(raw, rng)
                outcome, info = me.check_mutant(mut)
                if outcome == "accept":
                    accepts += 1
                    continue
                rejects += 1
                law, witness = info
                law_mix[law] += 1
                stanzas = me.raw_to_stanzas(mut, "M")
                f = tmp_path / f"mut{replayed}.txt"
                f.write_text("\n".join(textio.print_stanza(s) for s in stanzas))
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([
                        "replay", str(f), "M",
                        "--law", law, "--witness", ",".join(witness),
                    ])
                assert code == 0 and "confirmed" in buf.getvalue(), (law, witness)
                replayed += 1
        total = accepts + rejects
        assert total >= 200 and rejects >= 100
        assert len(law_mix) >= 8, law_mix
        print(f"  {total} mutations: {rejects} rejected with confirmed"
              f" witnesses (all replayed via CLI), {accepts} still valid,"
              f" 0 false accepts, 0 false rejects;"
              f" {len(law_mix)} distinct laws hit", end="")
