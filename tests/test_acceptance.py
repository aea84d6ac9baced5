"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  All comparisons are exact equality of canonical forms
(rational arithmetic throughout); timing budgets are asserted."""
import itertools
import random
import time

import pytest

from conftest import powers_morphism, random_matrix, random_rank_sequence, unipotent_morphism
from zclosure.closure import Caps, pipeline, regular_closure
from zclosure.commands import recurrence_chain
from zclosure.constructions import determinize
from zclosure.errors import InfeasibleError
from zclosure.exactlin import Matrix
from zclosure.facttree import build_rank_tree, build_tree, extract_stable_factor, validate_tree
from zclosure.ideals import gens_from_strings, ideal_slice
from zclosure.lang import MorphismPair
from zclosure.oracle import oracle_closure
from zclosure.reduction import Vass, vass_to_constrained
from zclosure.stable import is_stable
from zclosure.automata import Nfa


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, name


def _anbn_vass() -> Vass:
    return Vass(
        ("s", "t"), "s", ("t",),
        (("s", "a", 1, "s"), ("s", "b", -1, "t"), ("t", "b", -1, "t")),
    )


def _rvsc2_vass() -> Vass:
    return Vass(
        ("s", "t"), "s", ("t",),
        (("s", "a", 1, "s"), ("s", "b", -1, "t"), ("t", "b", -1, "s")),
    )


def _vass_pipeline(vass: Vass, mp: MorphismPair, mode: str, degree: int):
    mp_t, dfa = vass_to_constrained(vass, mp)
    return pipeline(mp_t, mode, degree, nfa=dfa)


def test_criterion_1_anbn_reach_and_cover():
    mp = unipotent_morphism().with_eta(3)
    t0 = time.monotonic()
    reach = _vass_pipeline(_anbn_vass(), mp, "vass-reach", 2)
    t_reach = time.monotonic() - t0
    want_r = ideal_slice(
        gens_from_strings(2, 2, ["x11 - x12*x21 - 1", "x12 - x21", "x22 - 1"]), 2
    )
    t0 = time.monotonic()
    cover = _vass_pipeline(_anbn_vass(), mp, "vass-cover", 2)
    t_cover = time.monotonic() - t0
    want_c = ideal_slice(gens_from_strings(2, 2, ["x11 - x12*x21 - 1", "x22 - 1"]), 2)
    _report(
        "a^n b^n reach and cover ideals at degree 2",
        reach.space == want_r and cover.space == want_c
        and reach.oracle_checked and cover.oracle_checked
        and t_reach < 60 and t_cover < 60,
        f"reach {t_reach:.1f}s, cover {t_cover:.1f}s, eta override 3",
    )


def test_criterion_2_singleton_reach():
    t0 = time.monotonic()
    res = pipeline(powers_morphism(eta=2), "reach", 1)
    elapsed = time.monotonic() - t0
    want = ideal_slice(gens_from_strings(1, 1, ["x11 - 1"]), 1)
    _report(
        "powers-of-two reachability is the singleton {1}",
        res.space == want and elapsed < 5,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_dyck():
    mp = unipotent_morphism()
    t0 = time.monotonic()
    oracle = oracle_closure(mp, "reach", 2, 14)
    det = gens_from_strings(2, 2, ["x11*x22 - x12*x21 - 1"])
    want = ideal_slice(det, 2)
    reach = pipeline(mp.with_eta(2), "reach", 2)
    elapsed = time.monotonic() - t0
    _report(
        "Dyck: oracle at length 14 stabilizes to the determinant relation and "
        "the reach pipeline agrees",
        oracle.stabilized
        and oracle.space.space_dim == 1
        and oracle.space == want
        and reach.space == want
        and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_rvsc2():
    t0 = time.monotonic()
    phi1 = MorphismPair(
        ("a", "b"), 2,
        {"a": Matrix([[2, 0], [0, 4]]), "b": Matrix([[1, 0], [1, 1]])},
        {"a": 1, "b": -1},
    ).with_eta(2)
    want = ideal_slice(gens_from_strings(2, 2, ["x12", "x11^2 - x22"]), 2)
    cover = _vass_pipeline(_rvsc2_vass(), phi1, "vass-cover", 2)
    reach = _vass_pipeline(_rvsc2_vass(), phi1, "vass-reach", 2)

    # the 3x3 companion is resolved by the oracle and annotated as the
    # documented discrepancy in the corpus
    from zclosure.commands import verify_corpus

    entries = {e["name"]: e for e in verify_corpus()}
    phi2 = [e for name, e in entries.items() if "3x3" in name]
    elapsed = time.monotonic() - t0
    _report(
        "two-state vass: reference 2x2 ideal reproduced; 3x3 entries "
        "oracle-resolved with DISCREPANCY annotation",
        cover.space == want and reach.space == want
        and cover.oracle_checked and reach.oracle_checked
        and len(phi2) == 2
        and all(e["status"] == "DISCREPANCY" for e in phi2)
        and elapsed < 300,
        f"{elapsed:.1f}s",
    )


def test_criterion_5_zero_desk_scale():
    mp = powers_morphism()  # default eta = 17
    t0 = time.monotonic()
    res = pipeline(mp, "zero", 1)
    oracle = oracle_closure(mp, "zero", 1, 12)
    elapsed = time.monotonic() - t0
    want = ideal_slice(gens_from_strings(1, 1, ["x11 - 1"]), 1)
    _report(
        "zero pipeline at the guaranteed threshold (69-state product-alphabet "
        "automaton) matches the stabilized oracle",
        res.method == "bz+flat"
        and res.space == want
        and oracle.stabilized
        and oracle.space == res.space
        and elapsed < 600,
        f"{elapsed:.1f}s",
    )


def test_criterion_6_tree_property_suite():
    rng = random.Random(100)
    t0 = time.monotonic()
    failures = 0
    for _ in range(500):
        d = rng.choice([1, 2, 3])
        ms = [random_matrix(rng, d) for _ in range(rng.randint(1, 50))]
        t = build_tree(ms)
        if not validate_tree(t, ms) or t.height > d * (d + 3):
            failures += 1
    for _ in range(200):
        d = rng.choice([1, 2, 3])
        r = rng.randint(1, d)
        ms = random_rank_sequence(rng, d, r, rng.randint(1, 16))
        t = build_rank_tree(ms)
        if not validate_tree(t, ms) or t.height > d + 2:
            failures += 1
    _report(
        "500 random factorization trees within d(d+3) and 200 rank-level "
        "trees within d+2",
        failures == 0,
        f"{time.monotonic() - t0:.1f}s",
    )


def test_criterion_7_stable_factor_suite():
    rng = random.Random(101)
    t0 = time.monotonic()
    mp1 = MorphismPair(
        ("a", "b", "c"), 1,
        {"a": Matrix([[2]]), "b": Matrix([[3]]), "c": Matrix([[0]])},
        {"a": 1, "b": -1, "c": 0},
    )
    failures = 0
    for trial in range(100):
        sign = 1 if trial % 2 == 0 else -1
        extra = rng.randint(0, 10)
        ups = 17 + extra if sign > 0 else extra
        downs = extra if sign > 0 else 17 + extra
        letters = ["a"] * ups + ["b"] * downs + ["c"] * rng.randint(0, 4)
        rng.shuffle(letters)
        w = tuple(letters)
        i, j = extract_stable_factor(w, mp1, sign)
        u = w[i:j]
        if not (sign * mp1.weight(u) > 0 and is_stable(mp1.image(u))):
            failures += 1
    nil = Matrix([[0, 1], [0, 0]])
    mp2 = MorphismPair(
        ("a", "b", "s"), 2,
        {"a": Matrix([[1, 1], [0, 1]]), "b": Matrix([[1, 0], [1, 1]]), "s": nil},
        {"a": 1, "b": -1, "s": 0},
    )
    assert mp2.eta == 1025
    structured = [
        tuple("a" * 1025),
        tuple("ab" * 512) + tuple("a" * 1025),
        tuple("a" * 600) + ("s",) + tuple("a" * 425),
    ]
    for w in structured:
        i, j = extract_stable_factor(w, mp2, 1)
        u = w[i:j]
        if not (mp2.weight(u) > 0 and is_stable(mp2.image(u))):
            failures += 1
        m = tuple("b" if x == "a" else ("a" if x == "b" else x) for x in w)
        i, j = extract_stable_factor(m, mp2, -1)
        u = m[i:j]
        if not (mp2.weight(u) < 0 and is_stable(mp2.image(u))):
            failures += 1
    _report(
        "100 threshold-weight words at d=1 and 6 structured words at "
        "weight +-1025 all yield stable factors of the right sign",
        failures == 0,
        f"{time.monotonic() - t0:.1f}s",
    )


def test_criterion_8_engine_vs_oracle():
    rng = random.Random(102)
    t0 = time.monotonic()
    checked = 0
    failures = 0
    while checked < 50:
        d = rng.choice([1, 2])
        degree = rng.choice([1, 2])
        alphabet = ("a", "b")
        mp = MorphismPair(
            alphabet, d,
            {a: random_matrix(rng, d) for a in alphabet},
            {a: rng.choice([-1, 0, 1]) for a in alphabet},
        )
        ns = rng.randint(1, 4)
        trans = {
            (rng.randrange(ns), rng.choice(alphabet), rng.randrange(ns))
            for _ in range(rng.randint(ns, 3 * ns))
        }
        nfa = Nfa(
            tuple(range(ns)), alphabet,
            frozenset({0}), frozenset({rng.randrange(ns)}), frozenset(trans),
        )
        engine = regular_closure(nfa, mp, degree)
        orc = oracle_closure(mp, "all", degree, 12, Caps(oracle_words=10 ** 6), determinize(nfa))
        if not orc.stabilized:
            continue
        checked += 1
        if engine != orc.space:
            failures += 1
    _report(
        "50 random (NFA, morphism) pairs: fixpoint equals the stabilized oracle",
        failures == 0,
        f"{time.monotonic() - t0:.1f}s",
    )


def test_criterion_9_chain_regression():
    chain = recurrence_chain(6)
    ok = True
    for i, sets in enumerate(chain):
        expected = {Matrix.zeros(2), Matrix.identity(2)} | {
            Matrix([[0, 2 ** j], [0, 0]]) for j in range(i + 1)
        }
        ok = ok and set(sets) == expected
    ok = ok and all(set(chain[i]) < set(chain[i + 1]) for i in range(6))
    _report(
        "the saturation chain S_0 ⊊ ... ⊊ S_6 grows strictly and matches the "
        "displayed sets exactly",
        ok,
    )


def test_criterion_10_default_threshold_reach_refuses():
    mp = unipotent_morphism()  # default eta(2) = 1025
    refused = False
    try:
        pipeline(mp, "reach", 2)
    except InfeasibleError as exc:
        refused = exc.exit_code == 3 and "eta_override" in str(exc)
    _report(
        "full-default-threshold reach for d >= 2 refuses with the infeasible "
        "exit code instead of approximating",
        refused,
    )
