#!/usr/bin/env python3
"""Re-derive every arena inequality from the JSON artifacts alone.

Usage: check_arena.py ARENA.json [ARENA.json ...]

Arguments are documents experiments_main --csv writes for the arena
experiments (blocks.json, fabric.json, scale.json, arena.json,
hetero.json).  For every leg: rows ranked by (twct, algo), nothing beats
the bound, every guaranteed row within guarantee x target, a fallback
named in its algo, decisions within [1, slots] (the run loop counts them,
and each covers at least one slot), every check true.  A keyed section
covers what only E1 / E19 / E21 claim.
"""

import json
import sys

EPS = 1e-6


def fail(msg):
    sys.exit(f"arena check failed: {msg}")


def check_leg(exp, leg):
    where, rows = f"{exp} {leg['label']}", leg["rows"]
    bound = leg["bound"]["value"]
    if not rows or bound is None or bound < 0:
        fail(f"{where}: no rows or bad bound {bound}")
    if [(r["twct"], r["algo"]) for r in rows] != sorted(
            (r["twct"], r["algo"]) for r in rows) or [
                r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
        fail(f"{where}: rows not ranked by (twct, algo)")
    target = bound if leg["target"] == "bound" else rows[0]["twct"]
    for r in rows:
        if r["twct"] + EPS < bound:
            fail(f"{where}: {r['algo']} TWCT {r['twct']} beats {bound}")
        g, f = r["guarantee"], r["fallback"]
        if g is not None and target > 0 and r["twct"] > g * target + EPS:
            fail(f"{where}: {r['algo']} exceeds {g} x {leg['target']}")
        if f is not None and f"(fallback:{f})" not in r["algo"]:
            fail(f"{where}: {r['algo']} hides its fallback {f}")
        d, s = r["decisions"], r["slots"]
        if not 0 <= d <= s or (s > 0 and d < 1):
            fail(f"{where}: {r['algo']} took {d} decisions for {s} slots")
    for name, ok in leg["checks"].items():
        if ok is not True:
            fail(f"{where}: check {name} is {ok}")


GRID = {f"{o} ({c})" for o in ("H_A", "H_rho", "H_LP") for c in "abcd"}


def check_e1(legs):
    # each (filter, weighting) block races the order x case grid against
    # its interval LP; Theorem 1 holds H_LP (c) to 64/3 of it, and every
    # row carries its Lemma 2 verdict
    for leg in legs.values():
        where, rows = f"E1 {leg['label']}", leg["rows"]
        if {r["algo"] for r in rows} != GRID or len(rows) != len(GRID):
            fail(f"{where}: rows are not the 12-row order x case grid")
        if "interval LP" not in leg["bound"]["name"]:
            fail(f"{where}: bound {leg['bound']['name']!r} is not the interval LP")
        g = {r["algo"]: r["guarantee"] for r in rows}["H_LP (c)"]
        if g is None or abs(g - 64 / 3) > 1e-9:
            fail(f"{where}: H_LP (c) carries {g}, not 64/3")
        for algo in GRID:
            if leg["checks"].get(f"{algo}: lemma2") is not True:
                fail(f"{where}: {algo} lacks its Lemma 2 check")


def check_e19(legs):
    small, scale = legs["small"], legs["scale"]
    if not {"SG", "Chen"} <= {r["algo"] for r in small["rows"]}:
        fail("E19 small leg lacks SG or Chen")
    if (scale["ports"], scale["coflows"]) != (150, 526):
        fail(f"E19 scale leg is not the paper's 150x526: {scale['label']}")
    # the budgeted H_LP cannot finish at 150 x 526: its row must carry the
    # structural fallback tag, never a silent swap
    if "H_rho" not in {r["fallback"] for r in scale["rows"]}:
        fail("E19 scale leg: budgeted H_LP row lacks its H_rho fallback")


def check_e21(legs):
    by = {l["label"]: l for l in legs.values()}
    bound = {label: by[label]["bound"]["value"] for label in by}
    for label, leg in by.items():
        twct = {r["algo"]: r["twct"] for r in leg["rows"]}
        if "Chen" in twct and twct["Chen-hetero"] > twct["Chen"] + EPS:
            fail(f"E21 {label}: Chen-hetero trails Chen")
    # more aggregate capacity => smaller isolation bound
    for lo, hi in (("k=2 1:1", "k=1"), ("k=4 1:1", "k=2 1:1"),
                   ("k=2 4:1", "k=2 1:1"), ("k=2 10:1", "k=2 4:1")):
        if not bound[lo] < bound[hi]:
            fail(f"E21: bound of {lo} not below {hi}")
    if [len(l["checks"]) for l in legs.values() if l["checks"]] != [5]:
        fail("E21: expected one fault leg with its five verdicts")


KEYED = {"E1": check_e1, "E19": check_e19, "E21": check_e21}

if __name__ == "__main__":
    if len(sys.argv) < 2:
        fail("no artifacts given")
    for path in sys.argv[1:]:
        doc = json.load(open(path))
        exp, legs = doc["experiment"], {l["id"]: l for l in doc["legs"]}
        if not legs or len(legs) != len(doc["legs"]):
            fail(f"{path}: missing or duplicate leg ids")
        for leg in doc["legs"]:
            check_leg(exp, leg)
        KEYED.get(exp, lambda _: None)(legs)
        print(f"{path} ({exp}) OK: {len(legs)} legs")
