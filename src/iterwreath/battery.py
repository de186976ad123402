"""The `verify-all` battery: the paper's claim set as one report.

A check that restates a subcommand's claim reads that subcommand's report
(`_sweep`), made by the `run` that `verify-all` passes in.  Only
`verify-all` imports this module, and it imports nothing from the CLI.
"""

from __future__ import annotations

import random

from . import algebra, structure, treegroup
from .endo import HomSpaceEmpty
from .structure import VerificationError
from .treegroup import SubgroupSpec, full_group, group_order


def _sweep(run, command, cases, detail):
    """Decide a check that restates a subcommand's claim by running it.

    `cases` maps each key to the command's positional arguments, and
    `detail` turns that case's report into the key's entry.  The check
    passes iff every verdict is PASS; it decides nothing a second time.
    """
    ok, entries = True, {}
    for key, params in cases.items():
        report = run(command, params)
        ok = ok and report.verdict == "PASS"
        entries[key] = detail(report)
        del report  # its listing would keep the command's data alive
    return ok, entries


def _check_group_sizes(run, allow_large, rng):
    ok, levels = _sweep(run, "enumerate", {n: {"n": n} for n in range(1, 5)},
                        lambda r: r.payload)
    sizes = [p["size"] for p in levels.values()]
    chain = levels[4]["doubling_square_chain"]  # on every level up to 4
    return ok and sizes == [2, 8, 128, 32768], {
        "sizes": sizes, "doubling_square_chain": chain}


def _check_presentation(run, allow_large, rng):
    return _sweep(run, "presentation", {f"n={n}": {"n": n} for n in range(1, 5)},
                  lambda r: {"instances": r.payload["instances_checked"],
                             "untestable": len(r.payload["untestable"]),
                             "all_pass": r.verdict == "PASS"})


def _check_centers(run, allow_large, rng):
    levels = [1, 2, 3] + ([4] if allow_large else [])
    return _sweep(run, "center", {f"n={n}": {"n": n} for n in levels},
                  lambda r: r.payload["match"])


def _check_centralizers(run, allow_large, rng):
    detail = {}
    for n in (1, 2, 3):
        computed = structure.group_centralizer(n, 1)
        hat = SubgroupSpec.hat_chain(n, n).elements(n + 1)
        product = tuple(sorted(
            treegroup.embed_to(z, n + 1) * b
            for z in structure.center_closed_form(n) for b in hat))
        match = computed == product and len(computed) == 2 * group_order(n)
        detail[f"n={n}"] = {"size": len(computed), "matches_product_set": match}
    return all(d["matches_product_set"] for d in detail.values()), detail


def _check_class_counts(run, allow_large, rng):
    expected = {1: 2, 2: 5, 3: 20, 4: 230}
    levels = [1, 2, 3] + ([4] if allow_large else [])
    ok, detail = _sweep(run, "classes", {f"n={n}": {"n": n} for n in levels},
                        lambda r: r.payload["count"])
    return ok and all(detail[f"n={n}"] == expected[n] for n in levels), detail


def _check_right_cosets(run, allow_large, rng):
    cases = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]
    return _sweep(run, "right-cosets",
                  {f"(n={n},l={l})": {"n": n, "l": l} for n, l in cases},
                  lambda r: r.payload["count"])


def _check_double_cosets(run, allow_large, rng):
    return _sweep(run, "double-cosets", {f"n={n}": {"n": n} for n in (1, 2, 3)},
                  lambda r: {"count": r.payload["count"],
                             "sizes_ok": r.verdict == "PASS"})


def _check_orbit_counts(run, allow_large, rng):
    ok, detail = _sweep(run, "orbits", {"(n=1,k=1)": {"n": 1, "k": 1},
                                   "(n=2,k=1)": {"n": 2, "k": 1}},
                        lambda r: r.payload["count"])
    ok = ok and list(detail.values()) == [6, 48]
    readings = ("predicted_corrected", "predicted_literal",
                "matches_corrected", "matches_literal")
    both_ok, both = _sweep(
        run, "orbits", {"(n=1,k=2)": {"n": 1, "k": 2}},
        lambda r: {"computed": r.payload["count"],
                   **{key: r.payload[key] for key in readings}})
    return ok and both_ok, {**detail, **both}


def _check_centralizer_basis(run, allow_large, rng):
    def entry(report):
        p = report.payload
        out = {"dimension": p["dimension"], "all_centralize": p["all_centralize"]}
        if p["closure_checked"] is not None:
            out["closed_under_product"] = p["closure_checked"]
        return out
    cases = [(1, 1), (2, 1), (1, 2)]
    return _sweep(run, "centralizer-basis",
                  {f"(n={n},k={k})": {"n": n, "k": k} for n, k in cases}, entry)


def _check_mackey(run, allow_large, rng):
    return _sweep(run, "mackey", {f"n={n}": {"n": n} for n in (1, 2, 3)},
                  lambda r: {"id_summands": r.payload["id_multiplicity"],
                             "dimension_total": r.payload["dimension_total"]})


def _check_power_identity(run, allow_large, rng):
    # the verdict of power-table 1 7 is the collapse of powers 3, 5 and 7
    odd_ok, squares = _sweep(run, "power-table", {1: {"n": 1, "max_k": 7}},
                             lambda r: r.payload["powers"][1]["element"])
    square = squares[1]
    square_ok = square == [["e", "2/1"], ["(1 2)(3 4)", "2/1"]]
    return odd_ok and square_ok, {
        "odd_identity_k": [3, 5, 7],
        "odd_ok": odd_ok,
        "square": square,
        "square_ok": square_ok,
    }


def _check_orbit_stability(run, allow_large, rng):
    detail = {}
    for n in (1, 2, 3):
        root = treegroup.beta(n + 1, n + 1)
        small = algebra.orbit(root, SubgroupSpec.embedded(n))
        big = algebra.orbit(root, SubgroupSpec.embedded(n + 1))
        stable = small.elements == big.elements
        central = algebra.centralizes(
            algebra.AlgebraElement.from_elements(n + 1, small.elements),
            SubgroupSpec.embedded(n + 1))
        detail[f"n={n}"] = {"orbits_equal": stable, "sum_central": central}
    return all(all(d.values()) for d in detail.values()), detail


def _check_end_bases(run, allow_large, rng):
    cases = [(1, 1), (2, 1), (1, 2)]
    ok, detail = _sweep(
        run, "end-basis",
        {f"End({n},Ind^{k})": {"n": n, "k": k, "l": 0} for n, k in cases},
        lambda r: {"dimension": r.payload["dimension"],
                   "matches": r.payload["matches_centralizer_basis"]})
    sizes_ok, sizes = _sweep(run, "tensor-basis",
                             {n: {"n": n, "k": 1, "l": 1} for n in (1, 2)},
                             lambda r: r.payload["size"])
    sizes_ok = sizes_ok and list(sizes.values()) == [4, 32]
    ok = ok and sizes_ok
    detail["tensor_sizes_ok"] = sizes_ok
    try:
        run("tensor-basis", {"n": 1, "k": 1, "l": 2})
        rejected = False
    except HomSpaceEmpty:
        rejected = True
    ok = ok and rejected
    detail["over_restriction_rejected"] = rejected
    return ok, detail


def _check_opposite(run, allow_large, rng):
    return _sweep(run, "opposite-check",
                  {f"(n=1,k={k})": {"n": 1, "k": k} for k in (0, 1)},
                  lambda r: {key: r.payload[key] for key in
                             ("dimension", "closure_ok", "transpose_ok")})


def _check_d_generators(run, allow_large, rng):
    # at m = n + 1 the report's commutator check covers every orbit sum and
    # every swap generator of the table
    ok, tables = _sweep(run, "d-gens", {(n, m): {"n": n, "m": m}
                                   for n, m in ((1, 2), (2, 3), (2, 4))},
                        lambda r: r.payload)
    detail = {
        "labels(1,2)": [g["label"] for g in tables[1, 2]["generators"]],
        "count(2,4)": tables[2, 4]["count"],
        **{f"commutators_vanish(n={n})":
           tables[n, n + 1]["orbit_sum_commutes_with_shifted_gens"]
           for n in (1, 2)},
    }
    return (ok and detail["labels(1,2)"] == ["b1^(0)", "o(b2)"]
            and detail["count(2,4)"] == 8), detail


def _check_axioms_spot(run, allow_large, rng):
    detail = {}
    for n in (3, 4):
        group, e, trials = full_group(n), treegroup.identity(n), 200
        good = True
        for _ in range(trials):
            a, b, c = (group[rng.randrange(len(group))] for _ in range(3))
            if (a * b) * c != a * (b * c) or a * a.inverse() != e:
                good = False
        detail[f"n={n}"] = {"triples": trials, "ok": good}
    return all(d["ok"] for d in detail.values()), detail


_CHECKS = [
    ("group-sizes", _check_group_sizes),
    ("presentation", _check_presentation),
    ("center", _check_centers),
    ("centralizer", _check_centralizers),
    ("class-counts", _check_class_counts),
    ("right-cosets", _check_right_cosets),
    ("double-cosets", _check_double_cosets),
    ("orbit-counts", _check_orbit_counts),
    ("centralizer-basis", _check_centralizer_basis),
    ("mackey", _check_mackey),
    ("power-identity", _check_power_identity),
    ("orbit-stability", _check_orbit_stability),
    ("end-bases", _check_end_bases),
    ("opposite-algebra", _check_opposite),
    ("d-generators", _check_d_generators),
    ("group-axioms-spot", _check_axioms_spot),
]


def verify_all(seed, allow_large, run):
    """Every check in order; the `verify-all` handler's (ok, payload, listing)."""
    rng = random.Random(seed)
    results = []
    all_ok = True
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(run, allow_large, rng)
        except VerificationError as exc:
            ok, detail = False, {"error": str(exc)}
        results.append({"check": name, "passed": ok, "detail": detail})
        all_ok = all_ok and ok
    payload = {
        "allow_large": allow_large,
        "seed": seed,
        "checks": results,
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
    }
    return all_ok, payload, lambda: ({}, [
        [r["check"], "PASS" if r["passed"] else "FAIL"] for r in results])
