"""Deterministic command-line frontend: every table and claim, machine-readable.

Output contract: identical invocations produce identical bytes.  Exit code 0
means every checked claim passed (or the command is purely informational),
1 means a claim failed and the report names the first witness, 2 means a
usage or resource-guard violation, and 3 means the program itself failed (one
`error:` line on stderr).  Wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import algebra, endo, mackey, structure, treegroup
from .algebra import AlgebraElement
from .structure import VerificationError
from .treegroup import (
    LevelTooLarge,
    SubgroupSpec,
    UsageError,
    full_group,
    group_order,
)

MAX_LISTED_ELEMENTS = 1024
MAX_LISTED_VECTORS = 64
MAX_TABLE_DIMENSION = 12
MAX_CLASS_COUNT_LEVEL = 30
DEFAULT_SEED = 2024

GUARD_ERRORS = (LevelTooLarge, endo.HomSpaceEmpty, UsageError)


@dataclass
class Report:
    subcommand: str
    parameters: dict
    verdict: str  # PASS | FAIL | INFO
    payload: dict
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    timing_ms: float = 0.0


def frac_str(c) -> str:
    return f"{c.numerator}/{c.denominator}"


def element_json(g) -> dict:
    return {"word": g.word_string(), "cycles": g.cycle_string()}


def algebra_json(x: AlgebraElement) -> list:
    return [[g.cycle_string(), frac_str(c)] for g, c in x.canonical_terms()]


def algebra_text(x: AlgebraElement) -> str:
    if x.is_zero():
        return "0"
    return " + ".join(f"{frac_str(c)}*{g.cycle_string()}"
                      for g, c in x.canonical_terms())


def tensor_json(t) -> dict:
    return {"left": element_json(t.left), "coset_b": element_json(t.coset_b),
            "indices": list(t.coset_indices)}


def coset_rows(system) -> list:
    return [[r.cycle_string(), m.cycle_string(), s]
            for r, m, s in zip(system.stated_representatives,
                               system.representatives, system.sizes)]


# --- subcommand handlers -----------------------------------------------------

def _cmd_enumerate(args) -> Report:
    n = args.n
    elements = full_group(n)
    expected = group_order(n)
    chain_ok = all(
        group_order(m) == 2 * group_order(m - 1) ** 2 for m in range(1, n + 1))
    ok = len(elements) == expected and chain_ok
    payload = {
        "level": n,
        "size": len(elements),
        "expected_size": expected,
        "doubling_square_chain": chain_ok,
    }
    columns = ["word", "cycles"]
    if len(elements) <= MAX_LISTED_ELEMENTS:
        payload["elements"] = [element_json(g) for g in elements]
        rows = [[g.word_string(), g.cycle_string()] for g in elements]
    else:
        rows = [[f"<{len(elements)} elements>", ""]]
    return Report("enumerate", {"n": n}, "PASS" if ok else "FAIL",
                  payload, columns, rows)


def _cmd_center(args) -> Report:
    n = args.n
    computed = structure.center(n)
    expected = structure.center_closed_form(n)
    ok = computed == expected
    payload = {
        "level": n,
        "computed": [element_json(g) for g in computed],
        "expected": [element_json(g) for g in expected],
        "match": ok,
    }
    rows = [[g.word_string(), g.cycle_string()] for g in computed]
    return Report("center", {"n": n}, "PASS" if ok else "FAIL",
                  payload, ["word", "cycles"], rows)


def _cmd_classes(args) -> Report:
    n = args.n
    decomp = structure.conjugacy_classes(n, allow_large=args.allow_large)
    predicted = structure.class_count(n)
    ok = decomp.count == predicted
    payload = {
        "level": n,
        "count": decomp.count,
        "predicted": predicted,
        "sizes": [o.size for o in decomp.orbits],
    }
    rows = [[o.representative.cycle_string(), o.size] for o in decomp.orbits]
    return Report("classes", {"n": n}, "PASS" if ok else "FAIL",
                  payload, ["representative", "size"], rows)


def _cmd_class_count(args) -> Report:
    n = args.n
    if n > MAX_CLASS_COUNT_LEVEL:
        raise UsageError(f"class-count capped at n = {MAX_CLASS_COUNT_LEVEL}")
    values = [structure.class_count(m) for m in range(n + 1)]
    payload = {"level": n, "value": values[-1],
               "sequence": [str(v) for v in values]}
    rows = [[m, str(v)] for m, v in enumerate(values)]
    return Report("class-count", {"n": n}, "INFO", payload, ["n", "count"], rows)


def _cmd_right_cosets(args) -> Report:
    n, l = args.n, args.l
    system = structure.right_coset_reps(n, l)
    expected = group_order(system.ambient_level) // group_order(n)
    payload = {
        "base_level": n,
        "ambient_level": system.ambient_level,
        "count": system.count,
        "expected_count": expected,
        "coset_size": group_order(n),
    }
    columns = ["stated_rep", "canonical_rep", "size"]
    if system.count <= MAX_LISTED_ELEMENTS:
        rows = coset_rows(system)
        payload["stated_representatives"] = [
            element_json(r) for r in system.stated_representatives]
    else:
        rows = [[f"<{system.count} cosets>", "", group_order(n)]]
    ok = system.count == expected
    return Report("right-cosets", {"n": n, "l": l},
                  "PASS" if ok else "FAIL", payload, columns, rows)


def _cmd_double_cosets(args) -> Report:
    n = args.n
    system = structure.double_cosets(n)
    order = group_order(n)
    expected_sizes = sorted([order] * order + [order * order])
    ok = (system.count == order + 1
          and sorted(system.sizes) == expected_sizes)
    payload = {
        "base_level": n,
        "ambient_level": system.ambient_level,
        "count": system.count,
        "expected_count": order + 1,
        "sizes": list(system.sizes),
        "stated_representatives": [
            element_json(r) for r in system.stated_representatives],
    }
    return Report("double-cosets", {"n": n}, "PASS" if ok else "FAIL",
                  payload, ["stated_rep", "canonical_rep", "size"],
                  coset_rows(system))


def _cmd_orbits(args) -> Report:
    n, k = args.n, args.k
    decomp = structure.orbit_decomposition(n, k, allow_large=args.allow_large)
    corrected = structure.predicted_orbit_count(n, k)
    literal = structure.predicted_orbit_count_literal(n, k)
    payload = {
        "base_level": n,
        "offset": k,
        "count": decomp.count,
        "predicted_corrected": corrected,
        "predicted_literal": literal,
        "matches_corrected": decomp.count == corrected,
        "matches_literal": decomp.count == literal,
    }
    ok = decomp.count == corrected
    columns = ["representative", "size", "label"]
    if decomp.count <= MAX_LISTED_ELEMENTS:
        rows = []
        for orbit_, label in zip(decomp.orbits, decomp.labels):
            if label.kind == "class":
                text = f"class({label.base.cycle_string()})*{label.shift.cycle_string()}"
            else:
                names = " ".join(f"b{j}" for j in reversed(label.indices))
                text = f"orbit({names})*{label.shift.cycle_string()}"
            rows.append([orbit_.representative.cycle_string(), orbit_.size, text])
    else:
        rows = [[f"<{decomp.count} orbits>", "", ""]]
    return Report("orbits", {"n": n, "k": k}, "PASS" if ok else "FAIL",
                  payload, columns, rows)


def _cmd_centralizer_basis(args) -> Report:
    n, k = args.n, args.k
    basis = structure.centralizer_algebra_basis(n, k, allow_large=args.allow_large)
    sub = SubgroupSpec.embedded(n)
    all_central = all(algebra.centralizes(v, sub) for v in basis)
    closure = None
    if (n, k) == (1, 1):
        closure = structure.closure_failure(basis) is None
    ok = all_central and closure is not False
    payload = {
        "base_level": n,
        "offset": k,
        "dimension": len(basis),
        "all_centralize": all_central,
        "closure_checked": closure,
    }
    listed = len(basis) <= MAX_LISTED_VECTORS
    if listed:
        payload["vectors"] = [algebra_json(v) for v in basis]
    rows = [[i, len(v.terms),
             algebra_text(v) if listed else f"<{len(v.terms)} terms>"]
            for i, v in enumerate(basis)]
    return Report("centralizer-basis", {"n": n, "k": k},
                  "PASS" if ok else "FAIL", payload,
                  ["index", "terms", "vector"], rows)


def _cmd_presentation(args) -> Report:
    n = args.n
    report = structure.check_presentation(n)
    counts = report.family_counts()
    failures = [[inst.family, list(inst.params)]
                for inst in report.instances if not inst.holds]
    payload = {
        "level": n,
        "instances_checked": len(report.instances),
        "family_counts": {str(f): c for f, c in counts.items()},
        "failures": failures,
        "untestable": [list(t) for t in report.untestable],
        "generator_indexing": "root-first",
    }
    rows = [[inst.family, " ".join(map(str, inst.params)),
             "ok" if inst.holds else "FAIL"] for inst in report.instances]
    rows += [[3, " ".join(map(str, t)), "untestable"] for t in report.untestable]
    return Report("presentation", {"n": n},
                  "PASS" if report.all_pass else "FAIL",
                  payload, ["family", "params", "status"], rows)


def _cmd_mackey(args) -> Report:
    n = args.n
    summands = mackey.mackey_decomposition(n)
    order = group_order(n)
    payload = {
        "level": n,
        "summands": [{
            "rep": element_json(s.coset_rep),
            "intersection_order": len(s.intersection),
            "type": s.kind,
            "dimension": s.bimodule_dimension,
        } for s in summands],
        "id_multiplicity": sum(1 for s in summands if s.kind == "Id"),
        "expected_id_multiplicity": order,
        "dimension_total": sum(s.bimodule_dimension for s in summands),
        "expected_dimension_total": group_order(n + 1),
    }
    ok = (payload["id_multiplicity"] == payload["expected_id_multiplicity"]
          and payload["dimension_total"] == payload["expected_dimension_total"])
    rows = [[s.coset_rep.cycle_string(), len(s.intersection), s.kind,
             s.bimodule_dimension] for s in summands]
    return Report("mackey", {"n": n}, "PASS" if ok else "FAIL", payload,
                  ["rep", "intersection_order", "type", "dimension"], rows)


def _cmd_tensor_basis(args) -> Report:
    n, k, l = args.n, args.k, args.l
    basis = endo.tensor_basis(n, k, l)
    expected = (group_order(n + k - l) * group_order(n)) // group_order(n - l)
    payload = {
        "n": n, "k": k, "l": l,
        "size": len(basis),
        "expected_size": expected,
        "left_level": n + k - l,
        "coset_base_level": n - l,
    }
    columns = ["left", "coset_b", "indices"]
    if len(basis) <= MAX_LISTED_ELEMENTS:
        rows = [[t.left.cycle_string(), t.coset_b.cycle_string(),
                 " ".join(map(str, t.coset_indices)) or "-"] for t in basis]
        payload["elements"] = [tensor_json(t) for t in basis]
    else:
        rows = [[f"<{len(basis)} tensors>", "", ""]]
    ok = len(basis) == expected
    return Report("tensor-basis", {"n": n, "k": k, "l": l},
                  "PASS" if ok else "FAIL", payload, columns, rows)


def _cmd_end_basis(args) -> Report:
    n, k, l = args.n, args.k, args.l
    eb = endo.end_ind_res_basis(n, k, l)
    payload = {
        "n": n, "k": k, "l": l,
        "dimension": eb.dimension,
        "acting_level": eb.acting_level,
        "index_change_count": eb.index_change_count,
    }
    ok = True
    if l == 0:
        reference = structure.centralizer_algebra_basis(n, k)
        ok = tuple(eb.vectors) == tuple(reference)
        payload["matches_centralizer_basis"] = ok
    elif eb.dimension <= MAX_LISTED_VECTORS:
        # computed and reported, never asserted
        closed, _ = endo.end_basis_closure(eb)
        payload["products_within_span"] = closed
    columns = ["index", "support", "vector"]
    rows = []
    if eb.dimension <= MAX_LISTED_VECTORS:
        vectors_json = []
        for i, vec in enumerate(eb.vectors):
            if l == 0:
                vectors_json.append(algebra_json(vec))
                rows.append([i, len(vec.terms), algebra_text(vec)])
            else:
                vectors_json.append([{**tensor_json(t), "coefficient": "1/1"}
                                     for t in vec])
                text = " + ".join(
                    f"{t.left.cycle_string()}(x){t.coset_rep().cycle_string()}"
                    for t in vec)
                rows.append([i, len(vec), text])
        payload["vectors"] = vectors_json
    else:
        rows = [[f"<{eb.dimension} vectors>", "", ""]]
    return Report("end-basis", {"n": n, "k": k, "l": l},
                  "PASS" if ok else "FAIL", payload, columns, rows)


def _cmd_d_gens(args) -> Report:
    n, m = args.n, args.m
    table = endo.d_generator_table(n, m)
    swap_gens = [elt for label, elt in table if label.startswith("b")]
    orbit_single = [elt for label, elt in table if label == f"o(b{n + 1})"]
    shift_zero = [elt for label, elt in table
                  if label.startswith("b") and label.endswith("^(0)")]
    commute_ok = all(o * g == g * o
                     for o in orbit_single for g in shift_zero)
    payload = {
        "base_level": n,
        "ambient_level": m,
        "count": len(table),
        "swap_generators": len(swap_gens),
        "orbit_sums": len(table) - len(swap_gens),
        "orbit_sum_commutes_with_shifted_gens": commute_ok,
        "generators": [{"label": label, "element": algebra_json(elt)}
                       for label, elt in table],
    }
    rows = [[label, algebra_text(elt)] for label, elt in table]
    return Report("d-gens", {"n": n, "m": m},
                  "PASS" if commute_ok else "FAIL",
                  payload, ["label", "element"], rows)


def _cmd_power_table(args) -> Report:
    n, max_k = args.n, args.max_k
    powers = endo.power_table(n, max_k)
    base = powers[0]
    entries = []
    rows = []
    for k, p in enumerate(powers, start=1):
        collapses = p == base.scaled(1 << (k - 1))
        entries.append({
            "k": k,
            "terms": len(p.terms),
            "collapses_to_multiple": collapses,
            "element": algebra_json(p) if len(p.terms) <= MAX_LISTED_ELEMENTS
            else None,
        })
        if collapses:
            rows.append([k, f"{1 << (k - 1)}/1 * o"])
        else:
            rows.append([k, algebra_text(p) if len(p.terms) <= MAX_LISTED_VECTORS
                         else f"<{len(p.terms)} terms>"])
    payload = {"base_level": n, "max_k": max_k, "powers": entries}
    verdict = "PASS" if n == 1 else "INFO"
    return Report("power-table", {"n": n, "max_k": max_k}, verdict,
                  payload, ["k", "expansion"], rows)


def _cmd_opposite_check(args) -> Report:
    n, k = args.n, args.k
    report = endo.opposite_check(n, k)
    ok = report.closure_ok and report.transpose_ok
    payload = {
        "n": n, "k": k,
        "dimension": report.dimension,
        "closure_ok": report.closure_ok,
        "transpose_ok": report.transpose_ok,
    }
    if report.dimension <= MAX_TABLE_DIMENSION and report.closure_ok:
        payload["left_constants"] = [
            [[frac_str(c) for c in cell] for cell in row]
            for row in report.left_constants]
        payload["right_constants"] = [
            [[frac_str(c) for c in cell] for cell in row]
            for row in report.right_constants]
    rows = [[report.dimension, report.closure_ok, report.transpose_ok]]
    return Report("opposite-check", {"n": n, "k": k},
                  "PASS" if ok else "FAIL", payload,
                  ["dimension", "closure", "transpose"], rows)


# --- the full desk-scale battery ----------------------------------------------

def _sweep(handler, cases, detail, allow_large=False):
    """Decide a check that restates a subcommand's claim by its handler.

    `cases` maps each detail key to the handler's positional arguments, and
    `detail` turns that case's report into the key's entry.  The check
    passes iff every verdict is PASS; it decides nothing a second time.
    """
    ok, entries = True, {}
    for key, params in cases.items():
        report = handler(argparse.Namespace(allow_large=allow_large, **params))
        ok = ok and report.verdict == "PASS"
        entries[key] = detail(report)
    return ok, entries


def _check_group_sizes(allow_large, rng):
    sizes = [len(full_group(n)) for n in range(1, 5)]
    chain = all(sizes[i] == 2 * (sizes[i - 1] if i else 1) ** 2
                for i in range(len(sizes)))
    ok = sizes == [2, 8, 128, 32768] and chain
    return ok, {"sizes": sizes, "doubling_square_chain": chain}


def _check_presentation(allow_large, rng):
    return _sweep(_cmd_presentation, {f"n={n}": {"n": n} for n in range(1, 5)},
                  lambda r: {"instances": r.payload["instances_checked"],
                             "untestable": len(r.payload["untestable"]),
                             "all_pass": r.verdict == "PASS"})


def _check_centers(allow_large, rng):
    levels = [1, 2, 3] + ([4] if allow_large else [])
    return _sweep(_cmd_center, {f"n={n}": {"n": n} for n in levels},
                  lambda r: r.payload["match"])


def _check_centralizers(allow_large, rng):
    detail = {}
    ok = True
    for n in (1, 2, 3):
        ambient = n + 1
        computed = structure.group_centralizer(n, 1)
        hat = SubgroupSpec.hat(n).elements(ambient)
        product = tuple(sorted(
            treegroup.embed_to(z, ambient) * b
            for z in structure.center_closed_form(n) for b in hat))
        match = computed == product and len(computed) == 2 * group_order(n)
        ok = ok and match
        detail[f"n={n}"] = {"size": len(computed), "matches_product_set": match}
    return ok, detail


def _check_class_counts(allow_large, rng):
    expected = {1: 2, 2: 5, 3: 20, 4: 230}
    levels = [1, 2, 3] + ([4] if allow_large else [])
    ok, detail = _sweep(_cmd_classes, {f"n={n}": {"n": n} for n in levels},
                        lambda r: r.payload["count"], allow_large)
    return ok and all(detail[f"n={n}"] == expected[n] for n in levels), detail


def _check_right_cosets(allow_large, rng):
    cases = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]
    return _sweep(_cmd_right_cosets,
                  {f"(n={n},l={l})": {"n": n, "l": l} for n, l in cases},
                  lambda r: r.payload["count"])


def _check_double_cosets(allow_large, rng):
    return _sweep(_cmd_double_cosets, {f"n={n}": {"n": n} for n in (1, 2, 3)},
                  lambda r: {"count": r.payload["count"],
                             "sizes_ok": r.verdict == "PASS"})


def _check_orbit_counts(allow_large, rng):
    ok, detail = _sweep(_cmd_orbits, {"(n=1,k=1)": {"n": 1, "k": 1},
                                      "(n=2,k=1)": {"n": 2, "k": 1}},
                        lambda r: r.payload["count"])
    ok = ok and list(detail.values()) == [6, 48]
    readings = ("predicted_corrected", "predicted_literal",
                "matches_corrected", "matches_literal")
    both_ok, both = _sweep(
        _cmd_orbits, {"(n=1,k=2)": {"n": 1, "k": 2}},
        lambda r: {"computed": r.payload["count"],
                   **{key: r.payload[key] for key in readings}})
    return ok and both_ok, {**detail, **both}


def _check_centralizer_basis(allow_large, rng):
    def entry(report):
        p = report.payload
        out = {"dimension": p["dimension"], "all_centralize": p["all_centralize"]}
        if p["closure_checked"] is not None:
            out["closed_under_product"] = p["closure_checked"]
        return out
    cases = [(1, 1), (2, 1), (1, 2)]
    return _sweep(_cmd_centralizer_basis,
                  {f"(n={n},k={k})": {"n": n, "k": k} for n, k in cases}, entry)


def _check_mackey(allow_large, rng):
    return _sweep(_cmd_mackey, {f"n={n}": {"n": n} for n in (1, 2, 3)},
                  lambda r: {"id_summands": r.payload["id_multiplicity"],
                             "dimension_total": r.payload["dimension_total"]})


def _check_power_identity(allow_large, rng):
    powers = endo.power_table(1, 7)
    o = powers[0]
    odd_ok = all(powers[k - 1] == o.scaled(1 << (k - 1)) for k in (3, 5, 7))
    e = AlgebraElement.one(2)
    flip = AlgebraElement.of(
        treegroup.TreeAutomorphism.from_word((0, 1, 1)))
    square_ok = powers[1] == e.scaled(2) + flip.scaled(2)
    return odd_ok and square_ok, {
        "odd_identity_k": [3, 5, 7],
        "odd_ok": odd_ok,
        "square": algebra_json(powers[1]),
        "square_ok": square_ok,
    }


def _check_orbit_stability(allow_large, rng):
    detail = {}
    ok = True
    for n in (1, 2, 3):
        root = treegroup.beta(n + 1, n + 1)
        small = algebra.orbit(root, SubgroupSpec.embedded(n))
        big = algebra.orbit(root, SubgroupSpec.full())
        stable = small.elements == big.elements
        central = algebra.centralizes(
            algebra.orbit_sum(root, SubgroupSpec.embedded(n)),
            SubgroupSpec.full())
        ok = ok and stable and central
        detail[f"n={n}"] = {"orbits_equal": stable, "sum_central": central}
    return ok, detail


def _check_end_bases(allow_large, rng):
    cases = [(1, 1), (2, 1), (1, 2)]
    ok, detail = _sweep(
        _cmd_end_basis,
        {f"End({n},Ind^{k})": {"n": n, "k": k, "l": 0} for n, k in cases},
        lambda r: {"dimension": r.payload["dimension"],
                   "matches": r.payload["matches_centralizer_basis"]})
    sizes_ok = (len(endo.tensor_basis(1, 1, 1)) == 4
                and len(endo.tensor_basis(2, 1, 1)) == 32)
    ok = ok and sizes_ok
    detail["tensor_sizes_ok"] = sizes_ok
    try:
        endo.tensor_basis(1, 1, 2)
        rejected = False
    except endo.HomSpaceEmpty:
        rejected = True
    ok = ok and rejected
    detail["over_restriction_rejected"] = rejected
    return ok, detail


def _check_opposite(allow_large, rng):
    return _sweep(_cmd_opposite_check,
                  {f"(n=1,k={k})": {"n": 1, "k": k} for k in (0, 1)},
                  lambda r: {key: r.payload[key] for key in
                             ("dimension", "closure_ok", "transpose_ok")})


def _check_d_generators(allow_large, rng):
    detail = {}
    table12 = endo.d_generator_table(1, 2)
    labels12 = [label for label, _ in table12]
    detail["labels(1,2)"] = labels12
    ok = labels12 == ["b1^(0)", "o(b2)"]
    detail["count(2,4)"] = len(endo.d_generator_table(2, 4))
    ok = ok and detail["count(2,4)"] == 8
    for n in (1, 2):
        table = endo.d_generator_table(n, n + 1)
        orbit_sums = [elt for label, elt in table if label.startswith("o(")]
        gens = [elt for label, elt in table if label.startswith("b")]
        commute = all(o * g == g * o for o in orbit_sums for g in gens)
        ok = ok and commute
        detail[f"commutators_vanish(n={n})"] = commute
    return ok, detail


def _check_axioms_spot(allow_large, rng):
    detail = {}
    ok = True
    for n in (3, 4):
        group = full_group(n)
        order = len(group)
        e = treegroup.identity(n)
        trials = 200
        good = True
        for _ in range(trials):
            a = group[rng.randrange(order)]
            b = group[rng.randrange(order)]
            c = group[rng.randrange(order)]
            if (a * b) * c != a * (b * c):
                good = False
            if a * a.inverse() != e:
                good = False
        ok = ok and good
        detail[f"n={n}"] = {"triples": trials, "ok": good}
    return ok, detail


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


def _cmd_verify_all(args) -> Report:
    rng = random.Random(args.seed)
    results = []
    all_ok = True
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(args.allow_large, rng)
        except VerificationError as exc:
            ok, detail = False, {"error": str(exc)}
        results.append({"check": name, "passed": ok, "detail": detail})
        all_ok = all_ok and ok
    payload = {
        "allow_large": bool(args.allow_large),
        "seed": args.seed,
        "checks": results,
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
    }
    rows = [[r["check"], "PASS" if r["passed"] else "FAIL"] for r in results]
    return Report("verify-all",
                  {"seed": args.seed, "allow_large": bool(args.allow_large)},
                  "PASS" if all_ok else "FAIL", payload,
                  ["check", "status"], rows)


# --- rendering and dispatch ----------------------------------------------------

def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        blob = {
            "subcommand": report.subcommand,
            "parameters": report.parameters,
            "verdict": report.verdict,
            "payload": report.payload,
        }
        return json.dumps(blob, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([str(cell) for cell in row])
        return buf.getvalue()
    lines = [f"{report.verdict} {report.subcommand} "
             + " ".join(f"{k}={v}" for k, v in report.parameters.items())]
    if report.columns:
        lines.append("  " + " | ".join(report.columns))
        for row in report.rows:
            lines.append("  " + " | ".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


# name: (handler, arguments, help); "--" marks an optional flag
_COMMANDS = {
    "enumerate": (_cmd_enumerate, "n",
                  "list a full level and check its order"),
    "center": (_cmd_center, "n", "brute-force center against the closed form"),
    "classes": (_cmd_classes, "n --allow-large",
                "conjugacy classes against the class-count recursion"),
    "class-count": (_cmd_class_count, "n", "class-count recursion values"),
    "right-cosets": (_cmd_right_cosets, "n l",
                     "verified right-coset transversal"),
    "double-cosets": (_cmd_double_cosets, "n",
                      "verified two-sided coset decomposition"),
    "orbits": (_cmd_orbits, "n k --allow-large",
               "conjugation orbits with structured labels"),
    "centralizer-basis": (_cmd_centralizer_basis, "n k --allow-large",
                          "orbit-sum basis of the centralizer algebra"),
    "presentation": (_cmd_presentation, "n",
                     "defining relations in the permutation representation"),
    "mackey": (_cmd_mackey, "n",
               "double-coset summand census and dimension audit"),
    "tensor-basis": (_cmd_tensor_basis, "n k l",
                     "tensor basis of the endomorphism bimodule"),
    "end-basis": (_cmd_end_basis, "n k l",
                  "orbit-sum basis of the endomorphism space"),
    "d-gens": (_cmd_d_gens, "n m",
               "generators of the non-central centralizer block"),
    "power-table": (_cmd_power_table, "n max_k",
                    "exact powers of the root-swap orbit sum"),
    "opposite-check": (_cmd_opposite_check, "n k",
                       "left/right composition tables are transposed"),
    "verify-all": (_cmd_verify_all, "--allow-large --seed",
                   "run the whole desk-scale battery"),
}


def _positionals(command):
    return [a for a in _COMMANDS[command][1].split() if not a.startswith("--")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterwreath",
        description="Exact verification tables for the binary-tree "
                    "automorphism tower.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, arguments, help_text) in _COMMANDS.items():
        arguments = arguments.split()
        p = sub.add_parser(name, help=help_text)
        for arg in _positionals(name):
            p.add_argument(arg, type=int)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="write the report to this path instead of stdout")
        if "--allow-large" in arguments:
            p.add_argument("--allow-large", action="store_true",
                           dest="allow_large",
                           help="unlock the level-4 exhaustive runs")
        if "--seed" in arguments:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def dispatch(args) -> Report:
    for name in _positionals(args.command):
        if getattr(args, name) < 0:
            raise UsageError(f"{args.command}: argument {name} must be >= 0, "
                             f"got {getattr(args, name)}")
    started = time.perf_counter()
    report = _COMMANDS[args.command][0](args)
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = dispatch(args)
    except GUARD_ERRORS as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        report = Report(args.command, {}, "FAIL", {"error": str(exc)},
                        ["error"], [[str(exc)]])
    except Exception as exc:  # a fault in the program, not in its input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"guard: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"# elapsed_ms={report.timing_ms:.1f}", file=sys.stderr)
    return 0 if report.verdict in ("PASS", "INFO") else 1


if __name__ == "__main__":
    sys.exit(main())
