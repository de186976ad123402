"""Deterministic command-line frontend: every table and claim, machine-readable.

Output contract: identical invocations produce identical bytes.  Exit code 0
means every checked claim passed (or the command is purely informational),
1 means a claim failed (the JSON payload names the first witness; text
prints the verdict line and the table, csv the table alone), 2 means a
usage or resource-guard violation, and 3 means the program itself failed (one
`error:` line on stderr).  Wall-clock timing goes to stderr only.

Command contract: `_COMMANDS` alone names each subcommand, its arguments and
its CSV columns.  A handler takes them by name (int positionals, then the
`allow_large`/`seed` flags) and returns (ok, payload, listing): the payload
holds every key that a verdict or `verify-all` reads, and `listing()` gives
the listed payload keys and the rows, decides nothing, and is called by
`render` alone.  `run` maps ok True/False/None to PASS/FAIL/INFO and reports
its one dict of arguments, positionals then flags, as the parameters.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections import namedtuple

from . import algebra, endo, mackey, structure
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
# c_16 has 8453 digits, past the 4300 that int-to-str conversion allows
MAX_CLASS_COUNT_LEVEL = 15
DEFAULT_SEED = 2024

GUARD_ERRORS = (LevelTooLarge, endo.HomSpaceEmpty, UsageError)


class Report(namedtuple("Report", "subcommand parameters verdict payload "
                                   "columns listing")):
    """One command's result; `verdict` is PASS, FAIL or INFO."""

    __slots__ = ()


def frac_str(c) -> str:
    return f"{c.numerator}/{c.denominator}"


def element_json(g) -> dict:
    return {"word": g.word_string(), "cycles": g.cycle_string()}


def algebra_json(x: algebra.AlgebraElement) -> list:
    return [[g.cycle_string(), frac_str(c)] for g, c in x.canonical_terms()]


def algebra_text(x: algebra.AlgebraElement) -> str:
    if not x:
        return "0"
    return " + ".join(f"{frac_str(c)}*{g.cycle_string()}"
                      for g, c in x.canonical_terms())


def tensor_json(t) -> dict:
    return {"left": element_json(t.left), "coset_b": element_json(t.coset_b),
            "indices": list(t.coset_indices)}


def coset_listing(system):
    """A listed coset system's stated representatives and rows."""
    return ({"stated_representatives": [
        element_json(r) for r in system.stated_representatives]},
        [[r.cycle_string(), m.cycle_string(), s]
         for r, m, s in zip(system.stated_representatives,
                            system.representatives, system.sizes)])


# --- subcommand handlers -----------------------------------------------------

def _placeholder(count, noun, *rest):
    """The listing of one row that stands for `count` rows too many to list."""
    return lambda: ({}, [[f"<{count} {noun}>", *rest]])


def _cmd_enumerate(n):
    elements = full_group(n)
    expected = group_order(n)
    sizes = [len({g.perm for g in full_group(m)}) for m in range(n + 1)]  # distinct
    chain_ok = all(b == 2 * a * a for a, b in zip(sizes, sizes[1:]))
    payload = {
        "level": n,
        "size": sizes[-1],
        "expected_size": expected,
        "doubling_square_chain": chain_ok,
    }

    def listing():
        return ({"elements": [element_json(g) for g in elements]},
                [[g.word_string(), g.cycle_string()] for g in elements])
    return sizes[-1] == expected and chain_ok, payload, (
        listing if len(elements) <= MAX_LISTED_ELEMENTS
        else _placeholder(len(elements), "elements", ""))


def _cmd_center(n):
    computed = structure.center(n)
    expected = structure.center_closed_form(n)
    ok = computed == expected
    payload = {
        "level": n,
        "computed": [element_json(g) for g in computed],
        "expected": [element_json(g) for g in expected],
        "match": ok,
    }
    return ok, payload, lambda: ({}, [[g.word_string(), g.cycle_string()]
                                      for g in computed])


def _cmd_classes(n):
    decomp = structure.conjugacy_classes(n)
    predicted = structure.class_count(n)
    payload = {
        "level": n,
        "count": decomp.count,
        "predicted": predicted,
        "sizes": [o.size for o in decomp.orbits],
    }
    return decomp.count == predicted, payload, lambda: ({}, [
        [o.representative.cycle_string(), o.size] for o in decomp.orbits])


def _cmd_class_count(n):
    if n > MAX_CLASS_COUNT_LEVEL:
        raise UsageError(f"class-count capped at n = {MAX_CLASS_COUNT_LEVEL}")
    values = [structure.class_count(m) for m in range(n + 1)]
    payload = {"level": n, "value": values[-1],
               "sequence": [str(v) for v in values]}
    return None, payload, lambda: ({}, [[m, str(v)] for m, v in enumerate(values)])


def _cmd_right_cosets(n, l):
    system = structure.right_coset_reps(n, l)
    expected = group_order(system.ambient_level) // group_order(n)
    payload = {
        "base_level": n,
        "ambient_level": system.ambient_level,
        "count": system.count,
        "expected_count": expected,
        "coset_size": group_order(n),
    }
    return system.count == expected, payload, (
        (lambda: coset_listing(system)) if system.count <= MAX_LISTED_ELEMENTS
        else _placeholder(system.count, "cosets", "", group_order(n)))


def _cmd_double_cosets(n):
    system = structure.double_cosets(n)
    order = group_order(n)
    expected_sizes = sorted([order] * order + [order * order])
    ok = sorted(system.sizes) == expected_sizes  # so is the count
    payload = {
        "base_level": n,
        "ambient_level": system.ambient_level,
        "count": system.count,
        "expected_count": order + 1,
        "sizes": list(system.sizes),
    }
    return ok, payload, lambda: coset_listing(system)


def _cmd_orbits(n, k):
    decomp = structure.orbit_decomposition(n, k)
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

    def listing():
        rows = []
        for orbit_, label in zip(decomp.orbits, decomp.labels):
            if label.kind == "class":
                text = f"class({label.base.cycle_string()})*{label.shift.cycle_string()}"
            else:
                names = " ".join(f"b{j}" for j in reversed(label.indices))
                text = f"orbit({names})*{label.shift.cycle_string()}"
            rows.append([orbit_.representative.cycle_string(), orbit_.size, text])
        return {}, rows
    return decomp.count == corrected, payload, (
        listing if decomp.count <= MAX_LISTED_ELEMENTS
        else _placeholder(decomp.count, "orbits", "", ""))


def _cmd_centralizer_basis(n, k):
    basis = structure.centralizer_algebra_basis(n, k)
    sub = SubgroupSpec.embedded(n)
    # embedded(0) has no generator to commute with: no claim
    all_central = all(algebra.centralizes(v, sub) for v in basis) if n else None
    closure = all(c is not None for row in structure.algebra_constants(basis)
                  for c in row) if (n, k) == (1, 1) else None
    payload = {
        "base_level": n,
        "offset": k,
        "dimension": len(basis),
        "all_centralize": all_central,
        "closure_checked": closure,
    }
    listed = len(basis) <= MAX_LISTED_VECTORS
    return all_central and closure is not False, payload, lambda: (
        {"vectors": [algebra_json(v) for v in basis]} if listed else {},
        [[i, len(v.terms), algebra_text(v) if listed else f"<{len(v.terms)} terms>"]
         for i, v in enumerate(basis)])


def _cmd_presentation(n):
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
    # level 0 has no generator, so no relation instance: no claim
    return report.all_pass if report.instances else None, payload, lambda: ({}, [
        [inst.family, " ".join(map(str, inst.params)),
         "ok" if inst.holds else "FAIL"] for inst in report.instances] + [
        [3, " ".join(map(str, t)), "untestable"] for t in report.untestable])


def _cmd_mackey(n):
    summands = mackey.mackey_decomposition(n)
    payload = {
        "level": n,
        "id_multiplicity": sum(1 for s in summands if s.kind == "Id"),
        "expected_id_multiplicity": group_order(n),
        "dimension_total": sum(s.bimodule_dimension for s in summands),
        "expected_dimension_total": group_order(n + 1),
    }
    ok = (payload["id_multiplicity"] == payload["expected_id_multiplicity"]
          and payload["dimension_total"] == payload["expected_dimension_total"])
    return ok, payload, lambda: ({"summands": [{
        "rep": element_json(s.coset_rep),
        "intersection_order": len(s.intersection),
        "type": s.kind,
        "dimension": s.bimodule_dimension,
    } for s in summands]}, [[s.coset_rep.cycle_string(), len(s.intersection),
                             s.kind, s.bimodule_dimension] for s in summands])


def _cmd_tensor_basis(n, k, l):
    # the index raises VerificationError unless its size is the expected one
    size = endo.tensor_index(n, k, l).size
    payload = {
        "n": n, "k": k, "l": l,
        "size": size,
        "expected_size": endo.tensor_count(n + k - l, n, n - l),
        "left_level": n + k - l,
        "coset_base_level": n - l,
    }

    def listing():
        basis = endo.tensor_basis(n, k, l)
        return ({"elements": [tensor_json(t) for t in basis]},
                [[t.left.cycle_string(), t.coset_b.cycle_string(),
                  " ".join(map(str, t.coset_indices)) or "-"] for t in basis])
    return True, payload, (listing if size <= MAX_LISTED_ELEMENTS
                           else _placeholder(size, "tensors", "", ""))


def _cmd_end_basis(n, k, l):
    eb = endo.end_ind_res_basis(n, k, l)
    payload = {
        "n": n, "k": k, "l": l,
        "dimension": eb.dimension,
        "acting_level": eb.acting_level,
        "index_change_count": eb.index_change_count,
    }
    ok = eb.index_change_count == 0  # the acting group fixes swap indices
    if l == 0:
        reference = structure.centralizer_algebra_basis(n, k)
        payload["matches_centralizer_basis"] = tuple(eb.vectors) == reference
        ok = ok and payload["matches_centralizer_basis"]
    if eb.dimension > MAX_LISTED_VECTORS:
        return ok, payload, _placeholder(eb.dimension, "vectors", "", "")
    if l > 0:
        payload["products_within_span"], witness = endo.end_basis_closure(eb)
        if witness:  # (i, j): basis vector i composed with vector j
            payload["first_product_outside_span"] = list(witness)
        ok = ok and payload["products_within_span"]

    def listing():
        if l == 0:
            return ({"vectors": [algebra_json(v) for v in eb.vectors]},
                    [[i, len(v.terms), algebra_text(v)]
                     for i, v in enumerate(eb.vectors)])
        return ({"vectors": [[{**tensor_json(t), "coefficient": "1/1"} for t in vec]
                             for vec in eb.vectors]},
                [[i, len(vec), " + ".join(
                    f"{t.left.cycle_string()}(x){t.coset_rep().cycle_string()}"
                    for t in vec)] for i, vec in enumerate(eb.vectors)])
    return ok, payload, listing


def _cmd_d_gens(n, m):
    swaps, sums = endo.d_generator_table(n, m)
    table = [(f"b{i}^({shift})", elt) for (shift, i), elt in swaps] + [
        ("o(" + " ".join(f"b{j}" for j in reversed(indices)) + ")", elt)
        for indices, elt in sums]
    root_sum = dict(sums)[(n + 1,)]
    shift_zero = [g for (shift, _), elt in swaps if shift == 0 for g in elt.terms]
    # at n = 0 there is no shift-0 swap to commute with: no claim
    commute_ok = all(map(root_sum.commutes_with, shift_zero)) if shift_zero else None
    payload = {
        "base_level": n,
        "ambient_level": m,
        "count": len(table),
        "swap_generators": len(swaps),
        "orbit_sums": len(sums),
        "orbit_sum_commutes_with_shifted_gens": commute_ok,
        "generators": [{"label": label, "element": algebra_json(elt)}
                       for label, elt in table],
    }
    return commute_ok, payload, lambda: ({}, [[label, algebra_text(elt)]
                                              for label, elt in table])


def _cmd_power_table(n, max_k):
    powers = endo.power_table(n, max_k)
    base = powers[0]
    entries = [{
        "k": k,
        "terms": len(p.terms),
        "collapses_to_multiple": p == base.scaled(1 << (k - 1)),
        "element": algebra_json(p) if len(p.terms) <= MAX_LISTED_ELEMENTS
        else None,
    } for k, p in enumerate(powers, start=1)]
    payload = {"base_level": n, "max_k": max_k, "powers": entries}
    # the claim, made at n = 1 only: every odd power from k = 3 on collapses
    odd = [e["collapses_to_multiple"] for e in entries[2::2]]
    return all(odd) if n == 1 and odd else None, payload, lambda: ({}, [
        [e["k"], f"{1 << (e['k'] - 1)}/1 * o" if e["collapses_to_multiple"]
         else algebra_text(p) if len(p.terms) <= MAX_LISTED_VECTORS
         else f"<{len(p.terms)} terms>"] for e, p in zip(entries, powers)])


def _cmd_opposite_check(n, k):
    report = endo.opposite_check(n, k)
    payload = {
        "n": n, "k": k,
        "dimension": report.dimension,
        "closure_ok": report.closure_ok,
        "transpose_ok": report.transpose_ok,
    }
    if report.dimension <= MAX_TABLE_DIMENSION and report.closure_ok:
        payload["left_constants"], payload["right_constants"] = (
            [[[frac_str(cell.get(o, 0)) for o in range(report.dimension)]
              for cell in row] for row in table]
            for table in (report.left_constants, report.right_constants))
    return report.transpose_ok, payload, lambda: ({}, [  # needs closure_ok
        [report.dimension, report.closure_ok, report.transpose_ok]])


def _cmd_verify_all(seed, allow_large):
    from . import battery  # only this command compiles the battery
    try:
        return battery.verify_all(seed, allow_large, run)
    except GUARD_ERRORS as exc:  # no argument of verify-all can be at fault
        raise RuntimeError(f"{type(exc).__name__}: {exc}") from exc


# --- rendering and dispatch ----------------------------------------------------

def render(report: Report, fmt: str) -> str:
    """The report in one format; the one caller of its listing."""
    listed, rows = report.listing()
    if fmt == "json":
        blob = {
            "subcommand": report.subcommand,
            "parameters": report.parameters,
            "verdict": report.verdict,
            "payload": {**report.payload, **listed},
        }
        return json.dumps(blob, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(report.columns)
        for row in rows:
            writer.writerow([str(cell) for cell in row])
        return buf.getvalue()
    lines = [f"{report.verdict} {report.subcommand} "
             + " ".join(f"{k}={v}" for k, v in report.parameters.items())]
    if report.columns:
        lines.append("  " + " | ".join(report.columns))
        for row in rows:
            lines.append("  " + " | ".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


# name: (handler, arguments, columns, help); "--" marks an optional flag
_COMMANDS = {
    "enumerate": (_cmd_enumerate, "n", "word cycles",
                  "list a full level and check its order"),
    "center": (_cmd_center, "n", "word cycles",
               "brute-force center against the closed form"),
    "classes": (_cmd_classes, "n", "representative size",
                "conjugacy classes against the class-count recursion"),
    "class-count": (_cmd_class_count, "n", "n count",
                    "class-count recursion values"),
    "right-cosets": (_cmd_right_cosets, "n l", "stated_rep canonical_rep size",
                     "verified right-coset transversal"),
    "double-cosets": (_cmd_double_cosets, "n", "stated_rep canonical_rep size",
                      "verified two-sided coset decomposition"),
    "orbits": (_cmd_orbits, "n k", "representative size label",
               "conjugation orbits with structured labels"),
    "centralizer-basis": (_cmd_centralizer_basis, "n k",
                          "index terms vector",
                          "orbit-sum basis of the centralizer algebra"),
    "presentation": (_cmd_presentation, "n", "family params status",
                     "defining relations in the permutation representation"),
    "mackey": (_cmd_mackey, "n", "rep intersection_order type dimension",
               "double-coset summand census and dimension audit"),
    "tensor-basis": (_cmd_tensor_basis, "n k l", "left coset_b indices",
                     "tensor basis of the endomorphism bimodule"),
    "end-basis": (_cmd_end_basis, "n k l", "index support vector",
                  "orbit-sum basis of the endomorphism space"),
    "d-gens": (_cmd_d_gens, "n m", "label element",
               "generators of the non-central centralizer block"),
    "power-table": (_cmd_power_table, "n max_k", "k expansion",
                    "exact powers of the root-swap orbit sum"),
    "opposite-check": (_cmd_opposite_check, "n k",
                       "dimension closure transpose",
                       "left/right composition tables are transposed"),
    "verify-all": (_cmd_verify_all, "--seed --allow-large", "check status",
                   "run the whole desk-scale battery"),
}
_VERDICTS = {True: "PASS", False: "FAIL", None: "INFO"}


def _positionals(command):
    return [a for a in _COMMANDS[command][1].split() if not a.startswith("--")]


def _flags(command):
    return [a[2:].replace("-", "_") for a in _COMMANDS[command][1].split()
            if a.startswith("--")]


class _Parser(argparse.ArgumentParser):
    """Argument parser (subcommands too) whose usage error is one line."""

    def error(self, message):
        self.exit(2, f"usage: {self.prog}: {message}\n")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of `argv`: when argv[0] names a subcommand, only that
    subparser is registered, since a process parses one command line; for
    anything else (help, a typo, none, no `argv`) every one is."""
    parser = _Parser(
        prog="iterwreath",
        description="Exact verification tables for the binary-tree "
                    "automorphism tower.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        p = sub.add_parser(name, help=_COMMANDS[name][3])
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="write the report to this path instead of stdout")
        for arg in _positionals(name):
            p.add_argument(arg, type=int)
        if "allow_large" in _flags(name):
            p.add_argument("--allow-large", action="store_true",
                           help="add the level-4 center and class checks")
        if "seed" in _flags(name):
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def run(command, arguments) -> Report:
    """Run one command's handler on its arguments, by name."""
    handler, _, columns, _ = _COMMANDS[command]
    ok, payload, listing = handler(**arguments)
    return Report(command, arguments, _VERDICTS[ok], payload, columns.split(),
                  listing)


def dispatch(args) -> Report:
    positionals = _positionals(args.command)
    arguments = {name: getattr(args, name)
                 for name in positionals + _flags(args.command)}
    for name in positionals:
        if arguments[name] < 0:
            raise UsageError(f"{args.command}: argument {name} must be >= 0, "
                             f"got {arguments[name]}")
    try:
        return run(args.command, arguments)
    except VerificationError as exc:
        error = str(exc)  # `exc` is unbound once this block ends
        return Report(args.command, arguments, "FAIL", {"error": error},
                      ["error"], lambda: ({}, [[error]]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    started = time.perf_counter()
    try:
        report = dispatch(args)
        text = render(report, args.format)  # a listing's fault is caught too
    except GUARD_ERRORS as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the program, not in its input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = (time.perf_counter() - started) * 1e3
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
    print(f"# elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0 if report.verdict in ("PASS", "INFO") else 1


def entry():
    """The console script and `-m`: `main` as a one-shot process, whose objects
    all live until its one report, so the cyclic GC is off and the process
    ends with `os._exit` once stdout and stderr are flushed, not freeing its
    caches.  A flush that fails (a closed pipe) exits through `sys.exit`."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
