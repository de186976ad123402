"""Per-layer tracing of one iterwreath CLI command, from outside the package.

Run as a script, this wraps the public functions of every iterwreath module,
runs one CLI command in this process, and writes the recorded spans and
counts to a JSON file:

    PYTHONPATH=src python benchmarks/tracing.py --out spans.json --cmd-id 0 -- \
        opposite-check 1 2 --format json

Stdout is the command's own stdout, unchanged.  A span is recorded around
each call of a timed function: (name, start, end, parent index).  Hot element
operations (`TreeAutomorphism.__mul__`, `inverse` and the constructors) are
only counted, because a timer would cost a large share of a multiply that
takes a few microseconds.

`aggregate` turns the span files of a workload's commands into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# Timed functions: (module, attribute, span name, work measure or None).
# A work measure maps (args, result) to a count summed over the outermost
# spans of that name.  Every binding of the function in every iterwreath
# module is replaced, so `from ... import` sites are traced too.
TIMED_FUNCTIONS = [
    ("treegroup", "factorize", "treegroup.factorize", None),
    ("treegroup", "full_group", "treegroup.full_group", None),
    ("algebra", "orbit", "algebra.orbit", lambda a, r: r.size),
    ("algebra", "orbit_sum", "algebra.orbit_sum", None),
    ("algebra", "class_sum", "algebra.orbit_sum", None),
    ("algebra", "centralizes", "algebra.centralizes", None),
    ("structure", "conjugacy_classes", "structure.classes", lambda a, r: r.count),
    ("structure", "orbit_decomposition", "structure.classes", lambda a, r: r.count),
    ("structure", "centralizer_algebra_basis", "structure.centralizer_basis", None),
    ("structure", "expand_in_orbit_basis", "structure.expand", None),
    ("structure", "coset_rep_pairs", "structure.cosets", lambda a, r: len(r)),
    ("structure", "right_coset_reps", "structure.cosets", lambda a, r: r.count),
    ("structure", "double_cosets", "structure.cosets", lambda a, r: r.count),
    ("structure", "center", "structure.center", None),
    ("structure", "center_closed_form", "structure.center", None),
    ("structure", "group_centralizer", "structure.center", None),
    ("structure", "check_presentation", "structure.presentation", None),
    ("mackey", "mackey_decomposition", "mackey.decomposition", None),
    ("mackey", "conjugate_intersection", "mackey.intersection", None),
    ("endo", "tensor_basis", "endo.tensor_basis", lambda a, r: len(r)),
    ("endo", "end_ind_res_basis", "endo.end_basis", lambda a, r: r.dimension),
    ("endo", "end_basis_closure", "endo.closure", None),
    ("endo", "compose_tensor_sums", "endo.compose",
     lambda a, r: len(a[0]) * len(a[1])),
    ("endo", "opposite_check", "endo.opposite", None),
    ("endo", "power_table", "endo.power_table", None),
    ("endo", "d_generator_table", "endo.d_generators", None),
    ("cli", "dispatch", "cli.dispatch", None),
    ("cli", "render", "cli.render", lambda a, r: len(r.encode("utf-8"))),
]

# Counted module functions: (module, attribute, counter).
COUNTED_FUNCTIONS = [
    ("treegroup", name, "treegroup.construct_calls")
    for name in ("perm_embed", "hat_embed", "embed_to", "components")
]

# Counted TreeAutomorphism methods and classmethods: (attribute, counter).
COUNTED_ELEMENT_METHODS = [
    ("__mul__", "treegroup.mul_calls"),
    ("inverse", "treegroup.inverse_calls"),
    ("from_word", "treegroup.construct_calls"),
    ("identity", "treegroup.construct_calls"),
    ("beta", "treegroup.construct_calls"),
    ("from_permutation", "treegroup.construct_calls"),
]

LAYERS = ("treegroup", "algebra", "structure", "mackey", "endo", "cli")


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start, end, parent index, work]
        self.stack = []
        self.counts = {}
        self.missing = []  # wrapped names the program no longer defines

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def timed(self, fn, name, work=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if work is not None:
                spans[index][4] = work(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, counter):
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer functions of an imported iterwreath package."""
        import iterwreath.cli  # noqa: F401  (imports every layer module)
        from iterwreath.algebra import AlgebraElement
        from iterwreath.treegroup import SubgroupSpec, TreeAutomorphism

        modules = [m for key, m in sys.modules.items()
                   if key == "iterwreath" or key.startswith("iterwreath.")]

        def rebind(original, replacement):
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

        def lookup(owner, attr, label):
            found = vars(owner).get(attr)
            if found is None:
                self.missing.append(label)
            return found

        for module, attr, name, work in TIMED_FUNCTIONS:
            original = lookup(sys.modules["iterwreath." + module], attr,
                              f"{module}.{attr}")
            if original is None:
                continue
            wrapper = self.timed(original, name, work)
            if hasattr(original, "cache_info"):  # keep the lru_cache API
                wrapper.cache_info = original.cache_info
                wrapper.cache_clear = original.cache_clear
            rebind(original, wrapper)
        for module, attr, counter in COUNTED_FUNCTIONS:
            original = lookup(sys.modules["iterwreath." + module], attr,
                              f"{module}.{attr}")
            if original is not None:
                rebind(original, self.counted(original, counter))

        for attr, counter in COUNTED_ELEMENT_METHODS:
            raw = lookup(TreeAutomorphism, attr, f"TreeAutomorphism.{attr}")
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.counted(raw.__func__, counter))
            else:
                wrapped = self.counted(raw, counter)
            setattr(TreeAutomorphism, attr, wrapped)
        SubgroupSpec.elements = self.timed(
            SubgroupSpec.elements, "treegroup.subgroup_elements")

        algebra_product = AlgebraElement.__mul__
        product = self.timed(
            algebra_product, "algebra.product",
            lambda a, r: len(a[0].terms) * len(a[1].terms))

        def algebra_mul(x, other):
            # scalar multiples are not algebra products
            if isinstance(other, AlgebraElement):
                return product(x, other)
            return algebra_product(x, other)

        AlgebraElement.__mul__ = algebra_mul

    def dump(self, path, cmd_id):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"cmd": cmd_id, "names": self.names, "spans": self.spans,
                       "counts": self.counts, "missing": self.missing}, fh)


def aggregate(traces):
    """Per-layer metrics summed over the span files of several commands.

    `<name>_s` is busy time: the summed length of the outermost spans of
    that name, so nested calls are not counted twice.  `<layer>.self_s` is
    the time of the layer's spans not covered by their child spans.
    """
    busy, calls, work, counts = {}, {}, {}, {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name_id, start, end, parent, amount) in enumerate(spans):
            name = names[name_id]
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_time[layer] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name_id:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] = busy.get(name, 0.0) + (end - start)
                work[name] = work.get(name, 0) + amount
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def w(name):
        return work.get(name, 0)

    out = {
        "treegroup.mul_calls": counts.get("treegroup.mul_calls", 0),
        "treegroup.inverse_calls": counts.get("treegroup.inverse_calls", 0),
        "treegroup.construct_calls": counts.get("treegroup.construct_calls", 0),
        "treegroup.factorize_calls": c("treegroup.factorize"),
        "treegroup.factorize_s": b("treegroup.factorize"),
        "treegroup.full_group_s": b("treegroup.full_group"),
        "treegroup.subgroup_elements_s": b("treegroup.subgroup_elements"),
        "algebra.product_calls": c("algebra.product"),
        "algebra.product_pairs": w("algebra.product"),
        "algebra.product_s": b("algebra.product"),
        "algebra.orbit_calls": c("algebra.orbit"),
        "algebra.orbit_elements": w("algebra.orbit"),
        "algebra.orbit_s": b("algebra.orbit"),
        "algebra.centralizes_s": b("algebra.centralizes"),
        "structure.classes_s": b("structure.classes"),
        "structure.orbits_found": w("structure.classes"),
        "structure.cosets_s": b("structure.cosets"),
        "structure.cosets_built": w("structure.cosets"),
        "structure.center_s": b("structure.center"),
        "structure.expand_calls": c("structure.expand"),
        "structure.expand_s": b("structure.expand"),
        "structure.presentation_s": b("structure.presentation"),
        "mackey.decomposition_s": b("mackey.decomposition"),
        "mackey.intersection_calls": c("mackey.intersection"),
        "mackey.intersection_s": b("mackey.intersection"),
        "endo.tensor_basis_s": b("endo.tensor_basis"),
        "endo.tensors_built": w("endo.tensor_basis"),
        "endo.end_basis_s": b("endo.end_basis"),
        "endo.end_dimension": w("endo.end_basis"),
        "endo.closure_s": b("endo.closure"),
        "endo.compose_calls": c("endo.compose"),
        "endo.compose_pairs": w("endo.compose"),
        "endo.opposite_s": b("endo.opposite"),
        "endo.power_table_s": b("endo.power_table"),
        "endo.d_generators_s": b("endo.d_generators"),
        "cli.dispatch_s": b("cli.dispatch"),
        "cli.render_s": b("cli.render"),
        "cli.output_bytes": w("cli.render"),
    }
    for layer in ("algebra", "structure", "mackey", "endo", "cli"):
        out[f"{layer}.self_s"] = self_time[layer]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="span file to write")
    parser.add_argument("--cmd-id", type=int, default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="iterwreath CLI arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    tracer.install()
    from iterwreath import cli

    code = cli.main(command)
    sys.stdout.flush()
    tracer.dump(args.out, args.cmd_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
