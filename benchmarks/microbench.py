"""Element-layer microbenchmarks, run in a process of their own.

    PYTHONPATH=src python benchmarks/microbench.py --seed 3      # warm ops
    PYTHONPATH=src python benchmarks/microbench.py --cold        # full_group(4)

The warm mode builds `full_group(4)` first, then times level-4 multiplies,
inverses and `TreeAutomorphism.from_word` over samples drawn from the seed,
checks every result against a direct computation on the leaf images, and
prints one JSON object with the per-operation medians in microseconds.  The
cold mode times the first `full_group(4)` call of a fresh process.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

SAMPLES = 2000
REPEATS = 7


def per_op_us(op, items):
    """Median over REPEATS timed passes of op over items, in us per item."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for item in items:
            op(item)
        times.append((time.perf_counter() - start) / len(items) * 1e6)
    return statistics.median(times)


def warm(seed):
    from iterwreath.treegroup import TreeAutomorphism, full_group

    group = full_group(4)
    rng = random.Random(seed)
    pairs = [(rng.choice(group), rng.choice(group)) for _ in range(SAMPLES)]
    singles = [rng.choice(group) for _ in range(SAMPLES)]
    words = [tuple(rng.randrange(2) for _ in range(15)) for _ in range(SAMPLES)]

    for a, b in pairs:
        if (a * b).images != tuple(a.images[x - 1] for x in b.images):
            raise SystemExit(f"wrong product {a!r} * {b!r}")
    for g in singles:
        if not (g * g.inverse()).is_identity:
            raise SystemExit(f"wrong inverse of {g!r}")
    for word in words:
        if TreeAutomorphism.from_word(word).word != word:
            raise SystemExit(f"from_word does not round-trip {word}")

    return {
        "treegroup.mul_us": per_op_us(lambda p: p[0] * p[1], pairs),
        "treegroup.inverse_us": per_op_us(lambda g: g.inverse(), singles),
        "treegroup.from_word_us": per_op_us(TreeAutomorphism.from_word, words),
    }


def cold():
    from iterwreath.treegroup import full_group

    start = time.perf_counter()
    group = full_group(4)
    elapsed = time.perf_counter() - start
    if len(group) != 32768 or len(set(group)) != 32768:
        raise SystemExit(f"full_group(4) has {len(set(group))} distinct elements")
    return {"treegroup.full_group4_cold_s": elapsed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seed", type=int)
    mode.add_argument("--cold", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(cold() if args.cold else warm(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
