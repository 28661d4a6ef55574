"""Seeded operation streams for the benchmark workloads.

Each workload is a sequence of cycles; a cycle is a list of operations and a
run only stops at a cycle boundary, so mixes that are balanced within a cycle
(the q values of `qlink`, the levels of `enum-refusal`) stay balanced in every
run whatever the seed. An operation is the argv of one `gtkit` invocation
plus the facts the output checker needs. No input repeats within a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VERIFY_ORDER = (
    "q1-oracle",
    "bo-equivalence",
    "general-T",
    "q-oracle",
    "q-to-1",
    "qtoeplitz",
    "coherence",
    "boundary",
)
SEEDED_SUITES = ("qtoeplitz", "boundary")
QS = ("1/2", "2/3", "3/4")
# Every (N, K) pair runs in every run, in a seeded order: the walk's cost per
# budget unit differs by up to 2x between pairs, so a seeded subset would make
# the run's throughput depend on the seed.
ENUM_NS = tuple(range(8, 21))
ENUM_BUDGET = 300_000


@dataclass(frozen=True)
class Op:
    argv: tuple  # argv[0] is the gtkit subcommand: link, qlink, verify or bench
    info: dict = field(default_factory=dict, compare=False)  # top row, level, q of link rows


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; `tiny` specs keep the self-test fast."""

    min_cycles: int  # cycles always run, and covered by the output digest
    params: dict


SPECS = {
    "link-wide": Spec(2, {"n": 40, "top": 30, "bottom": -10, "level": 3}),
    "qlink": Spec(2, {"n": 20, "top": 14, "bottom": -4, "level": 3}),
    "verify-sweep": Spec(1, {"bounds": ()}),
    "enum-refusal": Spec(len(ENUM_NS), {"ns": ENUM_NS, "budget": ENUM_BUDGET}),
}

TINY_SPECS = {
    "link-wide": Spec(1, {"n": 6, "top": 3, "bottom": -1, "level": 2}),
    "qlink": Spec(1, {"n": 5, "top": 2, "bottom": -1, "level": 2}),
    "verify-sweep": Spec(1, {"bounds": ("--max-n", "3", "--part-bound", "1")}),
    "enum-refusal": Spec(2, {"ns": (8, 9), "budget": 2000}),
}

WORKLOADS = tuple(SPECS)


def _sig(parts) -> str:
    return ",".join(str(p) for p in parts)


def _fresh_rows(rng: random.Random, n: int, top: int, bottom: int):
    """Top rows of length n with fixed ends and a uniform sorted interior, so
    every row has the same support box. Ends when a thousand draws in a row
    bring nothing new, which happens only at tiny sizes."""
    seen = set()
    misses = 0
    while misses < 1000:
        interior = sorted((rng.randint(bottom, top) for _ in range(n - 2)), reverse=True)
        row = (top, *interior, bottom)
        if row in seen:
            misses += 1
            continue
        misses = 0
        seen.add(row)
        yield row


def cycles(workload: str, seed: int, tiny: bool = False):
    """Yield the workload's cycles for this seed, lazily and reproducibly.
    `verify-sweep` has one cycle and `enum-refusal` one per top-row length;
    the others never run out."""
    p = spec(workload, tiny).params
    rng = random.Random(f"{workload}:{seed}")
    if workload == "link-wide":
        for nu in _fresh_rows(rng, p["n"], p["top"], p["bottom"]):
            argv = ("link", _sig(nu), "--level", str(p["level"]))
            yield [Op(argv, {"nu": nu, "level": p["level"], "q": None})]
    elif workload == "qlink":
        rows = _fresh_rows(rng, p["n"], p["top"], p["bottom"])
        while True:
            cycle = []
            for q in QS:
                nu = next(rows, None)
                if nu is None:
                    return
                argv = ("qlink", _sig(nu), "--level", str(p["level"]), "--q", q)
                cycle.append(Op(argv, {"nu": nu, "level": p["level"], "q": q}))
            yield cycle
    elif workload == "verify-sweep":
        cycle = []
        for suite in VERIFY_ORDER:
            argv = ("verify", suite, *p["bounds"])
            if suite in SEEDED_SUITES:
                argv += ("--seed", str(seed))
            cycle.append(Op(argv))
        yield cycle
    elif workload == "enum-refusal":
        # one shuffled N order per level, so no (N, K) pair repeats in a run
        orders = {k: rng.sample(p["ns"], len(p["ns"])) for k in (1, 2, 3)}
        for c in range(len(p["ns"])):
            yield [
                Op(("bench", "--n", str(orders[k][c]), "--level", str(k), "--budget", str(p["budget"])))
                for k in (1, 2, 3)
            ]


def spec(workload: str, tiny: bool = False) -> Spec:
    if workload not in SPECS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return (TINY_SPECS if tiny else SPECS)[workload]
