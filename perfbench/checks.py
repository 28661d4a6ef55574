"""Output checks and the output digest.

`check` reads one operation's output a line at a time right after the call,
outside the timed region and without gtkit code, so a run keeps no outputs
and warms no program cache. Link rows are checked in full (support, order,
sign, exact mass 1), and a seeded sample of entries is set aside. `confirm`,
run after the last timed operation, compares those entries with a route that
shares no code with the row builders:

- q = 1: dim(kappa) times a Leibniz determinant, written here, of the
  polynomial-division coefficients `bo_coefficient`;
- q < 1: `general_q_projection` with the bottom-run subset T = {0..N-K-1}.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from gtkit.patterns import dim_product
from gtkit.qlinks import QDetContext, TSpec, general_q_projection
from gtkit.reldim import DetContext, bo_coefficient

# Fields that carry wall-clock readings. `bench` entries also carry the
# determinant time in `value`.
TIMING_FIELDS = ("seconds", "det_seconds", "enum_seconds", "timing")
SAMPLES_PER_ROW = 1


@dataclass
class Outcome:
    ok: bool
    work: int  # kappas, checks or budget units this operation settled
    reason: str | None = None
    sampled: list = field(default_factory=list)  # (kappa, emitted weight) for `confirm`


class Digest:
    """SHA-256 over (argv, exit code, emitted lines minus timing fields) of
    each operation, in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, argv, code: int, stdout: str) -> None:
        self._h.update(json.dumps({"argv": list(argv), "exit": code}).encode())
        for line in stdout.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                self._h.update(line.encode())
                continue
            drop = TIMING_FIELDS + (("value",) if argv[0] == "bench" and "label" in obj else ())
            self._h.update(json.dumps({k: v for k, v in obj.items() if k not in drop}, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def leibniz_det(matrix) -> Fraction:
    total = Fraction(0)
    n = len(matrix)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for r in range(n):
            term *= matrix[r][perm[r]]
        total += term
    return total


def _independent_weight(nu, k, q, kappa) -> Fraction:
    if q is None:
        ctx = DetContext(k, nu)
        matrix = [[bo_coefficient(ctx, i, kappa[j - 1] - j) for j in range(1, k + 1)] for i in range(1, k + 1)]
        return dim_product(kappa) * leibniz_det(matrix)
    n = len(nu)
    ctx = QDetContext(k, nu, Fraction(q))
    return general_q_projection(ctx, TSpec(n, k, tuple(range(n - k))), kappa)


def _check_row(op, lines, sample_seed) -> Outcome:
    nu, k = op.info["nu"], op.info["level"]
    box_size = math.comb(nu[0] - nu[-1] + k, k)
    if len(lines) < 2:
        return Outcome(False, box_size, "no entries")
    row_sum = json.loads(lines[-2])
    if row_sum.get("label") != "row_sum" or row_sum.get("value") != "1":
        return Outcome(False, box_size, f"last entry is {row_sum}, not row_sum 1")
    sample = set()
    if sample_seed is not None:
        box = itertools.combinations_with_replacement(range(nu[0], nu[-1] - 1, -1), k)
        sample = set(random.Random(sample_seed).sample(list(box), SAMPLES_PER_ROW))
    total = Fraction(0)
    found = {}
    previous = None
    for line in lines[:-2]:
        entry = json.loads(line)
        kappa = tuple(int(p) for p in entry["label"].split(","))
        w = Fraction(entry["value"])
        if len(kappa) != k or not nu[-1] <= kappa[-1] <= kappa[0] <= nu[0] or list(kappa) != sorted(kappa, reverse=True):
            return Outcome(False, box_size, f"entry {entry['label']} outside the support box")
        if previous is not None and kappa <= previous:
            return Outcome(False, box_size, f"entry {entry['label']} repeated or out of order")
        if w <= 0:
            return Outcome(False, box_size, f"nonpositive weight {w} at {entry['label']}")
        previous = kappa
        total += w
        if kappa in sample:
            found[kappa] = w
    if total != 1:
        return Outcome(False, box_size, f"entries sum to {total}, not 1")
    return Outcome(True, box_size, sampled=[(kappa, found.get(kappa, Fraction(0))) for kappa in sorted(sample)])


def _check_verify(lines) -> Outcome:
    entries = [json.loads(line) for line in lines[:-1]]
    checks = sum(int(e.get("checks") or 0) for e in entries)
    bad = [e["label"] for e in entries if not e.get("ok") or e.get("value") != "ok"]
    if bad or not entries:
        return Outcome(False, checks, f"cases not ok: {bad}" if bad else "no cases")
    return Outcome(True, checks)


def _check_bench(op, lines) -> Outcome:
    budget = int(op.argv[op.argv.index("--budget") + 1])
    if len(lines) != 2:
        return Outcome(False, budget, f"expected one bench row, got {len(lines) - 1}")
    row = json.loads(lines[0])
    if row.get("row_sum_1") is not True:
        return Outcome(False, budget, "determinant row does not sum to 1")
    verdict = row.get("enumeration")
    if verdict == "budget-exceeded":
        return Outcome(True, budget)
    if verdict == "completed" and row.get("enum_matches_det") is True:
        return Outcome(True, budget)
    return Outcome(False, budget, f"enumeration {verdict!r}, enum_matches_det {row.get('enum_matches_det')!r}")


def check(op, code: int, stdout: str, sample_seed=None) -> Outcome:
    """Judge one operation: exit 0, status pass, and the subcommand's checks.
    A `budget-exceeded` verdict from `bench` is the expected outcome. With a
    `sample_seed`, link-row entries for `confirm` are drawn with it."""
    if code != 0:
        return Outcome(False, 0, f"exit code {code}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        summary = json.loads(lines[-1]) if lines else {}
        if summary.get("status") != "pass" or summary.get("command") != op.argv[0]:
            return Outcome(False, 0, f"summary {summary}")
        if op.argv[0] in ("link", "qlink"):
            return _check_row(op, lines, sample_seed)
        if op.argv[0] == "verify":
            return _check_verify(lines)
        return _check_bench(op, lines)
    except (ValueError, KeyError, TypeError) as err:
        return Outcome(False, 0, f"malformed output: {type(err).__name__}: {err}")


def confirm(op, outcome: Outcome) -> Outcome:
    """Compare the entries `check` set aside with the independent route."""
    for kappa, got in outcome.sampled:
        want = _independent_weight(op.info["nu"], op.info["level"], op.info["q"], kappa)
        if got != want:
            return Outcome(False, outcome.work, f"weight at {kappa} is {got}, independent route gives {want}")
    return outcome
