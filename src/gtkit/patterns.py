"""Interlacing integer signatures and trapezoidal pattern enumeration.

A signature of length N is a nonincreasing tuple of integers. A trapezoidal
pattern with bottom row kappa (length K) and top row nu (length N) is a chain
kappa = row_K < row_{K+1} < ... < row_N = nu in which consecutive rows
interlace. These enumerators are the brute-force oracles the determinantal
routes are checked against, so they stay deliberately naive: every pattern is
walked explicitly, with a work budget so a too-large instance fails loudly
instead of running unbounded. Where the product formula gives a lower bound
on a walk's cost, an instance the budget cannot cover is refused before the
walk starts.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Sequence

from .linalg import Rat

Signature = tuple  # of ints, nonincreasing

DEFAULT_BUDGET = 10_000_000

__all__ = [
    "Signature",
    "BudgetExceededError",
    "Budget",
    "DEFAULT_BUDGET",
    "resolve_budget",
    "check_signature",
    "parse_signature",
    "format_signature",
    "interlaces",
    "fits_under",
    "enumerate_trapezoids",
    "rel_dim_oracle",
    "skew_profile",
    "rel_dim_table",
    "rel_dim_table_bound",
    "dim_product",
    "dim_oracle",
    "q_dim",
    "q_dim_oracle",
    "q_rel_dim_oracle",
    "q_series",
    "profile_at_q_powers",
    "check_q",
    "all_signatures",
    "support_box",
]


class BudgetExceededError(RuntimeError):
    """Enumeration abandoned because it would consume more than its work budget.

    `budget` is the allowance in units and `consumed` the units charged
    against it when the walk stopped. `bound` is the lower bound on the
    walk's cost that refused it before any unit was spent, or None when the
    walk was stopped partway.
    """

    def __init__(self, budget: int, consumed: int, bound: int | None = None):
        if bound is None:
            what = f"enumeration exceeded its work budget of {budget} units"
        else:
            what = f"enumeration needs at least {bound} work units, over its budget of {budget}"
        super().__init__(
            f"{what}; use the determinantal route or raise the budget "
            "(GTKIT_BUDGET or the budget= argument)"
        )
        self.budget = budget
        self.consumed = consumed
        self.bound = bound


class Budget:
    """Work allowance of one oracle walk, in units (one per row cell placed).

    Pass one as `budget=` to read afterwards what the walk spent (`consumed`)
    and the lower bound its pre-flight found (`bound`, None when the oracle
    has no pre-flight).
    """

    __slots__ = ("limit", "remaining", "bound")

    def __init__(self, units: int):
        units = _integer(units, "work budget")
        if units < 0:
            raise ValueError(f"work budget must be at least 0 units, got {units}")
        self.limit = units
        self.remaining = units
        self.bound: int | None = None

    @property
    def consumed(self) -> int:
        return self.limit - self.remaining

    def consume(self, units: int) -> None:
        self.remaining -= units
        if self.remaining < 0:
            raise BudgetExceededError(self.limit, self.consumed)

    def preflight(self, bound: int) -> None:
        """Refuse before walking when the walk is known to cost at least
        `bound` units and they are not left. A walk that costs at least one
        unit more than remains always fails, so this refuses nothing that
        would have finished."""
        self.bound = bound
        if bound > max(self.remaining, 0):
            raise BudgetExceededError(self.limit, self.consumed, bound)


def resolve_budget(budget: int | Budget | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    if budget is None:
        env = os.environ.get("GTKIT_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(f"GTKIT_BUDGET must be an integer number of work units, got {env!r}") from None
    return Budget(budget)


# ---------------------------------------------------------------------------
# signatures


def _integers(values: Iterable[int], name: str) -> tuple[int, ...]:
    """The values as ints, read with operator.index: a value that is not an
    integer (2.7, a Fraction, a string) is refused, not truncated."""
    # map itself raises TypeError when values is not iterable; only a value
    # that is not an integer becomes the ValueError below
    parts = map(operator.index, values)
    try:
        return tuple(parts)
    except TypeError:
        raise ValueError(f"{name} must be integers, got {values!r}") from None


def _integer(value: int, name: str) -> int:
    """One value read as _integers reads each of its values."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_signature(sig: Sequence[int]) -> Signature:
    out = _integers(sig, "signature parts")
    if any(map(operator.lt, out, out[1:])):
        raise ValueError(f"signature parts must be nonincreasing, got {out}")
    return out


def parse_signature(text: str) -> Signature:
    """Parse '4,2,0,0,-1' (empty string is the empty signature)."""
    return check_signature(_parse_ints(text))


def _parse_ints(text: str) -> list[int]:
    """Parse '4,2,0' into its integers; the empty string has none."""
    text = text.strip()
    parts = []
    for pos, token in enumerate(text.split(",") if text else [], start=1):
        try:
            parts.append(int(token))
        except ValueError:
            raise ValueError(f"bad integer {token.strip()!r} at position {pos} in {text!r}") from None
    return parts


def format_signature(sig: Sequence[int]) -> str:
    return ",".join(map(str, sig))


def interlaces(lower: Sequence[int], upper: Sequence[int]) -> bool:
    """True when upper_1 >= lower_1 >= upper_2 >= ... >= lower_n >= upper_{n+1}."""
    if len(upper) != len(lower) + 1:
        return False
    for i, m in enumerate(lower):
        if not (upper[i] >= m >= upper[i + 1]):
            return False
    return True


def fits_under(row: Sequence[int], nu: Sequence[int]) -> bool:
    """True when some interlacing chain continues row up to nu.

    Equivalent to nu_{i + N - m} <= row_i <= nu_i for all i, the condition
    that the skew shape between them stacks into N - m interlacing steps.
    """
    n, m = len(nu), len(row)
    if m > n:
        return False
    return all(nu[i + n - m] <= row[i] <= nu[i] for i in range(m))


# ---------------------------------------------------------------------------
# patterns


def _row_ranges(mu: Signature, nu: Signature, m: int) -> list[range] | None:
    """Per-part ranges for the row of length m directly above mu, constrained
    to stay completable up to nu. None when empty."""
    n = len(nu)
    ranges = []
    for i in range(m):
        lo = nu[i + n - m]
        if i < len(mu):
            lo = max(lo, mu[i])
        hi = nu[i]
        if i >= 1:
            hi = min(hi, mu[i - 1])
        if lo > hi:
            return None
        ranges.append(range(lo, hi + 1))
    return ranges


def _ascend(mu: Signature, nu: Signature, level: int, budget: Budget) -> Iterator[tuple]:
    """Yield all chains (row_{level+1}, ..., row_N = nu) above mu, lexicographically."""
    if level == len(nu):
        yield ()
        return
    m = level + 1
    ranges = _row_ranges(mu, nu, m)
    if ranges is None:
        return
    budget_consume = budget.consume
    # row_i <= mu_{i-1} <= row_{i-1}, so candidates are automatically nonincreasing
    for row in reduce(_extend, ranges, [()]):
        budget_consume(m)
        for rest in _ascend(row, nu, m, budget):
            yield (row,) + rest


def _extend(rows: Iterable[tuple], part: range) -> Iterator[tuple]:
    """Each row followed by each value of part, lazily: a range is never
    copied, so the budget stops a walk under a wide top row in time."""
    for row in rows:
        for v in part:
            yield row + (v,)


def _rows_below(lam: Signature) -> Iterable[tuple]:
    """All rows of length len(lam) - 1 that interlace under lam, drawn
    lexicographically and lazily like _ascend's."""
    return reduce(_extend, [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)], [()])


def enumerate_trapezoids(
    kappa: Sequence[int], nu: Sequence[int], budget: int | Budget | None = None
) -> Iterator[tuple]:
    """All trapezoidal patterns with bottom kappa and top nu, each as its rows
    (kappa, row_{K+1}, ..., nu), in lexicographic order on the concatenation
    of the rows from bottom to top. The arguments are checked at the call."""
    kappa = check_signature(kappa)
    nu = check_signature(nu)
    if len(kappa) > len(nu):
        raise ValueError("bottom row longer than top row")
    b = resolve_budget(budget)
    chains = _ascend(kappa, nu, len(kappa), b) if fits_under(kappa, nu) else ()
    return ((kappa,) + chain for chain in chains)


def skew_profile(kappa: Sequence[int], nu: Sequence[int], budget: int | Budget | None = None) -> Counter:
    """Multiset of row-sum increment vectors over all trapezoids kappa -> nu;
    evaluating sum_d count[d] prod_m u_m^{d_m} gives the skew Schur value in
    N - K variables. The trapezoid oracles below are groupings of it."""
    profile: Counter = Counter()
    for rows in enumerate_trapezoids(kappa, nu, budget):
        sums = list(map(sum, rows))
        profile[tuple(map(operator.sub, sums[1:], sums))] += 1
    return profile


def rel_dim_oracle(kappa: Sequence[int], nu: Sequence[int], budget: int | Budget | None = None) -> int:
    """Number of trapezoids with bottom kappa and top nu: their profile's total."""
    return sum(skew_profile(kappa, nu, budget).values())


def _descend_counts(lam: Signature, level: int, to_level: int, budget: Budget, table: dict) -> None:
    if level == to_level:
        table[lam] = table.get(lam, 0) + 1
        return
    m = level - 1
    budget_consume = budget.consume
    for row in _rows_below(lam):
        budget_consume(m)
        _descend_counts(row, m, to_level, budget, table)


def rel_dim_table_bound(nu: Sequence[int], K: int) -> int:
    """Lower bound on the work units rel_dim_table(nu, K) consumes, from the
    product formula alone.

    Each chain from nu down to level K pays K units there, and
    dim(nu) = sum_kappa rdim(kappa, nu) * dim(kappa), so there are at least
    dim(nu) / max dim(kappa) such chains. Every kappa in the box has
    kappa_i - kappa_j <= W = nu_1 - nu_N, so dim(kappa) is at most
    prod_{i<j<=K} (W + j - i) / (j - i). At K = 0 and K = N the walk
    places no row at level K and the bound is 0.
    """
    nu = check_signature(nu)
    n = len(nu)
    if not 0 <= K <= n:
        raise ValueError("level out of range")
    if K in (0, n):
        return 0
    width = nu[0] - nu[-1]
    num = den = 1
    for i in range(K):
        for j in range(i + 1, K):
            num *= width + j - i
            den *= j - i
    return K * dim_product(nu) * den // num


def rel_dim_table(nu: Sequence[int], K: int, budget: int | Budget | None = None) -> dict:
    """Trapezoid counts for every bottom row at once: {kappa: count}.

    The downward walk from nu, grouped by where each chain lands at level K;
    rel_dim_oracle counts the chains to one kappa by the upward walk.
    Refused up front when rel_dim_table_bound exceeds the budget.
    """
    nu = check_signature(nu)
    b = resolve_budget(budget)
    b.preflight(rel_dim_table_bound(nu, K))
    table: dict = {}
    _descend_counts(nu, len(nu), K, b, table)
    return table


def dim_oracle(nu: Sequence[int], budget: int | Budget | None = None) -> int:
    """Number of triangular patterns with top row nu, counted one by one:
    every chain down to level 1 is a pattern, so this is the sum of
    rel_dim_table(nu, 1), pre-flight included."""
    nu = check_signature(nu)
    if not nu:
        return 1
    return sum(rel_dim_table(nu, 1, budget).values())


def dim_product(nu: Sequence[int]) -> int:
    """Triangular pattern count via the hook-style product
    prod_{i<j} (nu_i - nu_j + j - i) / (j - i)."""
    nu = check_signature(nu)
    n = len(nu)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= nu[i] - nu[j] + j - i
            den *= j - i
    out, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"dimension product of {nu} is not an integer")
    return out


# ---------------------------------------------------------------------------
# q-weighted counts


def check_q(q) -> Rat:
    if type(q) is not Fraction:
        q = Fraction(q)
    if not 0 < q.numerator < q.denominator:
        raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
    return q


def _q_diff_product(q: Rat, pairs: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """prod (q^u - q^v) over the exponent pairs (u, v), at q = a/b in lowest
    terms, as (c, ea, eb): the product is c * a^ea * b^eb.

    With m = min(u, v) and d = |u - v|, a factor is q^m (1 - q^d) up to sign,
    that is +-a^m b^{-m-d} (b^d - a^d), so the product takes integer
    multiplications only. Each b^d - a^d is prime to a and to b, hence so is
    c. A pair with u == v gives c = 0.
    """
    a, b = q.numerator, q.denominator
    c, ea, eb = 1, 0, 0
    for u, v in pairs:
        if u > v:
            u, v = v, u
            c = -c
        c *= b ** (v - u) - a ** (v - u)
        ea += u
        eb -= v
    return c, ea, eb


def _q_fraction(q: Rat, num: int, den: int, ea: int, eb: int) -> Rat:
    """num / den * a^ea * b^eb for q = a/b, normalised once as one Fraction."""
    a, b = q.numerator, q.denominator
    if ea >= 0:
        num *= a**ea
    else:
        den *= a**-ea
    if eb >= 0:
        num *= b**eb
    else:
        den *= b**-eb
    return Fraction(num, den)


def _q_sum(q: Rat, terms: Sequence[tuple[int, int, int]], den: int) -> Rat:
    """sum c * a^ea * b^eb / den over the (c, ea, eb) terms at q = a/b, added in
    integers after a shift to the smallest powers of a and b, normalised once."""
    if not terms:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    lo_a = min(ea for _, ea, _ in terms)
    lo_b = min(eb for _, _, eb in terms)
    total = sum(c * a ** (ea - lo_a) * b ** (eb - lo_b) for c, ea, eb in terms)
    return _q_fraction(q, total, den, lo_a, lo_b)


# Keyed by q = a/b as two integers: q_dim looks it up once per kappa, and
# hashing a Fraction key takes a modular inverse on every lookup.
@lru_cache(maxsize=64)
def _q_dim_denominator(n: int, a: int, b: int) -> tuple[int, int, int]:
    """prod_{i<j<=n} (q^{-i} - q^{-j}) at q = a/b, in the form of _q_diff_product."""
    return _q_diff_product(Fraction(a, b), ((-i, -j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def q_dim(nu: Sequence[int], q) -> Rat:
    """Generating function of triangular patterns by volume:
    prod_{i<j} (q^{nu_i - i} - q^{nu_j - j}) / (q^{-i} - q^{-j})."""
    nu = check_signature(nu)
    q = check_q(q)
    x = [v - i for i, v in enumerate(nu, start=1)]
    num, ea, eb = _q_diff_product(q, ((xi, xj) for i, xi in enumerate(x) for xj in x[i + 1 :]))
    den, da, db = _q_dim_denominator(len(nu), q.numerator, q.denominator)
    return _q_fraction(q, num, den, ea - da, eb - db)


def q_series(counts: dict, q: Rat) -> Rat:
    """sum_e counts[e] q^e for integer exponents and counts. At q = a/b each
    term is an integer over a^-lo b^hi, lo = min(0, min e), hi = max(0, max e),
    so the sum is one integer sum, normalised once as one Fraction."""
    lo, hi = min([0, *counts]), max([0, *counts])
    a, b = q.numerator, q.denominator
    return Fraction(sum(c * a ** (e - lo) * b ** (hi - e) for e, c in counts.items()), a**-lo * b**hi)


def _descend_volumes(lam: Signature, level: int, vol: int, budget: Budget, counts: Counter) -> None:
    if level == 1:
        counts[vol] += 1
        return
    m = level - 1
    budget_consume = budget.consume
    for row in _rows_below(lam):
        budget_consume(m)
        _descend_volumes(row, m, vol + sum(row), budget, counts)


def q_dim_oracle(nu: Sequence[int], q, budget: int | Budget | None = None) -> Rat:
    """Sum of q^volume over all triangular patterns, counted by volume."""
    nu = check_signature(nu)
    q = check_q(q)
    if not nu:
        return Fraction(1)
    b = resolve_budget(budget)
    b.preflight(rel_dim_table_bound(nu, 1))
    counts: Counter = Counter()
    _descend_volumes(nu, len(nu), 0, b, counts)
    return q_series(counts, q)


def q_rel_dim_oracle(kappa: Sequence[int], nu: Sequence[int], q, budget: int | Budget | None = None) -> Rat:
    """q-weighted trapezoid count: q^{|kappa|} * sum over chains of
    q^{|row_{K+1}| + ... + |row_{N-1}|} (top row unweighted), that is
    q^{max(m, 1)|kappa|} times the skew profile at q^{(m-1, ..., 0)}, m = N - K."""
    q = check_q(q)
    profile = skew_profile(kappa, nu, budget)
    m = len(nu) - len(kappa)
    return q ** (max(m, 1) * sum(kappa)) * profile_at_q_powers(profile, range(m - 1, -1, -1), q)


def profile_at_q_powers(profile: Counter, t: Sequence[int], q: Rat) -> Rat:
    """A skew_profile at the points q^t: sum_d count[d] q^<t, d>, counted by
    the total exponent <t, d>."""
    counts: Counter = Counter()
    for diffs, count in profile.items():
        counts[sum(map(operator.mul, t, diffs))] += count
    return q_series(counts, q)


# ---------------------------------------------------------------------------
# sweeps


def _extend_below_last(rows: Iterable[tuple], lo: int) -> Iterator[tuple]:
    """Each row followed by each part from lo up to its last part, lazily."""
    for row in rows:
        for v in range(lo, row[-1] + 1):
            yield row + (v,)


def all_signatures(length: int, lo: int, hi: int) -> Iterator[Signature]:
    """All signatures of the given length with parts in [lo, hi], lexicographic,
    drawn lazily like the walks' rows. The length is checked at the call."""
    if length < 0:
        raise ValueError(f"signature length must be at least 0, got {length}")
    rows = ((v,) for v in range(lo, hi + 1)) if length else iter([()])
    for _ in range(length - 1):
        rows = _extend_below_last(rows, lo)
    return rows


def support_box(nu: Sequence[int], K: int) -> Iterator[Signature]:
    """All kappa of length K with parts between nu_N and nu_1; contains the
    support of every link row with top nu."""
    nu = check_signature(nu)
    if not 0 <= K <= len(nu):
        raise ValueError(f"level must be between 0 and N={len(nu)}, got {K}")
    yield from all_signatures(K, nu[-1], nu[0]) if nu else [()]
