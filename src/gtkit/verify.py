"""Verification sweeps pitting each determinantal formula against an
independent oracle, plus the convergence experiment harnesses.

Every suite returns a list of CaseResult records so the command-line driver
and the test suite share one implementation. A "case" is a parameter block
(one (N, K), one (sequence, q), one named identity); `checks` counts the
elementary comparisons inside it, and the first failing comparison is kept
as a printable counterexample.
"""

from __future__ import annotations

import inspect
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .boundary import (
    OmegaPoint,
    a_coeff_quadrature,
    link_infinity,
    phi_coeffs,
    phi_eval,
    phi_signature,
    uat_gap,
)
from .linalg import Rat
from .patterns import (
    BudgetExceededError,
    all_signatures,
    check_signature,
    dim_product,
    format_signature,
    profile_at_q_powers,
    q_dim,
    q_dim_oracle,
    q_rel_dim_oracle,
    rel_dim_table,
    resolve_budget,
    skew_profile,
    support_box,
)
from .qlinks import (
    QDetContext,
    TSpec,
    _schur_weight,
    general_q_projection,
    general_q_ratio,
    q_link_row,
    q_rel_dim_ratio,
    q_to_1_check,
)
from .qtoeplitz import (
    B_entry,
    B_entry_via_qA,
    BoundarySeq,
    _solve_on_basis,
    b_generating_check,
    basis_from_coeffs,
    coeff_extract,
    q_ratio_infinity,
    qA_infinity,
)
from .reldim import A_coeff, DetContext, bo_coefficient, bo_transform, link_row, rel_dim_ratio
from .schur import schur_bialternant

__all__ = [
    "CaseResult",
    "SUITES",
    "run_suite",
    "ignored_bounds",
    "suite_q1_oracle",
    "suite_bo_equivalence",
    "suite_general_t",
    "suite_q_oracle",
    "suite_q_to_1",
    "suite_coherence",
    "suite_qtoeplitz",
    "suite_boundary",
    "uat_family",
    "uat_table",
    "bench_signature",
    "bench_table",
]

DEFAULT_QS = (Fraction(1, 2), Fraction(2, 3))


@dataclass
class CaseResult:
    suite: str
    case: str
    ok: bool
    checks: int
    seconds: float
    counterexample: str | None = None


class _Case:
    """Accumulates comparisons for one parameter block.

    `describe` is called for the text of the first failing comparison only,
    so passing comparisons format nothing."""

    def __init__(self, suite: str, label: str):
        self.suite = suite
        self.label = label
        self.checks = 0
        self.counterexample: str | None = None
        self.start = time.perf_counter()

    def expect(self, got, want, describe: Callable[[], str]) -> bool:
        return self.check(got == want, lambda: f"{describe()}: got {got}, want {want}")

    def check(self, ok: bool, describe: Callable[[], str]) -> bool:
        self.checks += 1
        if not ok and self.counterexample is None:
            self.counterexample = describe()
        return self.counterexample is None

    def result(self) -> CaseResult:
        return CaseResult(
            self.suite,
            self.label,
            self.counterexample is None,
            self.checks,
            time.perf_counter() - self.start,
            self.counterexample,
        )


def _fmt(sig) -> str:
    return format_signature(sig) if len(sig) else "(empty)"


# ---------------------------------------------------------------------------
# counting formulas vs enumeration


def suite_q1_oracle(max_n: int = 5, part_bound: int = 2, budget: int | None = None) -> list[CaseResult]:
    """Trapezoid counts from the K x K determinant against full enumeration,
    exhaustively over top rows with bounded parts."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            case = _Case("q1-oracle", f"N={n} K={k} parts [{-part_bound},{part_bound}]")
            for nu in all_signatures(n, -part_bound, part_bound):
                table = rel_dim_table(nu, k, budget=budget)
                ctx = DetContext(k, nu)
                dim_nu = dim_product(nu)
                seen = set()
                for kappa in support_box(nu, k):
                    seen.add(kappa)
                    formula = dim_nu * rel_dim_ratio(ctx, kappa)
                    case.expect(
                        formula,
                        table.get(kappa, 0),
                        lambda: f"nu={_fmt(nu)} kappa={_fmt(kappa)}",
                    )
                case.check(
                    set(table) <= seen,
                    lambda: f"nu={_fmt(nu)}: oracle support leaks outside the box",
                )
            out.append(case.result())
    return out


def suite_bo_equivalence(max_n: int = 5, part_bound: int = 2) -> list[CaseResult]:
    """Polynomial-division route vs residue-sum route for every coefficient
    the counting sweep can request, plus exact biorthogonality."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            case = _Case("bo-equivalence", f"N={n} K={k} coefficients")
            for nu in all_signatures(n, -part_bound, part_bound):
                ctx = DetContext(k, nu)
                for i in range(1, k + 1):
                    for x in range(nu[-1] - k, nu[0]):
                        case.expect(
                            bo_coefficient(ctx, i, x),
                            A_coeff(ctx, i, x),
                            lambda: f"nu={_fmt(nu)} i={i} x={x}",
                        )
            out.append(case.result())
        case = _Case("bo-equivalence", f"N={n} biorthogonality")
        for k in range(1, n):
            for i in range(1, k + 1):
                for p in range(1, k + 1):
                    case.expect(
                        bo_transform(n, k, i, p),
                        Fraction(1) if i == p else Fraction(0),
                        lambda: f"K={k} i={i} p={p}",
                    )
        out.append(case.result())
    return out


# ---------------------------------------------------------------------------
# q-weighted formulas vs enumeration


def suite_general_t(
    max_n: int = 4,
    part_bound: int = 2,
    qs: Sequence[Rat] = DEFAULT_QS,
    budget: int | None = None,
) -> list[CaseResult]:
    """General point-subset determinant against the combinatorial skew-Schur
    oracle, all subsets T, with the projection mass identity alongside."""
    qs = tuple(Fraction(q) for q in qs)
    out = []
    for n in range(2, max_n + 1):
        case = _Case("general-T", f"N={n} parts [{-part_bound},{part_bound}] q={','.join(map(str, qs))}")
        # one TSpec per (K, T), shared by every top row and q
        tspecs = {k: [TSpec(n, k, t) for t in itertools.combinations(range(n), n - k)] for k in range(1, n)}
        for nu in all_signatures(n, -part_bound, part_bound):
            denoms = [schur_bialternant(nu, [q**e for e in range(n)]) for q in qs]
            for k in range(1, n):
                boxes = [(kappa, skew_profile(kappa, nu, budget)) for kappa in support_box(nu, k)]
                ctxs = [QDetContext(k, nu, q) for q in qs]
                for tspec in tspecs[k]:
                    t_set = tspec.T
                    for q, ctx, denom in zip(qs, ctxs, denoms):
                        mass = Fraction(0)
                        for kappa, profile in boxes:
                            formula = general_q_ratio(ctx, tspec, kappa)
                            oracle = profile_at_q_powers(profile, t_set, q) / denom
                            case.expect(
                                formula,
                                oracle,
                                lambda: f"nu={_fmt(nu)} K={k} T={t_set} q={q} kappa={_fmt(kappa)}",
                            )
                            mass += _schur_weight(kappa, q.numerator, q.denominator, tspec.S) * formula
                        case.expect(
                            mass,
                            Fraction(1),
                            lambda: f"nu={_fmt(nu)} K={k} T={t_set} q={q} projection mass",
                        )
        out.append(case.result())
    return out


def suite_q_oracle(
    max_n: int = 4,
    part_bound: int = 2,
    qs: Sequence[Rat] = DEFAULT_QS,
    budget: int | None = None,
) -> list[CaseResult]:
    """q-weighted determinant (prefactor included) against q-weighted
    enumeration, plus its reduction from the bottom-run point subset."""
    qs = tuple(Fraction(q) for q in qs)
    out = []
    for n in range(2, max_n + 1):
        bottoms = {k: TSpec(n, k, tuple(range(n - k))) for k in range(1, n)}
        for q in qs:
            case = _Case("q-oracle", f"N={n} parts [{-part_bound},{part_bound}] q={q}")
            for nu in all_signatures(n, -part_bound, part_bound):
                qdim_nu = q_dim_oracle(nu, q, budget=budget)
                case.expect(q_dim(nu, q), qdim_nu, lambda: f"nu={_fmt(nu)} triangular q-count")
                for k in range(1, n):
                    ctx = QDetContext(k, nu, q)
                    for kappa in support_box(nu, k):
                        ratio = q_rel_dim_ratio(ctx, kappa)
                        case.expect(
                            ratio * qdim_nu,
                            q_rel_dim_oracle(kappa, nu, q, budget=budget),
                            lambda: f"nu={_fmt(nu)} K={k} q={q} kappa={_fmt(kappa)}",
                        )
                        case.expect(
                            q_dim(kappa, q) * ratio,
                            general_q_projection(ctx, bottoms[k], kappa),
                            lambda: f"nu={_fmt(nu)} K={k} q={q} kappa={_fmt(kappa)} bottom-run reduction",
                        )
            out.append(case.result())
    return out


def suite_q_to_1() -> list[CaseResult]:
    """First-order q -> 1 degeneration: the gap to the plain coefficient
    shrinks by a bounded factor per decade of 1 - q."""
    out = []
    for k, nu in ((1, (2, 1, 0)), (2, (2, 1, 1, 0))):
        case = _Case("q-to-1", f"K={k} nu={_fmt(nu)}")
        for i in range(1, k + 1):
            for x in (-1, 0, 1):
                gaps = []
                for kk in (1, 2, 3):
                    scale = 10**kk
                    q = Fraction(scale - 1, scale)
                    got, want = q_to_1_check(k, nu, i, x, q)
                    gaps.append(abs(float(got - want)))
                if any(g == 0 for g in gaps):
                    case.check(all(g == 0 for g in gaps), lambda: f"i={i} x={x}: gap hit zero at finite q")
                    continue
                for a, b in zip(gaps, gaps[1:]):
                    factor = a / b
                    case.check(
                        5.0 <= factor <= 20.0,
                        lambda: f"i={i} x={x}: shrink factor {factor:.2f} outside [5.0, 20.0] (gaps {gaps})",
                    )
        out.append(case.result())
    return out


# ---------------------------------------------------------------------------
# link coherence


# Top rows swept beside the bounded-part ones, and the largest N of the
# q-link sweep.
_COHERENCE_SAMPLES = ((2, 1, 0, -1, -2), (2, 2, 1, 0, -1))
_Q_COHERENCE_SAMPLES = ((2, 1, 0, -1),)
_Q_COHERENCE_MAX_N = 4


def suite_coherence(
    max_n: int = 5, part_bound: int = 1, qs: Sequence[Rat] = (Fraction(1, 2),)
) -> list[CaseResult]:
    """Composition of link rows through an intermediate level equals the
    direct row, exactly; row normalization and nonnegativity are enforced
    by construction on every row built here. The q-link sweep covers
    N = 3 .. min(max_n, 4)."""
    parts = f"parts [{-part_bound},{part_bound}]"
    # (row builder, q, N, extra top rows, case label, describe suffix), in case order
    sweeps = [
        (lambda sig, k, _q: link_row(sig, k), None, n, _COHERENCE_SAMPLES, f"N={n} {parts}", "")
        for n in range(3, max_n + 1)
    ] + [
        (q_link_row, q, n, _Q_COHERENCE_SAMPLES, f"q-links N={n} {parts} q={q}", f" q={q}")
        for n in range(3, min(max_n, _Q_COHERENCE_MAX_N) + 1)
        for q in qs
    ]
    out = []
    row_cache: dict = {}

    def cached_row(build, sig, k, q):
        key = (sig, k, q)
        if key not in row_cache:
            row_cache[key] = build(sig, k, q)
        return row_cache[key]

    for build, q, n, extra, label, suffix in sweeps:
        case = _Case("coherence", label)
        tops = list(all_signatures(n, -part_bound, part_bound))
        tops += [check_signature(s) for s in extra if len(s) == n]
        for nu in tops:
            for m in range(2, n):
                row_m = cached_row(build, nu, m, q)
                for k in range(1, m):
                    direct = cached_row(build, nu, k, q)
                    composed: dict = {}
                    for mu, w in row_m.items():
                        for kappa, v in cached_row(build, mu, k, q).items():
                            composed[kappa] = composed.get(kappa, Fraction(0)) + w * v
                    composed = {kk: v for kk, v in composed.items() if v != 0}
                    case.expect(
                        composed,
                        dict(direct.items()),
                        lambda: f"nu={_fmt(nu)} M={m} K={k}{suffix}",
                    )
        out.append(case.result())
    return out


# ---------------------------------------------------------------------------
# q-Toeplitz calculus


# n = (0, 0, ...), (1, 1, ...) and (0, 2, 2, ...)
_SEQS = (BoundarySeq((), 0), BoundarySeq((), 1), BoundarySeq((0,), 2))
_MAX_XI = 6  # the (x, i) grid of the solver and recurrence checks is 1.._MAX_XI


def _stabilizing_top(n_seq: BoundarySeq, n: int) -> tuple:
    """Top row of length n whose trailing coordinates match the sequence:
    nu_{n+1-j} = n_j, with the leading entry raised clear of the tail."""
    vals = [n_seq.value(j) for j in range(1, n + 1)]
    vals[-1] = n_seq.tail + 2
    return check_signature(tuple(reversed(vals)))


def suite_qtoeplitz(qs: Sequence[Rat] = DEFAULT_QS, seed: int = 0) -> list[CaseResult]:
    """The q-Toeplitz identities, exactly: extraction roundtrip, generating
    identity, three-term relation, two-term recurrence, level-independence,
    closed-form solver, and the boundary convergence experiment."""
    qs = tuple(Fraction(q) for q in qs)
    out = []
    rng = random.Random(seed)

    for q in qs:
        case = _Case("qtoeplitz", f"extraction calculus q={q}")
        vectors = [
            (Fraction(1),),
            (Fraction(1), Fraction(2)),
            (Fraction(3, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(7)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)),
        ]
        for coeffs in vectors:
            phi = basis_from_coeffs(coeffs, q)
            for l, c in enumerate(coeffs):
                case.expect(coeff_extract(phi, l, q), c, lambda: f"roundtrip c[{l}] of {coeffs}")
            for l in range(len(coeffs), len(coeffs) + 3):
                case.expect(coeff_extract(phi, l, q), Fraction(0), lambda: f"roundtrip tail c[{l}]")
            fill = _recurrence_fill(coeffs, q, _MAX_XI)
            for x in range(1, _MAX_XI + 1):
                for i in range(1, _MAX_XI + 1):
                    case.expect(_solve_on_basis(phi, q, x, i), fill[(x, i)], lambda: f"solver d({x},{i})")
        out.append(case.result())

    for n_seq in _SEQS:
        for q in qs:
            case = _Case("qtoeplitz", f"n={n_seq.format()} q={q}")
            gen = b_generating_check(n_seq, q)
            case.check(
                gen.ok,
                lambda: f"generating identity: first mismatch at degree {gen.first_mismatch}, "
                f"nonzero beyond tail at {gen.nonzero_beyond}",
            )
            for k in range(2, 5):
                for i in range(2, k + 1):
                    for x in range(-2, 5):
                        lhs = qA_infinity(x, k, i - 1, n_seq, q) * q**i
                        rhs = qA_infinity(x - 1, k, i, n_seq, q) * q ** (1 - x) + qA_infinity(
                            x, k, i, n_seq, q
                        ) * (q**i - q**-x)
                        case.expect(lhs, rhs, lambda: f"three-term K={k} i={i} x={x}")
            for x in range(1, _MAX_XI + 1):
                for i in range(1, _MAX_XI):
                    lhs = B_entry(x, i + 1, n_seq, q)
                    rhs = (Fraction(0) if x == 1 else B_entry(x - 1, i, n_seq, q)) + (
                        q ** (1 - i) - q ** (1 - x)
                    ) * B_entry(x, i, n_seq, q)
                    case.expect(lhs, rhs, lambda: f"recurrence x={x} i={i}")
                for i in range(1, 4):
                    base = B_entry(x, i, n_seq, q)
                    for k in range(i, i + 3):
                        case.expect(
                            B_entry_via_qA(x, i, n_seq, q, k),
                            base,
                            lambda: f"level-independence x={x} i={i} K={k}",
                        )
            gaps = []
            kappa = (n_seq.tail + 1, n_seq.value(1))
            target = q_ratio_infinity(kappa, 2, n_seq, q)
            for n in (6, 10, 14):
                nu = _stabilizing_top(n_seq, n)
                finite = q_rel_dim_ratio(QDetContext(2, nu, q), kappa)
                gaps.append(abs(float(finite - target)))
            case.check(
                all(a > b for a, b in zip(gaps, gaps[1:])),
                lambda: f"boundary convergence not monotone: gaps {gaps}",
            )
            out.append(case.result())
    return out


def _recurrence_fill(coeffs: Sequence[Rat], q: Fraction, size: int) -> dict:
    """d(x, i) on the grid 1..size by the two-term recurrence, first column
    taken from coeffs (zero beyond)."""
    d = {}
    for x in range(1, size + 1):
        d[(x, 1)] = Fraction(coeffs[x - 1]) if x - 1 < len(coeffs) else Fraction(0)
    for i in range(1, size):
        for x in range(1, size + 1):
            upper = d[(x - 1, i)] if x > 1 else Fraction(0)
            d[(x, i + 1)] = upper + (q ** (1 - i) - q ** (1 - x)) * d[(x, i)]
    return d


# ---------------------------------------------------------------------------
# boundary of the q = 1 chain


def suite_boundary(part_bound: int = 2, tolerance: float = 1e-10, seed: int = 0) -> list[CaseResult]:
    """Boundary generating functions: exact vs quadrature coefficients,
    normalization, link rows, minor nonnegativity, compatibility with finite
    links, the product expansion, and the unit-circle kernel spot-check."""
    out = []
    rng = random.Random(seed)
    mixed = OmegaPoint(
        alpha_plus=(Fraction(1, 3), Fraction(1, 5)),
        beta_plus=(Fraction(1, 4),),
        alpha_minus=(Fraction(1, 6),),
        beta_minus=(Fraction(1, 3),),
    )

    case = _Case("boundary", "coefficients exact vs quadrature")
    exact = phi_coeffs(mixed, -6, 8, mode="exact")
    numeric = phi_coeffs(mixed, -6, 8, mode="numeric", tolerance=tolerance)
    for n in range(-6, 9):
        case.check(
            abs(float(exact[n]) - numeric[n]) < 100 * tolerance,
            lambda: f"phi_{n}: exact {float(exact[n])}, quadrature {numeric[n]}",
        )
    case.expect(phi_eval(mixed, 1), Fraction(1), lambda: "value at 1")
    out.append(case.result())

    case = _Case("boundary", "normalization and link rows")
    two_beta = OmegaPoint(beta_plus=(Fraction(1, 3), Fraction(1, 5)))
    window = phi_coeffs(two_beta, -1, 3)
    case.expect(sum(window.coeffs.values()), Fraction(1), lambda: "coefficient sum, polynomial case")
    mass = Fraction(0)
    for kappa in all_signatures(2, 0, 2):
        v = link_infinity(two_beta, kappa)
        case.check(v >= 0, lambda: f"negative boundary link at {_fmt(kappa)}")
        mass += v
    case.expect(mass, Fraction(1), lambda: "level-2 link mass, polynomial case")
    geo = OmegaPoint(alpha_plus=(Fraction(1, 3),))
    tail_mass = sum(link_infinity(geo, (k,)) for k in range(0, 25))
    case.check(abs(float(tail_mass) - 1) < 1e-9, lambda: f"level-1 link mass {float(tail_mass)}")
    out.append(case.result())

    case = _Case("boundary", "minor nonnegativity")
    for n in (1, 2, 3):
        for nu in all_signatures(n, -part_bound, part_bound):
            case.check(phi_signature(mixed, nu) >= 0, lambda: f"phi_nu < 0 at nu={_fmt(nu)}")
    out.append(case.result())

    case = _Case("boundary", "compatibility with finite links")
    for k in (1, 2):
        for kappa in all_signatures(k, 0, 2):
            direct = link_infinity(two_beta, kappa)
            through = Fraction(0)
            for nu in all_signatures(3, 0, 2):
                lam = link_infinity(two_beta, nu)
                if lam != 0:
                    through += lam * link_row(nu, k)[kappa]
            case.expect(through, direct, lambda: f"K={k} kappa={_fmt(kappa)}")
    out.append(case.result())

    case = _Case("boundary", "product expansion at sampled points")
    for om, lo, hi, bound in ((two_beta, 0, 2, 2), (geo, 0, 28, 28)):
        u1 = Fraction(rng.randint(1, 4), rng.randint(5, 9))
        u2 = Fraction(rng.randint(1, 4), rng.randint(5, 9))
        if u1 == u2:
            u2 = u2 / 2
        lhs = phi_eval(om, u1) * phi_eval(om, u2)
        rhs = Fraction(0)
        for n1 in range(lo, hi + 1):
            for n2 in range(lo, n1 + 1):
                rhs += phi_signature(om, (n1, n2)) * schur_bialternant((n1, n2), (u1, u2))
        case.check(
            abs(float(lhs - rhs)) < 1e-9,
            lambda: f"residual {float(lhs - rhs)} at u=({u1},{u2})",
        )
    out.append(case.result())

    case = _Case("boundary", "approximation gap decreasing")
    for kappa in ((0,), (1,)):
        gaps = [float(uat_gap((n // 2,) + (0,) * (n - 1), kappa)) for n in (6, 10, 14)]
        case.check(
            all(a > b for a, b in zip(gaps, gaps[1:])),
            lambda: f"kappa={_fmt(kappa)}: gaps {gaps} not decreasing",
        )
    case.expect(uat_gap((0,) * 6, (0,)), Fraction(0), lambda: "zero diagram gap")
    out.append(case.result())

    case = _Case("boundary", "unit-circle kernel quadrature")
    nu12 = (5, 4, 3, 2, 1, 0, 0, 0, 0, 0, -1, -2)
    ctx = DetContext(2, nu12)
    for i, x in ((1, 0), (2, 1)):
        got = a_coeff_quadrature(nu12, 2, i, x, tolerance=tolerance)
        want = float(A_coeff(ctx, i, x))
        case.check(abs(got - want) < 1e-8, lambda: f"(i,x)=({i},{x}): quadrature {got}, exact {want}")
    out.append(case.result())
    return out


SUITES: dict[str, Callable] = {
    "q1-oracle": suite_q1_oracle,
    "q-oracle": suite_q_oracle,
    "general-T": suite_general_t,
    "bo-equivalence": suite_bo_equivalence,
    "q-to-1": suite_q_to_1,
    "coherence": suite_coherence,
    "qtoeplitz": suite_qtoeplitz,
    "boundary": suite_boundary,
}


def ignored_bounds(name: str, **bounds) -> list[str]:
    """The bounds given (not None) that the named suite does not take, in
    the order given; run_suite drops them."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    accepted = inspect.signature(SUITES[name]).parameters
    return [k for k, v in bounds.items() if v is not None and k not in accepted]


def run_suite(name: str, **bounds) -> list[CaseResult]:
    """Run one named suite, passing through only the bounds it understands."""
    dropped = ignored_bounds(name, **bounds)
    return SUITES[name](**{k: v for k, v in bounds.items() if v is not None and k not in dropped})


# ---------------------------------------------------------------------------
# experiment harnesses for the CLI


def uat_family(spec: str) -> Callable[[int], tuple]:
    """Named top-row families: 'zero' and 'linear-row:a' with rational a,
    the latter meaning nu(N) = (floor(aN), 0, ..., 0)."""
    if spec == "zero":
        return lambda n: (0,) * n
    if spec.startswith("linear-row:"):
        a = Fraction(spec.split(":", 1)[1])
        if a < 0:
            raise ValueError("slope must be nonnegative")

        def family(n: int) -> tuple:
            head = int(a * n)
            return (head,) + (0,) * (n - 1)

        return family
    raise ValueError(f"unknown family {spec!r}; use 'zero' or 'linear-row:a'")


def uat_table(
    kappa: Sequence[int],
    family_spec: str,
    ns: Sequence[int],
    mode: str = "exact",
    tolerance: float = 1e-10,
) -> list[dict]:
    """Gap rows for the approximation experiment, one per N."""
    kappa = check_signature(kappa)
    family = uat_family(family_spec)
    rows = []
    for n in ns:
        if n <= len(kappa):
            raise ValueError(f"N={n} must exceed len(kappa)={len(kappa)}")
        nu = check_signature(family(n))
        gap = uat_gap(nu, kappa, mode=mode, tolerance=tolerance)
        rows.append(
            {
                "N": n,
                "nu": format_signature(nu),
                "gap": gap if mode == "exact" else float(gap),
                "mode": mode,
                "tolerance": None if mode == "exact" else tolerance,
            }
        )
    return rows


def bench_signature(n: int) -> tuple:
    """Benchmark top row: a short descending run, padded with zeros, with
    two negative parts; (5,4,3,2,1,0,...,0,-1,-2) once N >= 8."""
    if n < 4:
        raise ValueError("benchmark rows start at N = 4")
    if n >= 8:
        return (5, 4, 3, 2, 1) + (0,) * (n - 7) + (-1, -2)
    return tuple(range(n - 2, 0, -1)) + (-1, -2)


def bench_table(ns: Sequence[int], k: int = 2, budget: int | None = None) -> list[dict]:
    """Determinant route vs enumeration route at growing N: wall times, the
    exact row-sum check, and the budget verdict for enumeration. Each row's
    `enumeration_work` holds the budget, the units the walk consumed and its
    pre-flight bound."""
    rows = []
    for n in ns:
        nu = bench_signature(n)
        t0 = time.perf_counter()
        row = link_row(nu, k)
        det_seconds = time.perf_counter() - t0
        entry = {
            "N": n,
            "nu": format_signature(nu),
            "level": k,
            "det_seconds": round(det_seconds, 4),
            "row_sum_1": row.total == 1,
            "support": len(row),
        }
        t0 = time.perf_counter()
        walk = resolve_budget(budget)
        try:
            table = rel_dim_table(nu, k, budget=walk)
        except BudgetExceededError as err:
            entry["enumeration"] = "budget-exceeded"
            entry["enumeration_error"] = str(err)
        else:
            entry["enumeration"] = "completed"
            entry["enum_seconds"] = round(time.perf_counter() - t0, 4)
            dim_nu = dim_product(nu)
            support = set(table) | set(row.weights)
            entry["enum_matches_det"] = all(
                Fraction(table.get(kappa, 0) * dim_product(kappa), dim_nu) == row[kappa]
                for kappa in support
            )
        entry["enumeration_work"] = {"budget": walk.limit, "consumed": walk.consumed, "bound": walk.bound}
        rows.append(entry)
    return rows
