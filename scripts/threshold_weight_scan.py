"""Scan the two parameter structures behind the possibility results.

Part 1: the geometric coefficient bounding how much weight rank
discounting can give a fixed population share of donors. It rises while
the donor count outgrows the discount, peaks, then decays to zero,
which is why ratio aggregation must eventually fail.

Part 2: the per-population feasibility interval for the shortfall
weight of the sufficientarian-average rule, with its midpoint schedule.

Usage: python scripts/threshold_weight_scan.py
"""

from fractions import Fraction

from welfareax import lambda_feasible_interval
from welfareax.orderings import lambda_midpoint
from welfareax.propositions import prop5_ratio_failure, scan_ratio_coefficients
from welfareax.gfunctions import Identity


def main() -> None:
    rho, lam = Fraction(101, 100), Fraction(1, 2)
    print(f"== donor-share coefficient, rho={rho}, share={lam} ==")
    values = dict(scan_ratio_coefficients(rho, lam, 2, 2000, step=2))
    peak = max(values, key=values.get)
    print(f"  peak at n={peak}: {float(values[peak]):.4f}")
    for n in (2, 50, peak, 500, 1000, 2000):
        print(f"  n={n:5d}  coefficient={float(values[n]):.6e}")

    report = prop5_ratio_failure(Identity(), rho, lam, 2, 1, 10)
    print(
        f"  first failing population n*={report.n_star}; "
        f"violated instance at n={report.witness_n}"
    )

    print("== shortfall-weight feasibility, alpha=gamma=10, beta=delta=1 ==")
    print("  n  lower  upper  midpoint")
    for n in (2, 3, 5, 10, 20, 50, 100):
        lower, upper, feasible = lambda_feasible_interval(n, 10, 1, 10, 1, lam)
        mid = lambda_midpoint(lower, upper)
        print(f"  {n:3d}  {float(lower):+.4f}  {float(upper):.4f}  "
              f"{float(mid):.4f}  feasible={feasible}")

    print("== matched magnitudes are not always enough ==")
    lower, upper, feasible = lambda_feasible_interval(20, 5, 4, 5, 4, lam)
    print(
        f"  alpha=gamma=5, beta=delta=4, n=20: interval "
        f"({float(lower):.4f}, {float(upper):.4f}) feasible={feasible}"
    )


if __name__ == "__main__":
    main()
