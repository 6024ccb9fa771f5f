"""Parameter sets the workloads draw from.

These are the benchmark's own copies of the acceptance-criteria and
chain parameter sets of the test suite, so the benchmark never imports
from ``tests/``. Values are exact rationals.
"""

from fractions import Fraction as F

# Acceptance 4: the shortfall-average rule with matched-magnitude midpoint
# weights and the six suites it passes.
PROP6_THRESHOLD = 10
PROP6_MIDPOINT = (F(10), F(1), F(10), F(1), F(1, 2))  # alpha, beta, gamma, delta, ratio
PROP6_SUITES = (
    ("anonymity", {}),
    ("strong_pareto", {}),
    ("pigou_dalton", {}),
    ("ratio_aggregation", dict(lam=F(1, 2), gamma=10, delta=1)),
    ("minimal_non_aggregation", dict(theta_p=10, theta_r=12, alpha=10, beta=1)),
    ("stronger_non_aggregation", dict(theta_p=10, alpha=10, beta=1)),
)

# Acceptance 8: the four leximin suites.
LEXIMIN_SUITES = (
    ("anonymity", {}),
    ("strong_pareto", {}),
    ("replication_invariance", {}),
    ("strong_non_aggregation", dict(alpha=2, beta=1)),
)

# Acceptance 5: (rho, alpha, beta) with theta_p = 10 and theta_r = theta_p + beta + 1.
CRITERION5_THETA_P = F(10)
_BETAS = (F(1, 2), F(1), F(2), F(3), F(7, 2))
HOLDING_RHOS = (F(3, 2), F(2), F(3), F(4), F(5))
FAILING_RHOS = (F(11, 10), F(6, 5), F(5, 4), F(4, 3), F(3, 2))


def criterion5_holding():
    """25 tuples with alpha = rho*beta/(rho-1): minimal non-aggregation holds."""
    return [(rho, rho * beta / (rho - 1), beta) for rho in HOLDING_RHOS for beta in _BETAS]


def criterion5_failing():
    """75 tuples strictly below beta/(rho-1): a violation is reachable."""
    out = []
    for rho in FAILING_RHOS:
        tight = F(1) / (rho - 1)
        for beta in _BETAS:
            for f in (F(1, 4), F(3, 8), F(1, 2)):
                out.append((rho, beta * (1 + (tight - 1) * f), beta))
    return out


def mna_params(alpha, beta):
    theta_p = CRITERION5_THETA_P
    return dict(theta_p=theta_p, theta_r=theta_p + beta + 1, alpha=alpha, beta=beta)


# Acceptance 6: the ratio-aggregation failure scan and its known answer.
RATIO_FAILURE_ARGS = (F(101, 100), F(1, 2), 2, 1, 10)  # rho, lam, gamma, delta, base level
RATIO_FAILURE_N_STAR = 1062

# Acceptance 7: chain parameter sets (three per construction).
PROP1_SETS = (
    dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, m=3),
    dict(theta_p=5, theta_r=9, alpha=3, beta=2, gamma=5, delta=2, m=4),
    dict(theta_p=100, theta_r=200, alpha=F(7, 2), beta=F(1, 2), gamma=3, delta=F(1, 3), m=5),
)
PROP2_SETS = (
    dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, lam=F(1, 2), n=4),
    dict(theta_p=5, theta_r=12, alpha=3, beta=2, gamma=4, delta=F(3, 2), lam=F(1, 3), n=5),
    dict(theta_p=8, theta_r=30, alpha=1, beta=F(3, 4), gamma=2, delta=F(1, 2), lam=F(2, 3), n=7),
)
PROP3_SETS = (
    dict(theta_p=10, theta_r=20, alpha=3, beta=1, gamma=3, delta=2, lam=F(1, 10), h=2, n=41),
    dict(theta_p=6, theta_r=15, alpha=2, beta=1, gamma=3, delta=1, lam=F(1, 5), h=3, n=20),
    dict(theta_p=9, theta_r=18, alpha=5, beta=2, gamma=4, delta=3, lam=F(1, 4), h=2, n=10),
)
# The three orderings acceptance 7 locates denied steps with.
LOCATE_MIDPOINT = (F(2), F(1), F(2), F(1), F(1, 2))

# Large-population parameters.
RHOS = (F(101, 100), F(3, 2), F(1), F(99, 100), F(1, 2))
