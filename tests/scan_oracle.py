"""The metric-axiom scan as a plain ordered loop over every pair and triple.

This is the reference the package's pruned scan must reproduce exactly:
same violations, same order, same arithmetic.
"""

import math

from kannanlab import FiniteMetricSpace, MetricInvalid, MetricViolation, ViolationKind

KEPT = 100


def full_scan(dist, tol):
    """Every violation of the four metric axioms, in scan order."""
    n = len(dist)
    found = []
    for i in range(n):
        if abs(dist[i][i]) > tol:
            found.append(MetricViolation(ViolationKind.NON_ZERO_DIAGONAL, (i, i), (dist[i][i],)))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(dist[i][j] - dist[j][i]) > tol:
                found.append(
                    MetricViolation(ViolationKind.ASYMMETRY, (i, j), (dist[i][j], dist[j][i]))
                )
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] <= 0.0 or dist[j][i] <= 0.0:
                found.append(
                    MetricViolation(
                        ViolationKind.INDISCERNIBLE_PAIR, (i, j), (dist[i][j], dist[j][i])
                    )
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k] + tol:
                    found.append(
                        MetricViolation(
                            ViolationKind.TRIANGLE_FAILURE,
                            (i, j, k),
                            (dist[i][k], dist[i][j], dist[j][k]),
                        )
                    )
    return found


def exact(violations):
    """Violations in a form that tells 0.0 from -0.0 and compares NaN."""
    return [(v.kind, v.indices, repr(v.values)) for v in violations]


def built(build):
    """The space ``build()`` returns, or its exception as comparable fields."""
    try:
        return build()
    except ValueError as e:
        violations = getattr(e, "violations", None)
        return (
            type(e),
            str(e),
            None if violations is None else exact(violations),
            getattr(e, "total", None),
        )


def expected_space(labels, table, tol):
    """What ``built(lambda: build_finite_space(labels, table, tol))`` must
    give, with :func:`full_scan` as the axiom check."""
    names = tuple(str(label) for label in labels)
    rows = tuple(tuple(float(v) for v in row) for row in table)
    if not all(math.isfinite(v) for row in rows for v in row):
        return ValueError, "distances must be finite", None, None
    found = full_scan(rows, tol)
    if found:
        head = MetricInvalid(found[:KEPT], len(found))
        return MetricInvalid, str(head), exact(found[:KEPT]), len(found)
    return FiniteMetricSpace(names, rows, tol)
