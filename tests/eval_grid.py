"""The profiled gallery members' parametrisations and a fixed (t, s) grid on
which their evals are compared bit for bit: by the tier-1 tests against the
hand-written evals those members once had, and by ``tools/output_digests.py``
across commits.  Only public names of the package are used."""

import itertools

#: Every profiled member, chi and theta-pi at two alphas, linear at four slopes.
PARAMETRISATIONS = (
    ("gamma", {}),
    ("beta", {}),
    ("step-g", {}),
    ("step-omega", {}),
    ("chi", {"alpha": 0.1}),
    ("chi", {"alpha": 0.4}),
    ("theta-pi", {"alpha": 0.3}),
    ("theta-pi", {"alpha": 0.4}),
    ("theta-l", {"alpha": 0.4}),
    ("tau", {}),
    ("psi-phi", {}),
    ("linear", {"slope": 0.3}),
    ("linear", {"slope": 0.7}),
    ("linear", {"slope": 0.8}),
    ("linear", {"slope": 1.5}),
)

#: Both signed zeros, two subnormals, the least normal double, values whose
#: ratios include 1/3 (gamma's sign change) and 1, and magnitudes up to 1e300.
VALUES = (
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1.0 / 3.0, 0.3,
    0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 1e10, 1e300,
)
#: Every (t, s) pair of values, so t == s on the diagonal.
GRID = tuple(itertools.product(VALUES, VALUES))
