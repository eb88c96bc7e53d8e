"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion k runs its group of the invariant suite (relosplit.selftest) with
default_rng(k); the group fixes every sample count, range and tolerance,
nothing is calibrated at runtime. Run with
`pytest tests/test_acceptance.py -v -s` to see every line.
"""

import numpy as np
import pytest

from relosplit import selftest

CRITERIA = [
    (1, "resolvent scaling identity, 200 samples per catalog kind at 1e-10",
     selftest.resolvent_identities),
    (2, "DR relocator axioms on the 1-D instance (grid map exact to 1e-12, "
        "Lipschitz within max{1, d/g} + 1e-10)", selftest.relocator_axioms),
    (3, "relocated DR reaches |x-2|<=1e-6 and |z-1|<=1e-6 within 500 iterations",
     selftest.convergence),
    (4, "constant-stepsize runs equal the classical DR and MT iterates to 1e-12 "
        "over 100 iterations", selftest.equivalences),
    (5, "efficient runners match the naive relocated iteration per-iterate to 1e-12",
     selftest.equivalences),
    (6, "graph algebra identities (L=ZZ^T, M=CC^T, R skew, Z^T 1=0, degree "
        "identities) to 1e-12", selftest.graph_algebra),
    (7, "graph relocator: system residual <= 1e-10 on 100 random x per graph; "
        "fixed-point transport residual <= 1e-8", selftest.graph_relocator),
    (8, "empirical Lipschitz ratios (1000 pairs) never exceed the derived bounds "
        "(graph N=3 bound ~ 6.526)", selftest.lipschitz_bounds),
    (9, "ring-graph change of variables: half-scaled graph step equals the MT "
        "step and sweeps coincide, to 1e-10", selftest.equivalences),
    (10, "variable-stepsize MT on the N=4, d=8 consensus problem: consensus "
         "residual <= 1e-8 and solution residual <= 1e-6 within 5000 iterations",
     selftest.convergence),
    (11, "schedule validation: counterexample rejected, exact sums for "
         "constant/geometric, increment cross-inequality on accepted prefixes",
     selftest.schedules),
]


def report(number, description, failures):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:>2}: {description}")
    assert ok, f"criterion {number}: {description}: " + "; ".join(failures[:5])


@pytest.mark.parametrize("number, description, group", CRITERIA,
                         ids=[f"criterion_{number}" for number, _, _ in CRITERIA])
def test_criterion(number, description, group):
    report(number, description, group(np.random.default_rng(number)).failures)


def test_criterion_12_negative_controls():
    result = selftest.run_selftest(seed=0)
    failures = [f"group {g.name} failed: {'; '.join(g.failures[:3])}"
                for g in result.groups if not g.passed]
    report(12, "selftest detects the shifted relocator and the sign-flipped "
               "relocation vector (negative controls)", failures)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
