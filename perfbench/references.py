"""Analytic cavity limits of the four catalog maps, written out here so the
oracle does not read `Deformation.cavity_exact` from the code it checks.

Each entry gives the limit of the trace volume and perimeter as the core
radius vanishes. `GATE_TOL` holds the absolute tolerance the acceptance gate
(tests/test_acceptance.py, criteria 1-4) applies to a quantity; quantities
the gate does not check have no pass/fail tolerance and only enter the
accuracy figure (digits of relative error).
"""

import math

B = 0.5  # cavity size parameter of the b-examples
SQRT2 = math.sqrt(2.0)

LIMITS = {
    "radial": {"volume": 2.0 * B * B, "perimeter": 4.0 * SQRT2 * B},
    "change-of-reference": {"volume": math.pi * B * B, "perimeter": 2.0 * math.pi * B},
    "superposition": {"volume": 2.0, "perimeter": 8.0 / SQRT2},
    # the paper's counterexample: the extrapolated perimeter is pi + 1 while
    # the reduced boundary of the limit cavity measures pi
    "spike": {"volume": math.pi / 4.0, "perimeter": math.pi + 1.0},
}
SPIKE_REDUCED_BOUNDARY = math.pi

GATE_TOL = {
    ("radial", "volume"): 1e-4,
    ("radial", "perimeter"): 1e-3,
    ("change-of-reference", "perimeter"): 1e-3,
    ("superposition", "perimeter"): 1e-3,
    ("spike", "perimeter"): 1e-2,
}

# acceptance criterion 9 (recovery table of the radial map)
RECOVERY_FINAL_REL_GAP = 0.02
RECOVERY_TRACE_IDENTITY = 1e-6
RECOVERY_SHADOW_SLACK = 5e-3

# acceptance criterion 10 (vanishing-core gaps do not grow)
GAMMA_GAP_GROWTH = 1.05

DIGITS_CAP = 15.0


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if not math.isfinite(rel_err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0 ** -DIGITS_CAP)))
