"""Shadowed-Rician parameter sets (m, b0, omega) shared by the tests."""

# Abdi et al. 2003 light, average and heavy shadowing.
ABDI_SETS = {
    "light": (19.4, 0.158, 1.29),
    "average": (10.1, 0.126, 0.835),
    "heavy": (0.739, 0.063, 8.97e-4),
}
# Line-of-sight-dominated sets, mixture ratio r = 0.9997 and 0.9999: summed
# over the mixture index, these series need about 40 / (1 - r) terms.
LOS_SETS = {
    "los-m1.5": (1.5, 1e-4, 1.0),
    "los-m0.5": (0.5, 1e-3, 10.0),
}
