"""Link-performance toolkit for satellite passes with strongly
time-varying range: shadowed-Rician fading statistics, a finite-state gain
partition, closed-form throughput / energy-efficiency / delay-outage
metrics for rate- and power-adaptive transmission, and a Monte-Carlo
oracle that cross-validates every closed form.
"""

import logging

from .channel import (
    DopplerSpec,
    GainPartition,
    SrFading,
    StateProbMatrix,
    afd,
    lcr,
    sr_cdf,
    sr_pdf,
    state_prob_matrix,
    state_probs,
    tail_mass,
)
from .geometry import (
    PassGeometry,
    PassTimeline,
    build_timeline,
    distance_at,
    distance_range,
    service_duration,
    sub_point_speed,
)
from .montecarlo import SimConfig, SimResult, sample_sr_gain, simulate
from .pipeline import prepare, run_analyze, run_simulate, run_sweep, run_validate
from .scenario import Scenario, SweepSpec, parse_scenario, render_scenario
from .schemes import (
    LinkBudget,
    PatConfig,
    RatConfig,
    SchemeReport,
    TrafficSpec,
    pat_first_threshold,
    pat_report,
    rat_first_threshold,
    rat_report,
)

__version__ = "0.1.0"

# A library leaves the handling of its log records to the application.
logging.getLogger(__name__).addHandler(logging.NullHandler())
