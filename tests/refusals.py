"""The one table of command-line refusals, checked by test_refusal and
test_readme_lists_every_refusal in tests/test_cli.py. A row is (argv split
at spaces, scenario edit, exit status, the one stderr line). `--scenario
NAME` of a file under scenarios/ runs on a copy of it in a fresh directory,
with each old text of the edit replaced by its new text, or, where the edit
is bytes, with those bytes in place of the whole file; "{tmp}" in argv and
in the line stands for that directory.
"""

RAT, PAT = "reference_rat.scn", "reference_pat.scn"

# pinned upper thresholds in order but below the first threshold (refused
# by the solve), or out of order (refused by the parser)
BELOW_FIRST = {"n_states = 8": "n_states = 4\nupper_thresholds = 0.3, 0.9"}
OUT_OF_ORDER = {"n_states = 8": "n_states = 4\nupper_thresholds = 0.9, 0.5"}
BELOW_FIRST_LINE = ("E_VALIDATION ValueError: upper_thresholds must rise strictly above the "
                    "first threshold 0.3543928915419708, got [0.3, 0.9]")
OUT_OF_ORDER_LINE = ("E_VALIDATION ValidationError: partition.upper_thresholds (line 24): "
                     "upper_thresholds must be strictly increasing, got (0.9, 0.5)")
# at 1e-9 W the first threshold's series window would hold 3.8e11 terms
WINDOW_TOO_WIDE = ("E_NUMERIC ArithmeticError: series window too wide: 3.764e+11 terms at "
                   "beta*x = 4.9839e+11, more than 16777216")
SLOT_TOO_LONG = ("E_VALIDATION SlotTooLong: slot_len_s=200.0 exceeds service duration "
                 "141.90534411684524")
# 2^53 + 1 has no float of its own, so a sweep refuses it as typed
SEED_2_53 = ("E_VALIDATION ValidationError: sweep sim.seed: '9007199254740993' reaches 2^53, "
             "where a float no longer holds every integer")
NEG_SEED = "E_VALIDATION ValueError: seed must be >= 0, got "
UNKNOWN_PATH = "E_UNKNOWN_KEY UnknownKey: sweep path '{}' does not name a scenario parameter"
NO_FILE = "E_IO FileNotFoundError: cannot {} [Errno 2] No such file or directory: '{{tmp}}/{}'"

REFUSALS = {
    # misuse: argparse's own errors, as one line; analyze runs no
    # simulation, nor does a sweep without --with-sim, so a seed is refused
    "no-command": ("", None, 2,
                   "E_VALIDATION ArgumentError: the following arguments are required: command"),
    "analyze-seed": (f"analyze --scenario {RAT} --seed 7", None, 2,
                     "E_VALIDATION ArgumentError: unrecognized arguments: --seed 7"),
    "sweep-seed-without-sim": (
        f"sweep --scenario {RAT} --sweep geometry.orbit_height=5e5,6e5 --seed -3", None, 2,
        "E_VALIDATION ValueError: seed given without with_sim: the sweep runs no simulation"),
    # a failed write is an input error, not a failed validate row (exit 1)
    "missing-scenario": ("analyze --scenario {tmp}/x.scn", None, 2,
                         NO_FILE.format("read scenario:", "x.scn")),
    # a scenario saved as UTF-16, led by its byte-order mark ff fe
    "scenario-not-utf-8": (f"analyze --scenario {RAT}",
                           b"\xff\xfe" + "[geometry]\n".encode("utf-16-le"), 2,
                           f"E_PARSE ParseError: cannot read scenario as UTF-8: '{{tmp}}/{RAT}': "
                           "'utf-8' codec can't decode byte 0xff in position 0: invalid start "
                           "byte"),
    "scenario-is-a-directory": ("analyze --scenario {tmp}", None, 2,
                                "E_IO IsADirectoryError: cannot read scenario: [Errno 21] Is a "
                                "directory: '{tmp}'"),
    **{f"{command}-unwritable-out": (
        f"{command} --scenario {RAT} --out {{tmp}}/no/x.txt", None, 2,
        NO_FILE.format("write output:", "no/x.txt")) for command in ("analyze", "validate")},
    # scenario files that the parser refuses, naming the key and its line
    "parse-error": (f"analyze --scenario {RAT}", {"[geometry]": "[geometry"}, 2,
                    "E_PARSE ParseError: line 4: expected 'key = value', got '[geometry'"),
    "fading-m-below-half": (f"analyze --scenario {RAT}", {"m = 10.1": "m = 0.2"}, 2,
                            "E_VALIDATION ValidationError: fading.m (line 15): m must be >= 0.5, "
                            "got 0.2"),
    # the default speed of a circular orbit below the earth's surface
    "height-below-ground": (
        f"analyze --scenario {RAT}",
        {"sat_speed = 7600": "# sat_speed", "orbit_height = 500 km": "orbit_height = -7000 km"},
        2, "E_VALIDATION ValidationError: geometry.orbit_height (line 6): orbit_height_m must "
           "be > 0, got -7000000.0"),
    "zero-packet-bits": (f"analyze --scenario {PAT}",
                         {"packet_bits = 500 Kbits": "packet_bits = 0 bits"}, 2,
                         "E_VALIDATION ValidationError: traffic.packet_bits (line 36): "
                         "packet_bits must be > 0, got 0.0"),
    "zero-max-power": (f"analyze --scenario {PAT}", {"max_power = 30 dBW": "max_power = 0 W"},
                       2, "E_VALIDATION ValidationError: pat.max_power (line 32): max_power_w "
                          "must be > 0, got 0.0"),
    "thresholds-out-of-order": (f"analyze --scenario {RAT}", OUT_OF_ORDER, 2, OUT_OF_ORDER_LINE),
    "sweep-thresholds-out-of-order": (f"sweep --scenario {RAT} --sweep rat.tx_power=2000,1000",
                                      OUT_OF_ORDER, 2, OUT_OF_ORDER_LINE),
    "thresholds-below-first": (f"analyze --scenario {RAT}", BELOW_FIRST, 2, BELOW_FIRST_LINE),
    "sweep-thresholds-below-first": (f"sweep --scenario {RAT} --sweep rat.tx_power=2000,1000",
                                     BELOW_FIRST, 2, BELOW_FIRST_LINE),
    # sweeps refused before any point runs; only the parser reads sats_per_plane
    "sweep-unknown-key": (f"sweep --scenario {RAT} --sweep nope.key=1:2:2", None, 2,
                          UNKNOWN_PATH.format("nope.key")),
    "sweep-sats-per-plane": (f"sweep --scenario {RAT} --sweep geometry.sats_per_plane=40", None,
                             2, UNKNOWN_PATH.format("geometry.sats_per_plane")),
    "sweep-fractional-integer": (f"sweep --scenario {RAT} --sweep partition.n_states=2,2.9,3",
                                 None, 2, "E_VALIDATION ValidationError: sweep "
                                          "partition.n_states: expected an integer, got '2.9'"),
    "sweep-seed-beyond-2-53": (f"sweep --scenario {RAT} --sweep sim.seed=9007199254740993",
                               None, 2, SEED_2_53),
    "sweep-seed-beyond-2-53-with-sim": (f"sweep --scenario {RAT} --with-sim --sweep "
                                        "sim.seed=9007199254740993", None, 2, SEED_2_53),
    # a later point fails in the timeline, the partition or the crossing
    # rate: the sweep stops there with that point's own error, as when the
    # points run one at a time, with or without simulation columns
    "sweep-slot-too-long": (f"sweep --scenario {RAT} --sweep geometry.slot_len=0.5,1,200", None,
                            2, SLOT_TOO_LONG),
    **{f"sweep-slot-too-long-with-sim-{scheme}": (
        f"sweep --scenario {scn} --sweep geometry.slot_len=0.5,1,200 --with-sim", None, 2,
        SLOT_TOO_LONG) for scheme, scn in (("rat", RAT), ("pat", PAT))},
    "sweep-tail-mass-0": (f"sweep --scenario {RAT} --sweep rat.tx_power=1000,0.3", None, 3,
                          "E_NUMERIC ArithmeticError: no resolvable probability mass above "
                          "threshold 20.46088313306467 (tail mass 0)"),
    "sweep-isotropic": (f"sweep --scenario {RAT} --sweep fading.aoa_width=24.2,0", None, 3,
                        "E_NUMERIC NonConvergent: crossing-rate series at "
                        "r_th=0.3543928915419708 did not reach rel_tol=1e-12 within 10000 terms"),
    "sweep-window-too-wide": (f"sweep --scenario {RAT} --sweep rat.tx_power=1000,1e-9", None, 3,
                              WINDOW_TOO_WIDE),
    "analyze-window-too-wide": (f"analyze --scenario {RAT}",
                                {"tx_power = 30 dBW": "tx_power = 1e-9 W"}, 3, WINDOW_TOO_WIDE),
    # a negative seed, refused before any solve; validate's pass draws from
    # seed + 1, so -1 must be refused before it
    "simulate-negative-seed": (f"simulate --scenario {RAT} --seed -5", None, 2, NEG_SEED + "-5"),
    "validate-negative-seed": (f"validate --scenario {RAT} --seed -1", None, 2, NEG_SEED + "-1"),
    "sweep-negative-seed": (
        f"sweep --scenario {RAT} --with-sim --seed -3 --sweep geometry.orbit_height=5e5,6e5",
        None, 2, NEG_SEED + "-3"),
    "sweep-negative-swept-seed": (f"sweep --scenario {RAT} --with-sim --sweep sim.seed=-3,4",
                                  None, 2, "E_VALIDATION ValidationError: sim.seed: seed must be "
                                           ">= 0, got -3"),
    # at 600 Mbit/s under a 30 dBW cap the crossing rate at the first
    # threshold underflows: simulate and validate refuse the infinite wait
    # that analyze takes, with the one error line and no fallback warning
    **{f"{command}-unbounded-wait": (
        f"{command} --scenario {PAT}", {"fixed_rate = 60 Mbit/s": "fixed_rate = 600 Mbit/s"}, 3,
        "E_NUMERIC ZeroCrossingRate: waiting-time mean overflowed double precision; simulation "
        "is unavailable for this configuration") for command in ("simulate", "validate")},
}
