"""Constants the command line needs before any command runs.

This module imports no NumPy: ``crowdcoord.cli`` reads it while it builds its
parser and writes manifests, and only the commands that compute with NumPy
load it.
"""

from datetime import MAXYEAR, MINYEAR

# the largest count an int64 array holds, np.iinfo(np.int64).max
INT64_MAX = 2**63 - 1

# Recorded in run manifests so outputs are attributable to a generator.
RNG_DESCRIPTION = (
    "numpy default_rng (PCG64); monte_carlo draws one (runs, 5) uniform block "
    "per user step, run i consuming row i, and every beta of a pass shares those "
    "draws (common random numbers): optimize seeds one pass over its beta grid, "
    "heatmap one pass per N column, so results are reproducible and "
    "independent of evaluation order"
)

# the channels of a collaboration log, and the ones that carry coordination
CHANNELS = ("work", "discussion", "comment")
COORDINATION_CHANNELS = ("discussion", "comment")

# the objectives the beta* search maximizes
OBJECTIVES = ("closed_form", "exact_dp", "monte_carlo")

# featured years whose own start and the next year's start are representable
FEATURED_YEARS = range(MINYEAR, MAXYEAR)

# the planted structures synth generates, and its default project count
STRUCTURES = ("none", "crowded", "cohort")
SYNTH_PROJECTS = 50
