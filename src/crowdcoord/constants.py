"""Constants the command line needs before any command runs, and the UTC calendar.

This module imports nothing, since ``crowdcoord.cli`` reads it in every command
while it builds its parser and writes manifests.
"""

# the years datetime represents, datetime.MINYEAR..datetime.MAXYEAR
MINYEAR, MAXYEAR = 1, 9999

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


def utc_timestamp(year: int, month: int, day: int) -> int:
    """Seconds from 1970-01-01 to 00:00 UTC on a date of the proleptic Gregorian
    calendar, ``datetime(year, month, day, tzinfo=timezone.utc).timestamp()`` as an int.

    Hinnant's days_from_civil: a year counted from March puts each leap day at its end,
    and the calendar repeats every 400 years (146,097 days); 719,468 days run from
    0000-03-01 to 1970-01-01.
    """
    year -= month <= 2
    era, year_of_era = divmod(year, 400)
    day_of_year = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return (era * 146_097 + day_of_era - 719_468) * 86_400
