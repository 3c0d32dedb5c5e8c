"""The model's domain and the compute budget, checked before any work and without NumPy."""

from __future__ import annotations

from .constants import INT64_MAX
from .errors import BudgetExceededError

# what one call may use, charged through charge() before any work: state-steps
# (one count distribution or one run moved on by one user; 10**8 of them is
# seconds of work) and bytes of what the call holds at its peak
STEP_BUDGET = 10**8
BYTES_BUDGET = 2**30


def charge(what: str, steps: int, nbytes: int) -> None:
    """Refuse a call, before any work, that needs more than the step or byte budget.

    The one budget check: each call charges what it will use itself.
    """
    for used, unit, cap in ((steps, "state-steps", STEP_BUDGET), (nbytes, "bytes", BYTES_BUDGET)):
        if used > cap:
            raise BudgetExceededError(f"{what} needs {used} {unit}, over its budget of {cap}")


def check_ranges(n_parts: int, n_users: int, alpha: float, beta) -> None:
    """Raise ValueError unless (N, E, alpha, beta) lies in the model's domain.

    ``beta`` is a float or a NumPy array of betas, each in [0, 1] (NaN is not): a
    plain function, not a ``ModelParams``, so batched calls check every beta.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > INT64_MAX:  # counts are int64 arrays
        raise ValueError(f"n_parts must be <= {INT64_MAX}, got {n_parts}")
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    if n_users > INT64_MAX:  # every closed-form path takes E as a float
        raise ValueError(f"n_users must be <= {INT64_MAX}, got {n_users}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    # an array is checked in one comparison, found by duck typing so NumPy is not imported
    in_range = ((beta >= 0.0) & (beta <= 1.0)).all() if hasattr(beta, "all") else 0.0 <= beta <= 1.0
    if not in_range:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
