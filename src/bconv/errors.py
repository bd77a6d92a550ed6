"""Shared error and warning types, the default budget, and the one rule for
where warnings point."""

import sys
import warnings

_DEFAULT_BUDGET = 1 << 24  # rows, atoms or evaluations a call builds unless given a budget


class BudgetExceededError(RuntimeError):
    """An operation refused to run because it would exceed its declared budget.

    Raised instead of silently truncating: enumeration sizes, quadrature cell
    counts and search table sizes are all checked up front.
    """


class UncertifiedError(ArithmeticError):
    """No root enclosure certified the requested quantity.

    Raised by the Mahler measure and the disk root count when every
    enclosure they may compute is too wide to decide the answer.
    """


class BoundaryHazardWarning(UserWarning):
    """Atoms sat within 2^-45 of a cell boundary during key computation.

    The affected coordinates were shifted by +2^-44 (in key units) before
    flooring, so ties resolve deterministically upward.
    """


def _warn_at_caller(message: str, category: type[Warning] = UserWarning) -> None:
    """Warn at the first frame outside bconv, so the warning names the
    caller's line however deep the public entry point that led here."""
    package = __name__.partition(".")[0]
    level, frame = 1, sys._getframe()
    while frame.f_back is not None:
        if frame.f_globals.get("__name__", "").partition(".")[0] != package:
            break
        level, frame = level + 1, frame.f_back
    warnings.warn(message, category, stacklevel=level)
