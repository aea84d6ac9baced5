"""Error taxonomy shared across the package.

Each class maps to one CLI exit code, so library callers and the command line
agree on what went wrong.  `figure` writes the numbers of their messages.
"""
from __future__ import annotations


class ZClosureError(Exception):
    """Base class; carries a short machine-readable kind."""

    kind = "error"
    exit_code = 1


class DimensionError(ZClosureError):
    kind = "dimension"
    exit_code = 2


class SchemaError(ZClosureError):
    kind = "schema"
    exit_code = 2


class PreconditionError(ZClosureError):
    kind = "precondition"
    exit_code = 2


class InfeasibleError(ZClosureError):
    """A configured resource cap would be exceeded.  The message says which
    cap and what to change (usually eta_override or a budget)."""

    kind = "infeasible"
    exit_code = 3


class OracleDisagreementError(ZClosureError):
    """An eta-overridden pipeline produced a space that differs from the
    stabilized brute-force oracle; the result is withheld."""

    kind = "oracle-disagreement"
    exit_code = 4


class InternalInvariantError(ZClosureError):
    """A theorem-backed invariant failed at runtime.  Always a bug."""

    kind = "internal-invariant"
    exit_code = 5


def figure(n: int, about: bool = False) -> str:
    """n in decimal (after "~" if `about`), or ~2^k where Python converts no
    integer that long to a string (`sys.get_int_max_str_digits`), so writing
    a message never fails."""
    try:
        return ("~" if about else "") + str(n)
    except ValueError:
        return f"~2^{n.bit_length() - 1}"
