"""Exception types shared across the package, and the one NaN refusal."""


class ConfigurationError(ValueError):
    """A user-supplied configuration value is structurally invalid.

    The message names the offending key or argument so callers can
    surface it directly (the command line maps this to exit code 2).
    """


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation.

    Examples: a norming sequence that is not strictly increasing, a
    vector whose norm exceeds the truncation level b_n where the
    bounded-weights hypothesis requires otherwise.
    """


def _refuse_nan(nan_total: int, statistics: int, name: str, kind: str) -> None:
    """A NaN statistic is no event, so a count that skips it would be wrong."""
    if nan_total:
        raise DomainError(
            f"{name}: {nan_total} of {statistics} {kind} statistics are NaN, from a NaN input"
            " or a float64 overflow (e.g. inf - inf in a sum); a NaN cannot be counted, so"
            " the inputs are out of range"
        )
