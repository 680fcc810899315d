"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration input."""


class ConfigSyntaxError(ConfigError):
    """Config file cannot be parsed (unknown key, bad literal)."""


class ConfigValueError(ConfigError):
    """Config parses but violates a value constraint or invariant."""


class PilotOverheadError(ConfigValueError):
    """Pilot sequence would consume the whole coherence block (N_p >= N)."""


class InfeasibleError(ValueError):
    """No design satisfies the fronthaul constraint."""


class SweepPointError(RuntimeError):
    """A sweep grid point failed; carries the grid context in the message."""
