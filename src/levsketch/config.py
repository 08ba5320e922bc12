"""Process-wide knobs: memory cap resolution and capacity checks."""

import os

from .errors import CapacityError, ConfigurationError

DEFAULT_MEM_CAP_BYTES = 4 * 2**30
MEM_CAP_ENV = "LVSK_MEM_CAP"

# The running CLI command's --mem-cap; cli.main sets it for one call and then
# restores it. A module value, not a contextvar, so that worker threads see it.
_command_cap: int | None = None


def mem_cap() -> int:
    """Resolve the memory cap in bytes: the running CLI command's --mem-cap,
    then the LVSK_MEM_CAP environment variable, then the 4 GiB default."""
    cap = _command_cap
    if cap is None:
        env = os.environ.get(MEM_CAP_ENV)
        if env is None:
            return DEFAULT_MEM_CAP_BYTES
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigurationError(f"{MEM_CAP_ENV} must be an integer byte count, got {env!r}") from exc
    if cap <= 0:
        raise ConfigurationError(f"memory cap must be positive, got {cap}")
    return cap


def ensure_capacity(nbytes: int, what: str) -> None:
    """Raise CapacityError if an allocation of ``nbytes`` would exceed the cap."""
    limit = mem_cap()
    if nbytes > limit:
        raise CapacityError(f"{what} needs {nbytes} bytes, exceeding the memory cap of {limit} bytes")
