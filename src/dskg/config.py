"""Flat key=value configuration with environment and flag overrides.

Option values resolve in increasing precedence: built-in defaults, then a
key=value config file, then ``DSKG_``-prefixed environment variables, then
command-line flags. Values from all three are parsed one way, by ``coerce``
and the option's type. Every command writes the fully resolved configuration
it ran with next to its outputs.
"""

from __future__ import annotations

import os

from .data import atomic_write

ENV_PREFIX = "DSKG_"


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and ``#`` comments are ignored.
    A key given twice is a ValueError naming both lines."""
    options: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = (part.strip() for part in stripped.partition("="))
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            first_line[key] = lineno
            options[key] = value
    return options


def env_overrides(keys, environ=None) -> dict[str, str]:
    """Pick up DSKG_<KEY> environment variables for the given option keys."""
    environ = os.environ if environ is None else environ
    out = {}
    for key in keys:
        value = environ.get(ENV_PREFIX + key.upper())
        if value is not None:
            out[key] = value
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def coerce(value, target_type, key: str):
    """Convert a string value of option ``key`` to its declared type.

    Booleans accept 1/0, true/false, yes/no and on/off. A value that does not
    parse is a ValueError naming the option, the value and the type.
    """
    if not isinstance(value, str) or target_type is str:
        return value
    try:
        if target_type is bool:
            return _BOOLEANS[value.strip().lower()]
        return target_type(value)
    except (KeyError, ValueError):
        raise ValueError(f"{key}: cannot parse {value!r} as {target_type.__name__}") from None


def resolve_options(
    defaults: dict,
    types: dict,
    config_file: str | None = None,
    environ=None,
    flags: dict | None = None,
) -> dict:
    """Merge defaults < config file < environment < flags, parsing every given value."""
    file_options = parse_config_file(config_file) if config_file else {}
    unknown = set(file_options) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flag_options = {key: value for key, value in (flags or {}).items() if value is not None}
    merged = dict(defaults)
    for source in (file_options, env_overrides(defaults.keys(), environ), flag_options):
        for key, value in source.items():
            merged[key] = coerce(value, types[key], key)
    return merged


def write_resolved(options: dict, path):
    with atomic_write(path) as buf:
        for key in sorted(options):
            buf.write(f"{key}={options[key]}\n".encode())
