"""Flat key=value run configuration files."""

from __future__ import annotations

from .errors import ConfigError
from .pipeline import RunConfig


def parse_specs(value: str) -> tuple:
    """Comma-separated model kinds; `RunConfig` checks them."""
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _flag(value: str) -> bool:
    if value.lower() not in ("true", "false", "1", "0"):
        raise ValueError(value)
    return value.lower() in ("true", "1")


# config key: (RunConfig field, parser, error for a value the parser
# rejects), in parse order: of several bad values, the first is reported
SETTINGS = {
    "estimation_start": ("estimation_start", int, "expected integer"),
    "eval_start": ("eval_start", int, "expected integer"),
    "eval_end": ("eval_end", int, "expected integer"),
    "taus": ("taus", lambda value: tuple(float(t) for t in value.split(",")),
             "expected comma-separated floats"),
    "lambda": ("lam", float, "expected a float"),
    "specs": ("specs", parse_specs, "expected comma-separated model kinds"),
    "fit_density": ("fit_density", _flag, "expected true/false"),
}
KNOWN_KEYS = ("data_dir", *SETTINGS)  # data_dir is a deployment setting


def parse_config_text(text: str):
    """Returns (RunConfig, data_dir). Unknown keys are fatal."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value

    kwargs = {}  # only the keys the file gives: RunConfig holds the defaults
    for key, (name, parse, expected) in SETTINGS.items():
        if key in values:
            try:
                kwargs[name] = parse(values[key])
            except ValueError:
                raise ConfigError(f"config key {key!r}: {expected}") from None
    return RunConfig(**kwargs), values.get("data_dir")
