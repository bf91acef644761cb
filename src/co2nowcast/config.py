"""Flat key=value run configuration files."""

from __future__ import annotations

from .errors import ConfigError
from .pipeline import RunConfig

KNOWN_KEYS = (
    "data_dir",
    "estimation_start",
    "eval_start",
    "eval_end",
    "taus",
    "lambda",
    "specs",
    "fit_density",
)


def parse_specs(value: str) -> tuple:
    """Comma-separated model kinds; `RunConfig` checks them."""
    return tuple(s.strip() for s in value.split(",") if s.strip())


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

    def as_int(key):
        try:
            return int(values[key])
        except ValueError:
            raise ConfigError(f"config key {key!r}: expected integer") from None

    # only the keys the file gives: RunConfig holds the defaults
    kwargs = {key: as_int(key) for key in ("estimation_start", "eval_start", "eval_end")
              if key in values}
    if "taus" in values:
        try:
            kwargs["taus"] = tuple(float(t) for t in values["taus"].split(","))
        except ValueError:
            raise ConfigError("config key 'taus': expected comma-separated floats") from None
    if "lambda" in values:
        try:
            kwargs["lam"] = float(values["lambda"])
        except ValueError:
            raise ConfigError("config key 'lambda': expected a float") from None
    if "specs" in values:
        kwargs["specs"] = parse_specs(values["specs"])
    if "fit_density" in values:
        flag = values["fit_density"].lower()
        if flag not in ("true", "false", "1", "0"):
            raise ConfigError("config key 'fit_density': expected true/false")
        kwargs["fit_density"] = flag in ("true", "1")
    return RunConfig(**kwargs), values.get("data_dir")

