"""CSV ingestion, transforms, and the normalized on-disk store.

Input schema (one file per variable): header `entity,year,sub,value`; the
`sub` column may be omitted for annual data. Parsing is strict: duplicate
(entity, year, sub) keys, interior gaps, and malformed fields are rejected
with file/line diagnostics.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os

from .errors import ConfigError, IngestError
from .panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
    from_ordinal,
    ordinal,
    per_capita,
    validate_period,
    yoy_log_growth,
)

FREQUENCIES = {f.value: f for f in Frequency}
TRANSFORMS = ("none", "yoy_log", "per_capita", "per_capita_yoy_log")

STORE_MANIFEST = "store_manifest.csv"


def read_variable_csv(path: str, frequency: Frequency) -> dict:
    """Parse one variable file into {entity: MixedFreqSeries}."""
    with open(path, newline="") as fh:
        return _parse_variable(fh, frequency, path)


def _parse_variable(fh, frequency: Frequency, path: str) -> dict:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if header == ["entity", "year", "sub", "value"]:
        has_sub = True
    elif header == ["entity", "year", "value"] and frequency is Frequency.ANNUAL:
        has_sub = False
    else:
        raise IngestError(
            f"{path}: header must be 'entity,year,sub,value' "
            f"(got {','.join(header)!r})"
        )
    cells: dict = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise IngestError(f"{path}:{lineno}: expected {len(header)} fields")
        entity = row[0].strip()
        if not entity:
            raise IngestError(f"{path}:{lineno}: empty entity name")
        if any(c in entity for c in ',"\r\n'):
            raise IngestError(f"{path}:{lineno}: entity name {entity!r} holds a comma, "
                              "a double quote or a line break")
        if has_sub and not row[2].strip() and frequency is not Frequency.ANNUAL:
            raise IngestError(f"{path}:{lineno}: empty sub field in a "
                              f"{frequency.value} file")
        try:
            year = int(row[1])
            sub = int(row[2]) if has_sub and row[2].strip() else 1
            value = float(row[-1])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
        period = PeriodIndex(year, sub)
        try:
            validate_period(frequency, period)
        except Exception:
            raise IngestError(
                f"{path}:{lineno}: subperiod {sub} invalid for {frequency.value}"
            ) from None
        key = (entity, year, sub)
        if key in cells:
            raise IngestError(
                f"{path}:{lineno}: duplicate (entity,year,sub) = {key}"
            )
        cells[key] = value

    by_entity: dict = {}
    for (entity, year, sub), value in cells.items():
        by_entity.setdefault(entity, []).append((PeriodIndex(year, sub), value))
    out = {}
    for entity, obs in sorted(by_entity.items()):
        obs.sort(key=lambda pv: ordinal(frequency, pv[0]))
        ords = [ordinal(frequency, p) for p, _ in obs]
        for a, b in zip(ords, ords[1:]):
            if b != a + 1:
                gap = from_ordinal(frequency, a + 1)
                raise IngestError(
                    f"{path}: entity {entity!r} missing interior period "
                    f"{gap.label(frequency)}"
                )
        out[entity] = MixedFreqSeries(
            entity, frequency, obs[0][0], [v for _, v in obs]
        )
    return out


def read_manifest(path: str):
    """Ingestion manifest: CSV `variable,file,frequency,transform,population_file`."""
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty manifest")
        header = [h.strip() for h in header]
        if header != ["variable", "file", "frequency", "transform", "population_file"]:
            raise ConfigError(
                f"{path}: manifest header must be "
                "'variable,file,frequency,transform,population_file'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}:{lineno}: expected 5 fields")
            variable, fname, freq, transform, popfile = (c.strip() for c in row)
            # the store writes each variable unquoted, as the name of its file
            if not variable or variable[0] == "." or set(variable) & set(',"\r\n/\\'):
                raise ConfigError(f"{path}:{lineno}: variable name {variable!r} is empty, "
                                  "starts with '.' or holds a comma, a double quote, "
                                  "a line break or a path separator")
            if any(e["variable"] == variable for e in entries):
                raise ConfigError(f"{path}:{lineno}: variable {variable!r} given twice")
            if freq not in FREQUENCIES:
                raise ConfigError(f"{path}:{lineno}: unknown frequency {freq!r}")
            if transform not in TRANSFORMS:
                raise ConfigError(f"{path}:{lineno}: unknown transform {transform!r}")
            if transform.startswith("per_capita") and not popfile:
                raise ConfigError(
                    f"{path}:{lineno}: transform {transform!r} needs a population file"
                )
            entries.append(dict(
                variable=variable, file=fname, frequency=FREQUENCIES[freq],
                transform=transform, population_file=popfile or None,
            ))
    if not entries:
        raise ConfigError(f"{path}: empty manifest")
    return entries


def build_dataset(data_dir: str, manifest_entries) -> PanelDataset:
    """Read, validate and transform every variable into one panel."""
    dataset = PanelDataset()
    for entry in manifest_entries:
        series_map = read_variable_csv(
            os.path.join(data_dir, entry["file"]), entry["frequency"]
        )
        transform = entry["transform"]
        if transform.startswith("per_capita"):
            pop_map = read_variable_csv(
                os.path.join(data_dir, entry["population_file"]), Frequency.ANNUAL
            )
            transformed = {}
            for entity, series in series_map.items():
                if entity not in pop_map:
                    raise IngestError(
                        f"variable {entry['variable']!r}: no population series "
                        f"for entity {entity!r}"
                    )
                transformed[entity] = per_capita(series, pop_map[entity])
            series_map = transformed
        if transform in ("yoy_log", "per_capita_yoy_log"):
            series_map = {
                e: yoy_log_growth(s) for e, s in series_map.items()
            }
        for entity in sorted(series_map):
            dataset.add(entry["variable"], series_map[entity])
    return dataset


def _series_csv(variable: str, dataset: PanelDataset) -> str:
    freq = dataset.frequency(variable)
    buf = io.StringIO()
    buf.write("entity,year,sub,value\n")
    for entity, series in dataset.series_of(variable):
        for k, value in enumerate(series.values):
            p = from_ordinal(freq, ordinal(freq, series.start) + k)
            buf.write(f"{entity},{p.year},{p.sub},{float(value)!r}\n")
    return buf.getvalue()


def write_store(dataset: PanelDataset, store_dir: str) -> None:
    """Persist the transformed panel as normalized CSVs plus checksums."""
    os.makedirs(store_dir, exist_ok=True)
    manifest_lines = ["variable,frequency,file,sha256"]
    for variable in dataset.variables:
        text = _series_csv(variable, dataset)
        fname = f"{variable}.csv"
        with open(os.path.join(store_dir, fname), "w") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        manifest_lines.append(
            f"{variable},{dataset.frequency(variable).value},{fname},{digest}"
        )
    with open(os.path.join(store_dir, STORE_MANIFEST), "w") as fh:
        fh.write("\n".join(manifest_lines) + "\n")


def load_store(store_dir: str) -> PanelDataset:
    """Load a store written by write_store, verifying checksums. A manifest
    line that is malformed or names a file that cannot be read is an
    `IngestError` naming the line."""
    manifest_path = os.path.join(store_dir, STORE_MANIFEST)
    if not os.path.exists(manifest_path):
        raise IngestError(f"no store manifest at {manifest_path}")
    dataset = PanelDataset()
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise IngestError(f"{manifest_path}: empty store manifest")
        for lineno, row in enumerate(reader, start=2):
            where = f"{manifest_path}:{lineno}"
            if len(row) != 4:
                raise IngestError(f"{where}: {len(row)} fields, expected 4")
            variable, freq, fname, digest = row
            if freq not in FREQUENCIES:
                raise IngestError(f"{where}: unknown frequency {freq!r}")
            path = os.path.join(store_dir, fname)
            try:
                with open(path) as sf:
                    text = sf.read()
            except OSError as exc:
                raise IngestError(f"{where}: cannot read {path}: {exc.strerror}") from None
            actual = hashlib.sha256(text.encode()).hexdigest()
            if actual != digest:
                raise IngestError(f"{path}: checksum mismatch; store corrupted")
            for entity, series in sorted(
                _parse_variable(io.StringIO(text), FREQUENCIES[freq], path).items()
            ):
                dataset.add(variable, series)
    return dataset
