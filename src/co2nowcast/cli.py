"""Batch command-line front door.

Commands: ingest, calendar, run, evaluate, density. Exit codes: 0 success,
1 fatal error, 2 completed with diagnostic gaps. Every output file starts
with a comment line carrying the config hash and artifact version, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import os
import sys

from . import __version__
from .config import parse_config_text, parse_specs
from .errors import DataError
from .evaluation import score_table_csv, score_tables
from .ingest import build_dataset, load_store, read_manifest, write_store
from .pipeline import run_out_of_sample
from .release_calendar import calendar_rows, table2_rules
from .skew_t import SkewTParams, density_grid

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _header(source_text: str) -> str:
    return f"# config_hash={_hash_text(source_text)} version={__version__}\n"


def _write(path: str, header: str, body: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + body)


def cmd_ingest(args) -> int:
    entries = read_manifest(args.manifest)
    dataset = build_dataset(args.data_dir, entries)
    write_store(dataset, args.out)
    print(f"ingested {len(dataset.variables)} variables, "
          f"{len(dataset.entities)} entities -> {args.out}")
    return EXIT_OK


def cmd_calendar(args) -> int:
    rows = calendar_rows(table2_rules(), args.year)
    out = io.StringIO()
    out.write("phase,week,date,CO2,EC,PI,ELEC,WECI\n")
    for phase, v, label, cells in rows:
        out.write(f"{phase},{v},{label},{','.join(cells)}\n")
    text = out.getvalue()
    if args.out:
        _write(args.out, _header(str(args.year)), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args) -> int:
    with open(args.config) as fh:
        source_text = fh.read()
    config, data_dir = parse_config_text(source_text)
    if args.data_dir:
        data_dir = args.data_dir
    if not data_dir:
        raise DataError("no data_dir given (config key or --data-dir)")
    if args.specs:
        config = dataclasses.replace(config, specs=parse_specs(args.specs))
        source_text += f"\n--specs {','.join(config.specs)}\n"
    dataset = load_store(data_dir)
    archive = run_out_of_sample(dataset, config)
    header = _header(source_text)
    _write(os.path.join(args.out, "archive.csv"), header, archive.to_csv())
    _write(os.path.join(args.out, "density_params.csv"), header, archive.density_csv())
    _write(os.path.join(args.out, "diagnostics.csv"), header, archive.diagnostics_csv())
    n_rows = len(archive.energy_rows) + len(archive.co2_rows)
    print(f"archived {n_rows} prediction rows "
          f"({len(archive.diagnostics)} diagnostics) -> {args.out}")
    return EXIT_PARTIAL if archive.diagnostics else EXIT_OK


def _read_archive(path: str):
    """The archive's text, which its score tables' header hashes, and its
    rows, parsed from that one read."""
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in io.StringIO(text) if not ln.startswith("#")]
    rows = []
    for r in csv.DictReader(lines):
        rows.append(dict(
            spec=r["spec"], variable=r["variable"], entity=r["entity"],
            year=int(r["target_year"]), week=int(r["week"]),
            tau_or_point=r["tau_or_point"],
            prediction=float(r["prediction"]),
            benchmark=float(r["benchmark"]),
            realized=float(r["realized"]),
        ))
    return text, rows


def cmd_evaluate(args) -> int:
    text, rows = _read_archive(args.archive)
    qs = args.metric == "qs"
    tables = score_tables(rows, args.metric, tau=args.tau if qs else None,
                          relative_to=args.relative_to)
    header = _header(text)
    kind = f"scores_{args.metric}" + (f"_tau{args.tau}" if qs else "")
    for spec, table in tables.items():
        _write(os.path.join(args.out, f"{kind}_{spec}.csv"), header,
               score_table_csv(table))
    print(f"wrote {len(tables)} score tables -> {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    path = os.path.join(args.archive_dir, "density_params.csv")
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    params: dict = {}
    for r in csv.DictReader(lines):
        key = (r["spec"], r["entity"], int(r["target_year"]), int(r["week"]))
        params[key] = SkewTParams(
            mu=float(r["mu"]), sigma=float(r["sigma"]),
            alpha=float(r["alpha"]), nu=float(r["nu"]),
        )
    if not params:
        raise DataError(f"{path}: no fitted densities")
    specs = sorted({k[0] for k in params})
    spec = args.spec or (specs[0] if len(specs) == 1 else None)
    if spec is None:
        raise DataError(f"multiple specs in archive; pass --spec (one of {specs})")

    realized: dict = {}
    archive_path = os.path.join(args.archive_dir, "archive.csv")
    if os.path.exists(archive_path):
        _, rows = _read_archive(archive_path)
        for r in rows:
            if r["variable"] == "CO2":
                realized[(r["entity"], r["year"])] = r["realized"]

    weeks = []
    for token in args.weeks.split(","):
        try:
            weeks.append(int(token))
        except ValueError:
            raise DataError(f"--weeks: {token!r} is not a week number") from None
    with open(path) as fh:
        header = _header(fh.read())
    written = []
    for week in weeks:
        key = (spec, args.entity, args.year, week)
        if key not in params:
            available = sorted(k for k in params if k[0] == spec)[:20]
            raise DataError(
                f"no density for {key}; available keys include {available}"
            )
        x, fx = density_grid(params[key])
        mark = realized.get((args.entity, args.year), float("nan"))
        body = io.StringIO()
        body.write("x,pdf,realized\n")
        for xi, fi in zip(x, fx):
            body.write(f"{float(xi)!r},{float(fi)!r},{float(mark)!r}\n")
        name = f"density_{spec}_{args.entity}_{args.year}_W{week}.csv"
        _write(os.path.join(args.out, name), header, body.getvalue())
        written.append(name)
    print(f"wrote {len(written)} density grids -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="co2nowcast",
        description="Panel MIDAS energy nowcasts and CO2 density nowcasts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize input CSVs")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("calendar", help="print the weekly release calendar")
    p.add_argument("action", choices=["print"])
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calendar)

    p = sub.add_parser("run", help="run the out-of-sample experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--specs", default=None, help="comma-separated model kinds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score an archive into tables")
    p.add_argument("--archive", required=True)
    p.add_argument("--metric", choices=["rmsfe", "qs", "crps"], required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--relative-to", default="HistMean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("density", help="export fitted density grids")
    p.add_argument("--archive-dir", required=True)
    p.add_argument("--entity", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--weeks", required=True, help="comma-separated week numbers")
    p.add_argument("--spec", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
