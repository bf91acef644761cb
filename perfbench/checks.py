"""Output checks and accuracy figures for one full repetition.

Checks: every output file carries the `# config_hash=` header, no
diagnostics rows, every archived CO2 quantile set is complete and ascending,
every density row has a finite sigma > 0, and every spec has a finite score
table for each metric. Row counts are returned for the failed share, and
the archive digest for the byte-identical rerun check.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import statistics

from scipy.stats import t as student_t

from workloads import HEADLINE

HEADER_PREFIX = "# config_hash="
OUTPUTS = ("archive.csv", "density_params.csv", "diagnostics.csv")
TABLES = ("rmsfe", "qs_tau0.5", "crps")


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def skew_t_logpdf(x, mu, sigma, alpha, nu):
    """Azzalini-Capitanio skew-t log density, written independently of the
    program's own density code."""
    z = (x - mu) / sigma
    w = alpha * z * math.sqrt((nu + 1.0) / (nu + z * z))
    return (math.log(2.0 / sigma) + student_t.logpdf(z, nu)
            + student_t.logcdf(w, nu + 1.0))


def check_outputs(workdir: str, workload) -> dict:
    """Returns dict(errors, archived, archive_sha256, rel_rmsfe, rel_crps,
    density_logscore); `errors` is empty when every check passed."""
    out = os.path.join(workdir, "results")
    tables = os.path.join(workdir, "tables")
    missing = [name for name in OUTPUTS if not os.path.isfile(os.path.join(out, name))]
    if missing:  # a run that failed outright writes no outputs
        return dict(errors=[f"missing output {', '.join(missing)}"], archived=0,
                    archive_sha256=None, rel_rmsfe=0.0, rel_crps=0.0,
                    density_logscore=0.0)
    errors = []
    for name in OUTPUTS:
        with open(os.path.join(out, name)) as fh:
            if not fh.readline().startswith(HEADER_PREFIX):
                errors.append(f"{name}: missing {HEADER_PREFIX} header")
    with open(os.path.join(out, "archive.csv"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()

    archive = _rows(os.path.join(out, "archive.csv"))
    density = _rows(os.path.join(out, "density_params.csv"))
    diagnostics = _rows(os.path.join(out, "diagnostics.csv"))
    if diagnostics:
        errors.append(f"{len(diagnostics)} diagnostics rows, first: {diagnostics[0]}")

    quantiles, realized = {}, {}
    for r in archive:
        if r["variable"] == "CO2":
            key = (r["spec"], r["entity"], r["target_year"], r["week"])
            quantiles.setdefault(key, []).append(
                (float(r["tau_or_point"]), float(r["prediction"])))
            realized[(r["entity"], r["target_year"])] = float(r["realized"])
    n_taus = len(workload.taus)
    for key, pairs in quantiles.items():
        values = [q for _, q in sorted(pairs)]
        if len(values) != n_taus or values != sorted(values):
            errors.append(f"quantile set {key} incomplete or not ascending: {values}")
            break

    scores = []
    for r in density:
        sigma = float(r["sigma"])
        if not (math.isfinite(sigma) and sigma > 0.0):
            errors.append(f"density row {r} has sigma <= 0")
            break
        if r["spec"] == HEADLINE:
            scores.append(skew_t_logpdf(
                realized[(r["entity"], r["target_year"])], float(r["mu"]), sigma,
                float(r["alpha"]), float(r["nu"])))

    specs = sorted({r["spec"] for r in archive})
    relative = {}
    for table in TABLES:
        for spec in specs:
            path = os.path.join(tables, f"scores_{table}_{spec}.csv")
            if not os.path.exists(path):
                errors.append(f"missing score table {os.path.basename(path)}")
                continue
            aggregate = [float(r["aggregate"]) for r in _rows(path)]
            if not all(math.isfinite(a) for a in aggregate):
                errors.append(f"{os.path.basename(path)}: non-finite aggregate")
            elif spec == HEADLINE:
                relative[table] = statistics.fmean(aggregate)
    if HEADLINE not in specs:
        errors.append(f"no {HEADLINE} rows archived")

    return dict(
        errors=errors,
        archived=len(archive) + len(density),
        archive_sha256=digest,
        rel_rmsfe=relative.get("rmsfe", 0.0),
        rel_crps=relative.get("crps", 0.0),
        density_logscore=statistics.fmean(scores) if scores else 0.0,
    )
