"""Seeded synthetic panel for the benchmark, written as raw ingestion CSVs.

The process mirrors the shape of the test-suite generator without importing
it, so editing the tests cannot shift the benchmark inputs. Annual energy
growth is driven by a lag-weighted weekly factor plus monthly and quarterly
signals; emissions growth is 0.8 * energy growth plus noise. Only numpy is
used here: the program under test does not build its own inputs.
"""

from __future__ import annotations

import os

import numpy as np

WEEKS, MONTHS, QUARTERS = 52, 12, 4
HF_LEAD_YEARS = 3  # high-frequency history starts before the annual panel
HISTORY_SEED = 20250107  # stream of the history that all seeds share


def _ar1(rngs, n, phi, sigma, split):
    """AR(1) path whose shocks before index `split` come from rngs[0] and
    from `split` on from rngs[1]."""
    x = np.empty(n)
    x[0] = rngs[0].normal(0.0, sigma / np.sqrt(1.0 - phi * phi))
    for k in range(1, n):
        x[k] = phi * x[k - 1] + rngs[k >= split].normal(0.0, sigma)
    return x


def _weekly_weights():
    """Cubic lag polynomial with zero value and slope at the last lag."""
    j = np.arange(1, WEEKS + 1) / WEEKS
    w = (1.0 - j) ** 2 * (1.0 + 0.5 * j)
    return w / w.sum()


def make_panel(n_entities, first_year, last_year, seed, eval_start):
    """{variable: {entity: (frequency, values)}}; high-frequency series start
    HF_LEAD_YEARS before `first_year`, annual ones at `first_year`.

    Every draw for a year before `eval_start` (and the entity effects) comes
    from the fixed HISTORY_SEED stream, the later years from `seed`: all
    seeds share one training history."""
    rngs = (np.random.default_rng(HISTORY_SEED), np.random.default_rng(seed))
    weights = _weekly_weights()
    hf_first = first_year - HF_LEAD_YEARS
    n_hf = last_year - hf_first + 1
    split = eval_start - hf_first
    panel = {v: {} for v in ("WECI", "ELEC", "PI", "EC", "CO2")}
    for i in range(n_entities):
        entity = f"S{i:02d}"
        weci = _ar1(rngs, WEEKS * n_hf, 0.97, 0.05, WEEKS * split)
        elec = _ar1(rngs, MONTHS * n_hf, 0.90, 0.10, MONTHS * split)
        pi = _ar1(rngs, QUARTERS * n_hf, 0.80, 0.10, QUARTERS * split)
        a_i = rngs[0].normal(0.0, 0.3)
        g_i = rngs[0].normal(0.0, 0.1)
        ec, co2 = [], []
        for t in range(first_year, last_year + 1):
            y = t - hf_first
            r = rngs[y >= split]
            week44 = WEEKS * y + 43  # the weekly factor ends at week 44 of t
            w_sig = float(weights @ weci[week44 - np.arange(WEEKS)])
            c = (a_i + w_sig + 0.5 * elec[MONTHS * y + 9]
                 + 0.5 * pi[QUARTERS * y + 2] + r.normal(0.0, 0.02))
            ec.append(c)
            co2.append(g_i + 0.8 * c + r.normal(0.0, 0.05))
        panel["WECI"][entity] = ("weekly", weci)
        panel["ELEC"][entity] = ("monthly", elec)
        panel["PI"][entity] = ("quarterly", pi)
        panel["EC"][entity] = ("annual", np.array(ec))
        panel["CO2"][entity] = ("annual", np.array(co2))
    return panel


def write_raw(panel, first_year, out_dir, hf_from=None):
    """One `entity,year,sub,value` CSV per variable (annual files omit `sub`)
    plus the ingestion manifest; high-frequency values before year `hf_from`
    (default: all of them) are left out. Returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    per_year = {"weekly": WEEKS, "monthly": MONTHS, "quarterly": QUARTERS}
    manifest = ["variable,file,frequency,transform,population_file"]
    for variable, series in panel.items():
        freq = next(iter(series.values()))[0]
        lines = ["entity,year,value" if freq == "annual" else "entity,year,sub,value"]
        for entity, (_, values) in series.items():
            if freq == "annual":
                for k, v in enumerate(values):
                    lines.append(f"{entity},{first_year + k},{float(v)!r}")
            else:
                n = per_year[freq]
                start = first_year - HF_LEAD_YEARS
                skip = 0 if hf_from is None else max(0, n * (hf_from - start))
                for k, v in enumerate(values[skip:], start=skip):
                    lines.append(f"{entity},{start + k // n},{k % n + 1},{float(v)!r}")
        fname = f"{variable.lower()}.csv"
        with open(os.path.join(out_dir, fname), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        manifest.append(f"{variable},{fname},{freq},none,")
    path = os.path.join(out_dir, "manifest.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    return path
