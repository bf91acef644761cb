"""Synthetic data generators shared across tests.

The main generator builds a panel whose annual energy growth is driven by an
Almon-weighted weekly factor plus monthly and quarterly signals anchored at
the periods visible in week 48 of the release calendar, and whose emissions
growth is 0.8 * energy growth + noise. Persistence in the high-frequency
processes makes earlier calendar weeks partially informative.
"""

import numpy as np

from co2nowcast.almon import AlmonSpec, build_almon_map, implied_weights
from co2nowcast.panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
)


def ar1_path(rng, n, phi, sigma):
    x = np.empty(n)
    x[0] = rng.normal(0.0, sigma / np.sqrt(1.0 - phi * phi))
    for k in range(1, n):
        x[k] = phi * x[k - 1] + rng.normal(0.0, sigma)
    return x


def make_dataset(
    n_entities=4,
    first_year=1986,
    last_year=2012,
    seed=0,
    almon_gamma=(0.5, 0.15),
    beta_m=0.5,
    beta_q=0.5,
    delta=0.8,
    noise_c=0.02,
    noise_e=0.05,
    entity_spread=0.3,
):
    rng = np.random.default_rng(seed)
    entities = [f"S{i:02d}" for i in range(n_entities)]
    hf_first = first_year - 3  # high-frequency history predates the annual panel
    n_years_hf = last_year - hf_first + 1

    amap = build_almon_map(AlmonSpec(p=3, r=2, C=52))
    b = implied_weights(amap, np.asarray(almon_gamma))
    b = b / b.sum()

    dataset = PanelDataset()
    alphas, etas = {}, {}
    for entity in entities:
        weci = MixedFreqSeries(
            entity, Frequency.WEEKLY, PeriodIndex(hf_first, 1),
            ar1_path(rng, 52 * n_years_hf, 0.97, 0.05),
        )
        elec = MixedFreqSeries(
            entity, Frequency.MONTHLY, PeriodIndex(hf_first, 1),
            ar1_path(rng, 12 * n_years_hf, 0.90, 0.10),
        )
        pi = MixedFreqSeries(
            entity, Frequency.QUARTERLY, PeriodIndex(hf_first, 1),
            ar1_path(rng, 4 * n_years_hf, 0.80, 0.10),
        )
        a_i = rng.normal(0.0, entity_spread)
        g_i = rng.normal(0.0, entity_spread / 3.0)
        alphas[entity], etas[entity] = a_i, g_i
        c_vals, e_vals = [], []
        for t in range(first_year, last_year + 1):
            k = 52 * (t - hf_first) + 43  # weci's index of week 44 of year t
            w_sig = float(b @ weci.values[k - 51 : k + 1][::-1].copy())  # newest first
            z_sig = elec.value_at(PeriodIndex(t, 10))
            x_sig = pi.value_at(PeriodIndex(t, 3))
            c = a_i + w_sig + beta_m * z_sig + beta_q * x_sig + rng.normal(0, noise_c)
            e = g_i + delta * c + rng.normal(0, noise_e)
            c_vals.append(c)
            e_vals.append(e)
        dataset.add("WECI", weci)
        dataset.add("ELEC", elec)
        dataset.add("PI", pi)
        dataset.add("EC", MixedFreqSeries(
            entity, Frequency.ANNUAL, PeriodIndex(first_year, 1), c_vals))
        dataset.add("CO2", MixedFreqSeries(
            entity, Frequency.ANNUAL, PeriodIndex(first_year, 1), e_vals))
    truth = dict(alphas=alphas, etas=etas, weights=b, amap=amap,
                 beta_m=beta_m, beta_q=beta_q, delta=delta)
    return dataset, truth
