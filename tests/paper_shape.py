"""One paper-shape year, run and counted: `python3 tests/paper_shape.py`.

Builds the synthetic panel `make_dataset(n_entities=51, first_year=1985,
last_year=2018, seed=1)`, runs `_run_year` for 2018 in this process with the
default `RunConfig`, and prints the first 16 hex digits of the sha256 of the
archive's three texts (`to_csv() + density_csv() + diagnostics_csv()`), the
seconds the year took, how often it called each solver and panel read, how
many HiGHS solves of each kind `panel_qr._highs` made and the seconds they
took (a dual started from a basis is warm, one without is cold, and a face
LP is told apart by its `what` argument), and how many of the archived
densities are clamped at the shape bound |alpha| = 32.
The hash pins the year's outputs, so two commits that print the same one
produced the same bytes. Not a test: pytest does not collect this file.
"""

import hashlib
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from _dgp import make_dataset  # noqa: E402

from co2nowcast import panel_ls, panel_qr, pipeline, skew_t  # noqa: E402

COUNTED = (
    (panel_qr, "_fit_lp"),
    (panel_ls, "_solve_pivoted"),
    (skew_t, "_solve_alpha"),
    (pipeline, "fit_from_quantiles"),
    (pipeline.PanelArrays, "read"),
    (pipeline.PanelArrays, "_read"),
)
SOLVE_KINDS = ("warm dual", "cold dual", "tie-break LP")


def main():
    calls = Counter()

    def counting(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        setattr(owner, name, counted)

    solves, solve_seconds = Counter(), Counter()
    highs = panel_qr._highs

    def timed_highs(*args, what="quantile LP", **kwargs):
        basis = args[6] if len(args) > 6 else kwargs.get("basis")
        kind = ("tie-break LP" if what == "quantile tie-break LP"
                else "cold dual" if basis is None else "warm dual")
        start = time.perf_counter()
        try:
            return highs(*args, what=what, **kwargs)
        finally:
            solves[kind] += 1
            solve_seconds[kind] += time.perf_counter() - start

    panel_qr._highs = timed_highs
    ds, _ = make_dataset(n_entities=51, first_year=1985, last_year=2018, seed=1)
    panel = pipeline.PanelArrays(ds)
    for owner, name in COUNTED:
        counting(owner, name)
    start = time.perf_counter()
    archive = pipeline._run_year(panel, pipeline.RunConfig(), 2018)
    seconds = time.perf_counter() - start
    text = archive.to_csv() + archive.density_csv() + archive.diagnostics_csv()
    print(hashlib.sha256(text.encode()).hexdigest()[:16])
    print(f"{seconds:.1f} s")
    for owner, name in COUNTED:
        label = f"{owner.__name__}.{name}" if isinstance(owner, type) else name
        print(f"{label} {calls[name]}")
    for kind in SOLVE_KINDS:
        print(f"_highs {kind} {solves[kind]} in {solve_seconds[kind]:.2f} s")
    alphas = [float(line.split(",")[6]) for line in archive.density]
    clamped = sum(abs(a) >= 32.0 for a in alphas)
    print(f"densities clamped at |alpha| = 32: {clamped} of {len(alphas)}")


if __name__ == "__main__":
    main()
