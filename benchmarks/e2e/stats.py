"""Sample summaries shared by the runner, the traced run and noise.py.

The host's noise is one-sided: neighbours slow a repeat down by 15-100 %
for 0.5-3 s at a time, about 40 % of the time (measured while sizing),
and nothing ever makes one faster.  Medians of in-run repeats therefore
moved 10-25 % between runs of the same code while the least-disturbed
repeat moved 3-7 %, so the reported value of a timing is its best
repeat; the median, the extremes, the IQR and the sample count are
written beside it in the result file.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(q * n)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(
    values: Sequence[float], best: Callable = min
) -> Dict[str, object]:
    """The best repeat (``min`` for a time, ``max`` for a rate), with
    the median, extremes, IQR and sample count beside it."""
    return {
        "value": best(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr(values),
        "n": len(values),
        "samples": list(values),
    }


def summarize_sweeps(
    sweeps: Sequence[Dict[tuple, float]]
) -> Dict[str, object]:
    """Seconds of one sweep over a stage's cells, from repeated sweeps
    that timed every cell on its own: the sum over cells of each cell's
    best repeat (a slow burst that hits one cell of one sweep is shed),
    with the spread of the sweep totals beside it."""
    out = summarize([sum(sweep.values()) for sweep in sweeps])
    out["cells"] = {
        "/".join(cell): [sweep[cell] for sweep in sweeps]
        for cell in sweeps[0]
    }
    out["value"] = sum(min(v) for v in out["cells"].values())
    return out
