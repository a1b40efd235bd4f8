"""Growth-class fitting for measured round complexities.

The paper's claims are asymptotic classes (O(1), Theta(log* n),
Theta(log n), Theta(n)); experiments measure finite (n, rounds) series
and need to name the class the data tracks.  :func:`fit_growth` fits
``rounds ~ a + b * f(n)`` by least squares for each candidate shape and
reports the winner by residual error, with a flatness short-circuit so
constants are not misclassified as slowly-growing functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..analysis.towers import log_star_float

__all__ = ["GrowthFit", "fit_growth", "GROWTH_MODELS"]

#: Candidate shapes: name -> f(n).
GROWTH_MODELS: Dict[str, Callable[[float], float]] = {
    "constant": lambda n: 0.0,
    "log_star": lambda n: float(log_star_float(n)),
    "log": lambda n: math.log2(n),
    "sqrt": lambda n: math.sqrt(n),
    "linear": lambda n: float(n),
}


@dataclass
class GrowthFit:
    """Result of fitting one series against all candidate shapes."""

    best: str
    rmse: Dict[str, float]
    coefficients: Dict[str, Tuple[float, float]]  # model -> (a, b)


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Fit ``y = a + b x``; returns (a, b, rmse)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        a, b = mean_y, 0.0
    else:
        b = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
        a = mean_y - b * mean_x
    rmse = math.sqrt(sum((a + b * x - y) ** 2 for x, y in zip(xs, ys)) / n)
    return a, b, rmse


def fit_growth(
    ns: Sequence[float],
    rounds: Sequence[float],
    flatness_tolerance: float = 1.0,
) -> GrowthFit:
    """Name the growth class a measured series tracks.

    Parameters
    ----------
    ns, rounds:
        The measured series (at least 3 points, n strictly increasing).
    flatness_tolerance:
        If the series' total spread is at most this many rounds, it is
        declared ``constant`` outright — any shape fits a flat line.
    """
    if len(ns) != len(rounds) or len(ns) < 3:
        raise ValueError("need at least 3 aligned data points")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")

    spread = max(rounds) - min(rounds)
    rmse: Dict[str, float] = {}
    coefficients: Dict[str, Tuple[float, float]] = {}
    for name, f in GROWTH_MODELS.items():
        xs = [f(n) for n in ns]
        a, b, err = _least_squares(xs, rounds)
        # Growing models must actually grow: a negative slope on a
        # growing feature means the model is abused as a constant.
        if name != "constant" and b <= 0:
            err = math.inf
        rmse[name] = err
        coefficients[name] = (a, b)

    if spread <= flatness_tolerance:
        best = "constant"
    else:
        best = min(rmse, key=lambda k: rmse[k])
    return GrowthFit(best=best, rmse=rmse, coefficients=coefficients)
