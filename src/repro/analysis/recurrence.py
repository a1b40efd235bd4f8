"""The lower-bound recurrences of Section 6, executable.

Claim 11 runs the speedup pipeline symbolically: starting from the
target weak 2-coloring at radius ``t`` and walking *down* to radius 0,
the palette explodes as

    c_hat_{i-1} = 2^(2 c_i)          (first speedup, Lemma 7/14)
    c_{i-1}     = 2^(Delta c_hat_{i-1})   (second speedup, Lemma 8/15)

while the failure floor obeys ``p_t >= (p_0 / ((Delta+1) c_0))^{(Delta+1)^{2t+1}}``.
Claim 12 then calibrates: at ``t = log*(n)/2 - b - 3`` the tower
``c_0`` stays below ``log^{(2b+1)} n``, forcing local failure at least
``1 / log^{(2b)} n``; Lemma 9 and Theorem 13 convert that to a global
success probability strictly below 1/2.

Palettes are :class:`~repro.analysis.towers.TowerNumber`s — they clear
float range after two steps — and failure exponents live in log2 space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .towers import TowerNumber, exp2_scaled, iterated_log, tower

__all__ = [
    "palette_trajectory",
    "claim11_failure_floor_log2",
    "claim12_round_threshold",
    "claim12_c0_ceiling",
    "claim12_failure_floor_reciprocal",
    "Lemma9Evaluation",
    "lemma9_evaluate",
    "theorem13_crossover_height",
]


def palette_trajectory(t: int, delta: int, c_t: int = 2) -> List[TowerNumber]:
    """Nominal palettes ``[c_t, c_{t-1}, ..., c_0]`` of the downward walk.

    ``c_t`` is the final target palette (2 for weak 2-coloring); each
    step applies the two speedup palettes in sequence.
    """
    if delta % 2 != 0 or delta < 4:
        raise ValueError("the speedup setting needs even Delta >= 4")
    out = [TowerNumber.from_float(float(c_t))]
    current = out[0]
    for _ in range(t):
        c_hat = exp2_scaled(current, 2.0)  # 2^(2c)
        current = exp2_scaled(c_hat, float(delta))  # 2^(Delta * c_hat)
        out.append(current)
    return out


def claim11_failure_floor_log2(
    p0_log2: float, c0_log2: float, t: int, delta: int
) -> float:
    """``log2`` of Claim 11/16's floor ``(p0 / ((Delta+1) c0))^{(Delta+1)^{2t+1}}``."""
    base_log2 = p0_log2 - math.log2(delta + 1) - c0_log2
    return ((delta + 1) ** (2 * t + 1)) * base_log2


def claim12_round_threshold(log_star_n: float, b: int) -> float:
    """Claim 12's round budget ``t = log*(n)/2 - b - 3``."""
    if b < 1:
        raise ValueError("Claim 12 assumes b >= 1")
    return log_star_n / 2.0 - b - 3


def claim12_c0_ceiling(n: TowerNumber, b: int) -> TowerNumber:
    """Claim 12's palette ceiling ``c_0 <= log^{(2b+1)} n``."""
    return iterated_log(n, 2 * b + 1)


def claim12_failure_floor_reciprocal(n: TowerNumber, b: int) -> TowerNumber:
    """``M`` such that Claim 12 guarantees local failure ``>= 1 / M``.

    ``M = log^{(2b)} n``.
    """
    return iterated_log(n, 2 * b)


@dataclass
class Lemma9Evaluation:
    """Evaluation of Lemma 9's global success ceiling at one ``(n, b)``.

    The ceiling is ``(1 - 1/M)^N + 1/(2 n^{1/3})`` with
    ``M = log^{(2b)} n`` and ``N = n^{1/(3(2t+1))}``,
    ``t = log*(n)/2 - b - 3``.
    """

    log_star_n: int
    b: int
    t: float
    regime_reached: bool  # t >= 1, so the claim machinery applies
    m_term: TowerNumber  # M
    n_term: TowerNumber  # N
    below_half: Optional[bool]  # None when the regime is not reached

    def first_term_upper(self) -> float:
        """``exp(-N/M)`` where float-representable, else 0.0."""
        if self.n_term.is_finite_float() and self.m_term.is_finite_float():
            ratio = self.n_term.to_float() / self.m_term.to_float()
            return math.exp(-min(ratio, 745.0))
        # N dwarfs M by tower magnitudes in the asymptotic regime.
        return 0.0 if self.n_term > self.m_term else 1.0


def lemma9_evaluate(n: TowerNumber, b: int = 1) -> Lemma9Evaluation:
    """Evaluate Lemma 9 / Theorem 13 at ``n`` (typically ``tower(h)``)."""
    ls = n.log_star()
    t = claim12_round_threshold(ls, b)
    if t < 1:
        return Lemma9Evaluation(
            log_star_n=ls,
            b=b,
            t=t,
            regime_reached=False,
            m_term=iterated_log(n, 2 * b),
            n_term=TowerNumber.from_float(1.0),
            below_half=None,
        )
    m_term = iterated_log(n, 2 * b)
    # N = n^(1/(3(2t+1))): log2 N = log2(n) / (3(2t+1)).
    log2_n = n.log2()
    divisor = 3 * (2 * t + 1)
    if log2_n.height == 0:
        n_term = exp2_scaled(TowerNumber.from_float(max(1.0, log2_n.top / divisor)), 1.0)
    else:
        # Dividing a tower by a small constant leaves its canonical form.
        n_term = TowerNumber(log2_n.height + 1, log2_n.top)
    # First term < 1/4 needs N >= 2 M (gives exp(-2) < 1/4); the second
    # term < 1/4 needs n^{1/3} > 2, i.e. n > 8.
    first_small = n_term > TowerNumber(m_term.height, m_term.top) and (
        not (n_term.is_finite_float() and m_term.is_finite_float())
        or n_term.to_float() >= 2 * m_term.to_float()
    )
    second_small = n > TowerNumber.from_float(8.0)
    return Lemma9Evaluation(
        log_star_n=ls,
        b=b,
        t=t,
        regime_reached=True,
        m_term=m_term,
        n_term=n_term,
        below_half=bool(first_small and second_small),
    )


def theorem13_crossover_height(b: int = 1, max_height: int = 64) -> int:
    """Smallest tower height ``h`` with Lemma 9's ceiling below 1/2 at ``n = 2↑↑h``.

    Theorem 13's "for large enough n" made concrete: the asymptotic
    regime opens once ``log* n`` clears ``2(b + 4)``.
    """
    for h in range(1, max_height + 1):
        evaluation = lemma9_evaluate(tower(h), b)
        if evaluation.regime_reached and evaluation.below_half:
            return h
    raise ValueError(f"no crossover below tower height {max_height}")
