"""Message-size estimation for bandwidth accounting.

The LOCAL model itself does not meter bandwidth — message size is
unbounded — but CONGEST-style accounting is what makes instrumented runs
comparable ("CV sends O(log c)-bit colors, Luby sends 48-bit
priorities").  :func:`estimate_size` assigns every payload a size in
*bits* using information-theoretic conventions; the message-passing
engine puts it in each traced ``message`` event's ``bits`` field:

* ``None`` costs 1 (presence bit);
* ``bool`` costs 1;
* ``int`` costs its two's-complement bit length (min 1);
* ``float`` costs 64;
* ``str``/``bytes`` cost 8 per character/byte;
* containers (tuple/list/set/frozenset/dict) cost the sum of their
  elements plus 2 bits of framing per element;
* anything else falls back to ``8 * len(repr(payload))``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["estimate_size"]


def estimate_size(payload: Any) -> int:
    """Estimated size of ``payload`` in bits (see module docstring)."""
    if payload is None:
        return 1
    if payload is True or payload is False:
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + (1 if payload < 0 else 0))
    if isinstance(payload, float):
        return 64
    if isinstance(payload, (str, bytes)):
        return 8 * len(payload)
    if isinstance(payload, dict):
        return sum(
            4 + estimate_size(k) + estimate_size(v) for k, v in payload.items()
        )
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(2 + estimate_size(x) for x in payload)
    return 8 * len(repr(payload))
