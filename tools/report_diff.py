"""Field-level diff of two JSON reports of `slicegrowth verify`.

    python tools/report_diff.py A.json B.json

Records are matched by check name (the k-th record of a name in A with
the k-th of that name in B).  Prints one line per moved field, starting
with the check name: both values and, for floats, the relative change
and the distance in units in the last place.  Records and fields present
on one side only get a line each too, and so does a record whose place
among the records of both sides moved (with its index in A and in B) or
whose shared fields are in another order.  Exits 0 when nothing moved
and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from collections import Counter
from pathlib import Path


def _keyed(records: list[dict]) -> dict:
    """The records by (check, occurrence of that check name)."""
    seen = Counter()
    out = {}
    for rec in records:
        out[(rec["check"], seen[rec["check"]])] = rec
        seen[rec["check"]] += 1
    return out


def _ordinal(x: float) -> int:
    """Integers in the order of the floats: neighbours differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _describe(a, b) -> str:
    """How the field moved from a to b."""
    text = f"{a!r} -> {b!r}"
    if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
        rel = abs(b - a) / abs(a) if a else math.inf
        text += f" (rel {rel:.3g}, {abs(_ordinal(b) - _ordinal(a))} ulp)"
    return text


def _common(first, second) -> list:
    """The items of first that are also in second, in first's order."""
    return [item for item in first if item in second]


def diff(a: list[dict], b: list[dict]) -> list[str]:
    """One line per moved field, per record whose position among the
    records of both sides moved, per record whose shared fields changed
    order, and per record or field on one side only."""
    ka, kb = _keyed(a), _keyed(b)
    rank_a, rank_b = ({key: i for i, key in enumerate(_common(x, y))}
                      for x, y in ((ka, kb), (kb, ka)))
    lines = []
    for key in list(ka) + [k for k in kb if k not in ka]:
        check = key[0] if key[1] == 0 else f"{key[0]}#{key[1]}"
        if key not in kb:
            lines.append(f"{check}: only in A")
            continue
        if key not in ka:
            lines.append(f"{check}: only in B")
            continue
        ra, rb = ka[key], kb[key]
        if rank_a[key] != rank_b[key]:
            lines.append(f"{check}: position {list(ka).index(key)} -> {list(kb).index(key)}")
        order_a, order_b = _common(ra, rb), _common(rb, ra)
        if order_a != order_b:
            lines.append(f"{check}: field order {' '.join(order_a)} -> {' '.join(order_b)}")
        for field in list(ra) + [f for f in rb if f not in ra]:
            if field not in rb:
                lines.append(f"{check} {field}: only in A ({ra[field]!r})")
            elif field not in ra:
                lines.append(f"{check} {field}: only in B ({rb[field]!r})")
            elif json.dumps(ra[field]) != json.dumps(rb[field]):
                lines.append(f"{check} {field}: {_describe(ra[field], rb[field])}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    lines = diff(a, b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
