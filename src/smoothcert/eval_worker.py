"""Reference classifier worker for the EVAL stdio protocol.

Runs one of the built-in synthetic classifiers behind the wire
protocol, for loopback/integration testing of the external-classifier
adapter and as a template for wrapping real models:

    python -m smoothcert.eval_worker ball-l2 --radius 1.0
    python -m smoothcert.eval_worker ball-linf --radius 3.0 --center 0,0,1
    python -m smoothcert.eval_worker constant --label 1
    python -m smoothcert.eval_worker halfspace --w 1,0,0 --c 0.0

Balls are centred at the origin and the halfspace weight is e1 unless
``--center`` or ``--w`` is given. A given vector must have the length d
of each batch's rows. On such a mismatch, or any other malformed
request, the worker prints one line to stderr and exits 1. The l2 distance and the dot product are left-to-right sums
of the rows' terms, so only labels within rounding of the boundary can
differ from the in-process classifiers'.

Stdlib only, so the file can be copied into any Python runtime.
"""

from __future__ import annotations

import argparse
import operator
import sys
from itertools import repeat
from typing import Callable

_REPLY = ("0\n", "1\n")


def _parse_vector(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _labeller(args: argparse.Namespace, d: int) -> Callable[[list[float]], str]:
    """The reply line for each row of one batch of d-dimensional rows."""
    if args.mode == "constant":
        reply = f"{args.label}\n"
        return lambda row: reply
    if args.mode == "halfspace":
        name, vector = "--w", args.w if args.w is not None else [1.0] + [0.0] * (d - 1)
    else:
        name, vector = "--center", args.center if args.center is not None else [0.0] * d
    if len(vector) != d:
        raise ValueError(f"{name} has {len(vector)} entries but the rows have d={d}")
    sub, mul, c, radius = operator.sub, operator.mul, args.c, args.radius
    if args.mode == "halfspace":
        return lambda row: _REPLY[sum(map(mul, vector, row)) >= c]
    if args.mode == "ball-l2":
        return lambda row: _REPLY[sum(map(pow, map(sub, row, vector), repeat(2))) ** 0.5 <= radius]
    return lambda row: _REPLY[max(map(abs, map(sub, row, vector))) <= radius]


def _replies(args: argparse.Namespace, header: str, readline: Callable[[], str]) -> str:
    """The reply lines to one request; ValueError if the request is malformed."""
    parts = header.split()
    if len(parts) != 3 or parts[0] != "EVAL":
        raise ValueError(f"bad header: {header!r}")
    n, d = int(parts[1]), int(parts[2])
    label = _labeller(args, d)
    out = []
    for _ in range(n):
        row = list(map(float, readline().split()))
        if len(row) != d:
            raise ValueError(f"a row has {len(row)} entries but the header says d={d}")
        out.append(label(row))
    return "".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["constant", "ball-l2", "ball-linf", "halfspace"])
    parser.add_argument("--label", type=int, default=1)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--center", type=_parse_vector, default=None)
    parser.add_argument("--w", type=_parse_vector, default=None)
    parser.add_argument("--c", type=float, default=0.0)
    args = parser.parse_args(argv)

    readline, stdout = sys.stdin.readline, sys.stdout
    while True:
        header = readline()
        if header == "":
            return 0
        try:
            replies = _replies(args, header, readline)
        except ValueError as exc:  # a malformed request: one line, then exit 1
            print(exc, file=sys.stderr)
            return 1
        stdout.write(replies)
        stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
