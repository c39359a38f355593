"""Reference classifier worker for the EVAL stdio protocol.

Runs one of the built-in synthetic classifiers behind the wire
protocol, for loopback/integration testing of the external-classifier
adapter and as a template for wrapping real models. Each request is a
line "EVAL64 <n> <d>" followed by exactly 8*n*d bytes, the n rows as
row-major little-endian float64; the reply is n lines, each "0" or "1":

    python -m smoothcert.eval_worker ball-l2 --radius 1.0
    python -m smoothcert.eval_worker ball-linf --radius 3.0 --center 0,0,1
    python -m smoothcert.eval_worker constant --label 1
    python -m smoothcert.eval_worker halfspace --w 1,0,0 --c 0.0

Balls are centred at the origin and the halfspace weight is e1 unless
``--center`` or ``--w`` is given. A given vector must have the length d
of each batch's rows. On such a mismatch, or any other malformed
request (another keyword, a count that is not an integer, n < 0, d < 1,
or a body cut short by the end of input), the worker prints one line to
stderr and exits 1. The l2 distance and the dot product are
left-to-right sums of the rows' terms, so only labels within rounding
of the boundary can differ from the in-process classifiers'.

Stdlib only, so the file can be copied into any Python runtime.
"""

from __future__ import annotations

import argparse
import array
import operator
import sys
from itertools import repeat
from typing import Callable

_REPLY = ("0\n", "1\n")


def _parse_vector(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _labeller(args: argparse.Namespace, d: int) -> Callable[[array.array], str]:
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


def _replies(args: argparse.Namespace, header: bytes, read: Callable[[int], bytes]) -> str:
    """The reply lines to one request; ValueError if the request is malformed."""
    parts = header.split()
    if len(parts) != 3 or parts[0] != b"EVAL64":
        raise ValueError(f"bad header: {header!r}")
    n, d = int(parts[1]), int(parts[2])
    if n < 0 or d < 1:  # before reading: n, d = -1, -2 would wait for a 16-byte body
        raise ValueError(f"bad header: {header!r} needs n >= 0 and d >= 1")
    label = _labeller(args, d)
    size = 8 * n * d
    try:
        body = read(size)
    except (OverflowError, MemoryError) as exc:
        raise ValueError(f"bad header: {header!r} asks for a {size}-byte body") from exc
    if len(body) != size:
        raise ValueError(f"the body has {len(body)} bytes but the header says 8*n*d = {size}")
    values = array.array("d", body)
    if sys.byteorder == "big":
        values.byteswap()
    return "".join([label(values[i : i + d]) for i in range(0, n * d, d)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["constant", "ball-l2", "ball-linf", "halfspace"])
    parser.add_argument("--label", type=int, default=1)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--center", type=_parse_vector, default=None)
    parser.add_argument("--w", type=_parse_vector, default=None)
    parser.add_argument("--c", type=float, default=0.0)
    args = parser.parse_args(argv)

    stdin, stdout = sys.stdin.buffer, sys.stdout
    while True:
        header = stdin.readline()
        if header == b"":
            return 0
        try:
            replies = _replies(args, header, stdin.read)
        except ValueError as exc:  # a malformed request: one line, then exit 1
            print(exc, file=sys.stderr)
            return 1
        stdout.write(replies)
        stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
