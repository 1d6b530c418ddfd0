"""Chunk size changes the cost profile, never the answer.

The blockwise evaluation splits a length-T sequence into chunks of size Q.
Per batch/head slice it does O(T*Q) work in the quadratic intra stage plus
O(T/Q) sequential carry steps, so Q trades parallel-friendly block work
against sequential steps.  The output must be the same for every Q.

The script sweeps Q over a length-200 instance (most sizes leave a ragged
final chunk), printing the error against the sequential scan and the exact
operation counts per stage (``stage_flops``, a closed form of the shape
alone: the count is the same whether a state is passed in or not).
"""

import numpy as np

from ssdkit import chunked_forward, random_coefficients, recurrent_scan, stage_flops


def main():
    rng = np.random.default_rng(11)
    batch, t, heads, state = 2, 200, 2, 4
    coeffs = random_coefficients(rng, batch, t, heads, state)
    x = rng.standard_normal((batch, t, heads))
    h0 = rng.standard_normal((batch, heads, state))
    y_ref, h_ref = recurrent_scan(coeffs, x, h0)

    print(f"T={t}; reference is the sequential recurrence; tolerance story is")
    print("in the rel-err column, cost story in the stage columns.\n")
    print(f"{'Q':>5} {'chunks':>7} {'rel err':>10} {'intra':>10} {'carry':>8} "
          f"{'correct':>9} {'total':>10}")
    for q in (1, 2, 4, 8, 16, 32, 64, 200):
        y, hT = chunked_forward(coeffs, x, q, h0)
        flops = stage_flops(batch, t, heads, state, q)
        err = max(
            np.max(np.abs(y - y_ref)) / np.max(np.abs(y_ref)),
            np.max(np.abs(hT - h_ref)) / np.max(np.abs(h_ref)),
        )
        chunks = -(-t // q)
        print(f"{q:>5} {chunks:>7} {err:>10.2e} {flops.intra:>10} "
              f"{flops.propagate:>8} {flops.inter:>9} {flops.total:>10}")

    print("\nReading the table: intra work grows with Q (quadratic blocks),")
    print("carry steps shrink as 1/Q, the correction reads out each position")
    print("once at every Q, and the answer never moves.")


if __name__ == "__main__":
    main()
