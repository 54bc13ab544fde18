"""What verify's rows report and what they draw, pinned.

The digests were taken before the rows became data (name, draw, law), and
the refactor had to leave both unchanged: one covers every row's name, pass
flag and residual text, the other the final state of every row's generator,
so each row still makes the same draws in the same order.
"""

import hashlib
import random

import pytest

from qgalois import verify

ROWS_DIGEST = "2837a2f074fa4d2d270631ae61727044a5b9be256d940008d014008cee02f0c4"
STATES_DIGEST = "772586f11a7c4a0e01a9fc434141dcd49abdf828db78864352a41f5bc5223b21"


def test_rows_and_their_draws_are_pinned(monkeypatch):
    generators = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

    monkeypatch.setattr(verify.random, "Random", Recorded)
    rows, states = hashlib.sha256(), hashlib.sha256()
    for order in range(2, 9):
        for seed in range(10):
            for r in verify.run_all(order, seed, 3):
                rows.update(f"{order} {seed} {r.name} {r.passed} {r.residual}\n".encode())
            for g in generators:
                states.update(repr(g.getstate()).encode())
            generators.clear()
    assert (rows.hexdigest(), states.hexdigest()) == (ROWS_DIGEST, STATES_DIGEST)


@pytest.mark.parametrize("order", range(9, 13))
def test_every_row_holds_past_order_8(order):
    rows = verify.run_all(order, 0, 3)
    assert len(rows) == 40 and all(rows), [r.name for r in rows if not r]
