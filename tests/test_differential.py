"""A small run of the differential corpus prints the bytes it printed when frozen.

``tests/differential.py`` prints every layer's output on seeded random draws
as exact text, so a change that moves any bit of any value changes this
digest.  After a deliberate change, diff the full output against the parent
tree's to see which fields moved, then freeze the new digest.
"""

import hashlib

import differential

SEED, DRAWS = 26, 700
DIGEST = "31a206e040b854610747ad88b6854585d9025f32851c37874a6191194be64d76"


def test_small_differential_run_is_pinned(capsys):
    differential.main(["--seed", str(SEED), "--draws", str(DRAWS)])
    out = capsys.readouterr().out
    # Each draw prints its line, and the lane engine ran on 88 groups of 7.
    assert out.count("\ndraw ") == DRAWS - 1 and out.count("\nlanes\t") == 88
    assert hashlib.sha256(out.encode()).hexdigest() == DIGEST
