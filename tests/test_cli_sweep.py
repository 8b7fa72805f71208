"""The 900-argv byte-identity sweep of ``cli_sweep.py`` in tier-1: its
exit-code counts and digest are pinned here, so a change to any output of
the 2x2 commands fails this test.  An intended output change updates these
constants and is recorded in CHANGES.md."""

import cli_sweep

CODES = {0: 643, 2: 193, 3: 64}
DIGEST = "41ae7ee3336ec9cf4363ae9c8b8fc8538d63201120d3d775f64e2c2458820120"


def test_sweep_is_byte_identical():
    codes, hexdigest = cli_sweep.sweep()
    assert (dict(codes), hexdigest) == (CODES, DIGEST)
