"""The 900-argv byte-identity sweep of ``cli_sweep.py`` in tier-1: its
exit-code counts and digest are pinned here, so a change to any output of
the 2x2 commands fails this test.  An intended output change updates these
constants and is recorded in CHANGES.md."""

import cli_sweep

CODES = {0: 643, 2: 173, 3: 84}
DIGEST = "fdbd976f52eea7727f1f64301be9ecd7fb7559f650f5ea5191bc5b6eebe883c2"


def test_sweep_is_byte_identical():
    codes, hexdigest = cli_sweep.sweep()
    assert (dict(codes), hexdigest) == (CODES, DIGEST)
