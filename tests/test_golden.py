"""The CLI prints exactly what golden_cli.json pins (see golden.py)."""

import json

from golden import GOLDEN, cases, expected_stdout, outputs


def test_cli_outputs_match_the_golden_file(tmp_path):
    want = json.loads(GOLDEN.read_text())
    assert sorted(want) == sorted(key for key, _ in cases())
    got = outputs(tmp_path)
    for key, (code, stdout, stderr) in want.items():
        assert got[key][0] == code, key
        assert expected_stdout(got[key][1]) == expected_stdout(stdout), key
        assert got[key][2] == stderr, key
