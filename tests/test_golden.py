"""The CLI prints exactly what golden_cli.json pins (see golden.py)."""

import json

import pytest

from golden import GOLDEN, cases, expected_stdout, lattices_of, outputs

GROUPS = {}
for _key, _argv in cases():
    GROUPS.setdefault(lattices_of(_argv), []).append(_key)


@pytest.fixture(scope="module")
def want():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_golden_file_pins_every_case(want):
    assert sorted(want) == sorted(key for key, _ in cases())


# one test per lattice and per ordered pair, so that a change names each
# input whose output moved
@pytest.mark.parametrize("lattices", sorted(GROUPS))
def test_cli_outputs_match_the_golden_file(want, got, lattices):
    for key in GROUPS[lattices]:
        code, stdout, stderr = want[key]
        assert got[key][0] == code, key
        assert expected_stdout(got[key][1]) == expected_stdout(stdout), key
        assert got[key][2] == stderr, key
