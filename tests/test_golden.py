"""The CLI prints, and lifting_to_json writes, exactly what golden_cli.json
pins (see golden.py)."""

import json

import pytest

from golden import GOLDEN, bundle_texts, cases, expected_stdout, lattices_of, outputs

TEXTS = bundle_texts()
GROUPS = {}
for _key, _argv in cases():
    GROUPS.setdefault(lattices_of(_argv), []).append(_key)


@pytest.fixture(scope="module")
def want():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"), TEXTS)


def test_golden_file_pins_every_case(want):
    assert sorted(want) == sorted([key for key, _ in cases()] + list(TEXTS))


# one test per lattice and per ordered pair, so that a change names each
# input whose output moved
@pytest.mark.parametrize("lattices", sorted(GROUPS))
def test_cli_outputs_match_the_golden_file(want, got, lattices):
    for key in GROUPS[lattices]:
        code, stdout, stderr = want[key]
        assert got[key][0] == code, key
        assert expected_stdout(got[key][1]) == expected_stdout(stdout), key
        assert got[key][2] == stderr, key


@pytest.mark.parametrize("key", sorted(TEXTS))
def test_bundle_text_matches_the_golden_file(want, key):
    assert TEXTS[key] == want[key]
