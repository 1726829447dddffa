"""The verdict of tools/differential.py on named expected differences,
with the tool loaded by path: every run of a deck that matches a pattern
must differ, every other run must be identical, and a pattern must match
some deck."""

import pytest

from conftest import load_file

differential = load_file("tools/differential.py")

SAME = {"output": ["  1.00000E 00"], "status": 0}
OTHER = {"output": ["  2.00000E 00"], "status": 0}


def runs(*entries):
    """(run, base, this) for each (deck name, base, this)."""
    return [((name, 80, True), base, this) for name, base, this in entries]


@pytest.mark.parametrize("entries, patterns, status", [
    ([("generated 0", SAME, SAME), ("float edge A", SAME, SAME)], [], 0),
    ([("generated 0", SAME, SAME), ("float edge A", SAME, OTHER)], [], 1),
    ([("generated 0", SAME, SAME), ("float edge A", SAME, OTHER)], ["float edge *"], 0),
    ([("generated 0", SAME, OTHER), ("float edge A", SAME, OTHER)], ["float edge *"], 1),
    ([("float edge A", SAME, OTHER), ("float edge B", SAME, SAME)], ["float edge *"], 1),
    ([("generated 0", SAME, SAME)], ["float edge *"], 1),
    ([("generated 0", SAME, None)], [], 1),
    ([("generated 0", None, SAME), ("generated 1", None, None)], [], 0),
], ids=["all identical", "an unexpected difference", "the expected difference",
        "a difference besides the expected one", "an expected difference unmet",
        "a pattern that matches no deck", "hung here", "excluded"])
def test_the_verdict(entries, patterns, status):
    assert differential.verdict(runs(*entries), patterns)[2] == status


def test_each_run_is_sorted_by_kind_with_its_first_differing_field():
    kinds, unused, status = differential.verdict(runs(
        ("generated 0", SAME, SAME), ("generated 1", SAME, OTHER),
        ("float edge A", SAME, OTHER), ("float edge B", SAME, SAME),
        ("number 0", SAME, None), ("number 1", None, SAME),
    ), ["float edge *", "branch ?"])
    assert {kind: [(run[0], field) for run, field in found]
            for kind, found in kinds.items()} == {
        "identical": [("generated 0", None)],
        "differed": [("generated 1", "output")],
        "expected": [("float edge A", "output")],
        "unmet": [("float edge B", None)],
        "hung": [("number 0", None)],
        "excluded": [("number 1", None)],
    }
    assert (unused, status) == (["branch ?"], 1)


def test_patterns_skip_blank_lines_and_comments(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text("# a comment\n\n  float edge *  \nbranch 3\n")
    assert differential.expected_patterns(path) == ["float edge *", "branch 3"]
