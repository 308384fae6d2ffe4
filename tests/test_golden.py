import json

import pytest

from golden import CASES, compare, golden_path, run_case


def _check(case):
    errors = compare(run_case(case), golden_path(case).read_text(encoding="utf-8"))
    assert not errors, "\n".join(errors[:10])


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][0] == "eliminate"])
def test_eliminate_matches_golden(case):
    _check(case)


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][0] != "eliminate"])
def test_other_subcommands_match_golden(case):
    _check(case)


def _lines(records):
    return "\n".join(json.dumps(r) for r in records)


class TestComparer:
    want = [
        {"i": 0, "pivot": 3, "degree_value": 2.0, "v_i": 10.0, "slack": -1.0},
        {"terminal": [0, 1], "v_terminal": 5.0, "v0": 10.0, "w_norm_sq": 4.0, "steps": 1},
    ]

    def _mutated(self, index, key, value):
        records = [dict(r) for r in self.want]
        records[index][key] = value
        return compare(_lines(records), _lines(self.want))

    def test_identical_and_roundoff_pass(self):
        assert compare(_lines(self.want), _lines(self.want)) == []
        assert self._mutated(0, "v_i", 10.0 * (1 + 5e-13)) == []
        assert self._mutated(0, "slack", -1.0 + 5e-12) == []  # within 1e-12 * v0

    @pytest.mark.parametrize(
        "index, key, value",
        [
            (0, "pivot", 4),
            (0, "v_i", 10.0 * (1 + 1e-11)),
            (0, "degree_value", 2.0 * (1 - 1e-11)),
            (0, "slack", -1.0 + 1e-10),
            (1, "terminal", [0, 2]),
            (1, "v0", None),
            (1, "steps", 2),
        ],
    )
    def test_rejects_each_kind_of_difference(self, index, key, value):
        assert self._mutated(index, key, value)

    def test_rejects_renamed_key_and_missing_record(self):
        records = [dict(r) for r in self.want]
        records[0]["degree"] = records[0].pop("degree_value")
        assert compare(_lines(records), _lines(self.want))
        assert compare(_lines(self.want[1:]), _lines(self.want))
