"""Acceptance suite: one test per row of `acceptance.CRITERIA`, each run at
full size through the suite's runner, which prints its pass/fail line (run
with -s to see them)."""

from innerlab import acceptance


def _criterion_test(criterion):
    def test():
        result = acceptance.run_criterion(criterion)
        assert result.passed, result.detail
    return test


# test_criterion_01_sum_of_heights, ..., test_criterion_13_determinism:
# select one with -k criterion_07.
for _c in acceptance.CRITERIA:
    _name = f"test_criterion_{_c.number:02d}_{_c.check.__name__.lstrip('_')}"
    globals()[_name] = _criterion_test(_c)


def test_table_pins_numbers_and_wall_clock_limits():
    # The limits are gates on the code's speed and are never loosened.
    assert [c.number for c in acceptance.CRITERIA] == list(range(1, 14))
    limits = {c.number: c.limit_s for c in acceptance.CRITERIA
              if c.limit_s is not None}
    assert limits == {1: 30, 3: 120, 4: 60, 9: 120, 11: 60}
