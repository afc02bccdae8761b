"""The end-to-end verification battery, one test per criterion.

Each check of ``acceptance.ALL_CHECKS`` becomes the test
``test_criterion_<NN>_<check name>``, numbered in battery order, so a new
check needs no new wrapper.  Each test prints its own pass/fail line; the
full battery is also what ``fdstab verify`` runs.
"""

from fdstab import acceptance as acc


def _criterion(check):
    def test():
        res = check()
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
        assert res.passed, res.detail
    return test


for _n, _check in enumerate(acc.ALL_CHECKS, 1):
    _name = f"test_criterion_{_n:02d}_{_check.__name__.removeprefix('check_')}"
    globals()[_name] = _criterion(_check)
