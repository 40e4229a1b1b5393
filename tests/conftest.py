import numpy as np
import pytest
from hypothesis import settings

from rcaspace import IndexKind, ProductionTable

# Selected on CI with --hypothesis-profile=ci: a failing example is printed
# as a blob that @reproduce_failure replays, since CI keeps no example database.
settings.register_profile("ci", print_blob=True)


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion, printed unconditionally
    # (skips surface at setup time, successes and failures at call time)
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        name = report.nodeid.split("::", 1)[1]
        status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            report.outcome, report.outcome.upper()
        )
        print(f"\n[acceptance] {status}  {name}", flush=True)


@pytest.fixture
def make_table():
    def _make(values, kind=IndexKind.DOCUMENTS, countries=None, fields=None):
        values = np.asarray(values, dtype=float)
        n_c, n_f = values.shape
        countries = countries or tuple(f"C{i:02d}" for i in range(n_c))
        fields = fields or tuple(f"F{j:02d}" for j in range(n_f))
        return ProductionTable(kind, tuple(countries), tuple(fields), values)

    return _make
