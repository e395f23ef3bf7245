"""`maulab report` on a log the benchmark simulates, judged by the
benchmark's own checker.

The benchmark's `report_log` workload writes its log with `bench/synthlog.py`
in the program's column order and checks the report with `bench/check.py`.
Running both here catches a change of log columns or report output that would
make the benchmark fail before it is run. Nothing under `bench/` is written.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import synthlog  # noqa: E402

from maulab.cli import main  # noqa: E402
from maulab.metrics import AUCTION_LOG_FIELDS, EPISODE_LOG_FIELDS  # noqa: E402

EPISODES = 3000


def test_report_on_benchmark_log_passes_its_checker(tmp_path, capsys):
    log = tmp_path / "log"
    synthlog.write_log(log, 5, EPISODES, "gsp", 4, EPISODE_LOG_FIELDS, AUCTION_LOG_FIELDS)
    assert check.check_session(log, "gsp", 4, synthlog.ROSTER, EPISODES) == []
    assert main(["report", "--run", str(log), "--out", str(tmp_path / "report")]) == 0
    assert check.check_report(log, tmp_path / "report") == []
