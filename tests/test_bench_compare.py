"""``scripts/bench_compare.py``: ratios and verdicts over two runs."""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts"))

from bench_compare import main  # noqa: E402

OLD = ('{"correct": true, "attempted": 96, "failed": 0, "metrics": {'
       '"fleet-cold.households_per_s": {"value": 40.0, "unit": "1/s"}, '
       '"fleet-cold.setup_s": {"value": 4.0, "unit": "s"}, '
       '"fleet-cold.peak_rss_mb": {"value": 100.0, "unit": "MB"}, '
       '"fleet-cold.acr.matcher.index.calls": {"value": 2, "unit": "count"}}}')
NEW = ('{"correct": true, "attempted": 96, "failed": 0, "metrics": {'
       '"fleet-cold.households_per_s": {"value": 38.0, "unit": "1/s"}, '
       '"fleet-cold.setup_s": {"value": 0.8, "unit": "s"}, '
       '"fleet-cold.peak_rss_mb": {"value": 112.0, "unit": "MB"}, '
       '"fleet-cold.acr.matcher.index.calls": {"value": 9, "unit": "count"}}}')


def test_ratios_and_verdicts(tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("# perfbench workload=all\n" + OLD + "\n")
    new.write_text("# perfbench workload=all\n" + NEW + "\n")

    assert main([str(old), str(new)]) == 1
    rows = {line.split()[0]: line.split(None, 4)[3:]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {
        "fleet-cold.households_per_s": ["0.950", "worse, within bound"],
        "fleet-cold.peak_rss_mb": ["1.120", "WORSE beyond 0.1"],
        "fleet-cold.setup_s": ["0.200", "better"]}

    assert main([str(new), str(new)]) == 0
    assert main([str(old)]) == 2
