# Developer entry points.  Everything runs from the repo root with the
# sources on PYTHONPATH; no installation step is required.

PY := PYTHONPATH=src python

# Coverage floor for `make coverage` / CI: conservatively below the
# currently measured line coverage so real regressions trip it while
# routine refactors do not.
COV_FLOOR := 75

.PHONY: test test-fast bench bench-grid bench-fleet coverage \
	docs-check golden-update report invariance-smoke perfbench-smoke

test:
	$(PY) -m pytest -x -q

# Fast inner loop: skips the multi-cell fleet/grid/conformance/golden
# suites (marker registered in pytest.ini). Tier-1 stays `make test`.
test-fast:
	$(PY) -m pytest -x -q -m "not slow"

bench:
	$(PY) -m pytest benchmarks -q

bench-grid:
	$(PY) -m pytest benchmarks/bench_grid_runner.py -q

bench-fleet:
	$(PY) -m pytest benchmarks/bench_fleet.py -q

# Full suite under coverage with the floor enforced (requires
# pytest-cov, which CI installs; locally: pip install pytest-cov).
coverage:
	$(PY) -m pytest -q --cov=repro --cov-report=term \
		--cov-report=xml --cov-fail-under=$(COV_FLOOR)

# Regenerate the byte-identical output pins under tests/golden/ after an
# intentional simulation change, then commit the updated artifacts.
golden-update:
	$(PY) scripts/update_golden.py

docs-check:
	$(PY) scripts/docs_check.py

# End-to-end byte-identity smoke, one table row per claim (see the
# script's docstring): resume (200 households), chaos (96), findings
# (24) and metrics (16).  Artifacts, metrics.jsonl included, stay
# under smoke-out/<row>/.
invariance-smoke:
	$(PY) scripts/invariance_smoke.py --out-dir smoke-out

# Benchmark correctness smoke: one short pass of every perfbench
# workload.  Gates only on the exit status (1: a report digest differs
# from another mode's or from its pin in perfbench/expected.json; 2: the
# run failed); wall-clock numbers are printed, never gated.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seconds 1

report:
	$(PY) -m repro.cli report --jobs 4 > EXPERIMENTS.md
