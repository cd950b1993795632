# Convenience targets for the Carpool reproduction.

.PHONY: install test test-all bench bench-smoke check-memory soak-smoke examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

test-all:
	pytest tests/ -m ""

bench:
	pytest benchmarks/ --benchmark-only

# Self-test of the benchmark (bench/, declared in BENCHMARK.json): every
# workload runs at a tiny size and its outputs are checked, ~10 s. The
# measured run itself is `python3 bench/run.py`.
bench-smoke:
	python -m pytest bench -q

# Constant-memory gate: a sharded deployment sweep in a fresh process
# must stay flat and under the committed RSS budget
# (benchmarks/memory_budget.json; re-record with --update after a
# deliberate change).
check-memory:
	PYTHONPATH=src python benchmarks/check_memory_ceiling.py

# End-to-end kill/resume gate: a real `repro soak` process is SIGTERMed
# mid-run, resumed in a fresh process at different worker/shard counts,
# and its checkpoint artifacts must come out byte-identical to an
# uninterrupted run's.
soak-smoke:
	PYTHONPATH=src python benchmarks/soak_smoke.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
		echo; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
