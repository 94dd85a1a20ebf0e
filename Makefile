# Convenience targets for the repro-lrd repository.

PYTHON ?= python

.PHONY: install test selftest lint fuzz fuzz-deep bench figures examples clean

install:
	$(PYTHON) -m pip install -e .[test]

# The tier-1 suite, exactly as CI's "Run tier-1 tests" step runs it.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The benchmark's own tests, as CI's "Benchmark self-tests" step runs them.
selftest:
	$(PYTHON) -m pytest perfbench -q -p no:cacheprovider

# Repo-specific invariant lint (fingerprint/concurrency/numeric/API rules).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro

# Seeded differential/metamorphic verification sweep (same 200 cases the
# test suite runs); failures are minimized and persisted to tests/corpus/.
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --cases 200 --seed 0

# The nightly-scale sweep (5000 cases).  Expect ~10 minutes cold.
fuzz-deep:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --cases 5000 --seed 0

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Regenerate every paper figure as a quick-mode table under benchmarks/results/quick/
figures:
	for n in 2 3 4 5 6 7 8 9 10 11 12 13 14; do \
		$(PYTHON) -m repro figure $$n --quick --out benchmarks/results/quick/fig$$n.txt; \
	done

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
