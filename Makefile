# Developer entry points for the BurstLink reproduction.

.PHONY: install test bench bench-rows figures examples validate trace \
	golden profile drift long-trace all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-rows:
	pytest benchmarks/ --benchmark-only -s

figures:
	python -m repro figures --out figures

validate:
	python -m repro validate

trace:
	python -m repro trace burstlink --metrics

profile:
	python -m repro profile burstlink

drift:
	python -m repro validate --json

# Re-pin every pinned artifact: traces, spec CSVs, the fleet report and
# the per-exhibit work counts.
golden:
	REPRO_UPDATE_GOLDEN=1 pytest tests/obs/test_golden_traces.py \
		tests/analysis/test_figures.py tests/fleet/test_golden_fleet.py \
		tests/analysis/test_work_counts.py -q

# A 365-day ambient-standby session at 2 Hz (63M screen updates), the
# update rate with the most updates per session, through the summary path
# (summary retention, plan replay and block walking): O(1) memory, and
# time that follows changes of content, not updates.  The paired memory
# gate lives in tests/integration/test_long_trace_memory.py.
long-trace:
	python -m repro standby --duration 31536000 --update-fps 2

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; done

all: test bench
