# Local entry points that mirror the CI jobs exactly
# (.github/workflows/ci.yml). `make test` is the tier-1 gate; `make lint`
# is the static-analysis gate. ruff/mypy are optional-dependency extras
# (`pip install -e .[lint]`) and are skipped with a hint when absent so
# `make lint` works in the minimal environment too.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow test-invariants perf-quick perf-pairs paper-benches chaos-smoke multiprocess-smoke serve-smoke supervision-smoke lint repro-lint ruff mypy all

all: test lint

test:
	$(PYTHON) -m pytest -x -q --durations=10

test-slow:
	$(PYTHON) -m pytest -m slow -q tests/differential tests/properties \
		tests/uplink/test_process_subframes.py tests/experiments/test_full_scale.py \
		tests/sim/test_schedule_bounds.py

test-invariants:
	REPRO_INVARIANTS=1 $(PYTHON) -m pytest -x -q tests/sim tests/obs tests/power tests/experiments \
		tests/faults/test_sim_faults.py tests/faults/test_chaos.py

# The benchmark harness's own tests (not tier-1): a kernel change that
# breaks its bit-exactness check, budget sums or exact counts fails here,
# before the gate runs perf/run.py.
perf-quick:
	$(PYTHON) -m pytest perf -q

# A performance claim (perf/README.md "Stating a claim"): ten alternating
# pairs of perf/run.py on a `git clone` of the parent commit and on this
# checkout, with a verdict per end-to-end metric from BENCHMARK.json's bounds.
# Without WORKLOAD= every workload of BENCHMARK.json runs (~1 h): what a
# change that claims no gain has to show.
#   make perf-pairs PARENT=/path/to/parent-clone [WORKLOAD=paper_mix] SEED=1
SEED ?= 1
PAIRS ?= 10
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<clone of the parent commit> [WORKLOAD=<one workload; default all> SEED=$(SEED) PAIRS=$(PAIRS)]"; exit 2; }
	$(PYTHON) scripts/perf_pairs.py $(PARENT) . $(if $(WORKLOAD),--workload $(WORKLOAD)) --seed $(SEED) --pairs $(PAIRS)

# The paper figure/table checks and the overhead gates (not tier-1, ~2.5 min),
# the calibrate and power-study commands (~10 s), then the profiling
# walkthrough, run in a temp dir that takes its JSON.
paper-benches:
	$(PYTHON) -m pytest benchmarks -q
	$(PYTHON) -m repro calibrate
	$(PYTHON) -m repro power-study --subframes 400
	$(PYTHON) -m repro top --once --subframes 60
	$(PYTHON) -m repro metrics --format prometheus --subframes 60
	cd "$$(mktemp -d)" && PYTHONPATH="$(CURDIR)/src" $(PYTHON) "$(CURDIR)/examples/profiling_timeline.py"
	$(PYTHON) examples/link_level_ber.py
	$(PYTHON) scripts/result_digest.py --workload shared_shape --seed 1

chaos-smoke:
	$(PYTHON) -m repro chaos --scale smoke --seeds 5 --timeout 480

multiprocess-smoke:
	$(PYTHON) -m pytest -x -q tests/sched/test_runtime_contract.py \
		tests/sched/test_multiprocess.py tests/test_spawn_safety.py
	$(PYTHON) -m repro run --backend multiprocess --workers 2 --subframes 8 --verify
	@leaked=$$(ls /dev/shm 2>/dev/null | grep '^psm_'); test -z "$$leaked" || \
		{ echo "shared-memory segments left behind: $$leaked"; exit 1; }
	$(PYTHON) -m pytest -m slow -q tests/differential/test_backends.py -k multiprocess
	$(PYTHON) -m repro chaos --backend multiprocess --scale smoke --seeds 2 --timeout 600

serve-smoke:
	$(PYTHON) -m pytest -x -q tests/sched/test_runtime_contract.py tests/serve
	$(PYTHON) -m repro serve --cells 4 --subframes 40 --no-pace \
		--arrival poisson --rate 2.0 --seed 0 --timeout 300 --json > SERVE_smoke.json
	$(PYTHON) -c "import json; from repro.serve import validate_serve_report; \
		problems = validate_serve_report(json.load(open('SERVE_smoke.json'))); \
		assert not problems, problems; print('serve report: schema OK')"
# Any report resumes: a --max-wall cut's --json-out report is the resume point.
	$(PYTHON) -m repro serve --cells 4 --subframes 40 --no-pace --arrival poisson \
		--rate 2.0 --seed 0 --backpressure block --timeout 300 --max-wall 0.05 \
		--json-out SERVE_cut.json > /dev/null; test $$? -eq 124
	$(PYTHON) -m repro serve --cells 4 --subframes 40 --no-pace --arrival poisson \
		--rate 2.0 --seed 0 --backpressure block --timeout 300 --resume SERVE_cut.json \
		--json-out SERVE_resumed.json > /dev/null
	$(PYTHON) -c "import json; from repro.serve import validate_serve_report; \
		cut, done = (json.load(open(f)) for f in ('SERVE_cut.json', 'SERVE_resumed.json')); \
		problems = validate_serve_report(cut) + validate_serve_report(done); \
		assert not problems, problems; \
		assert cut['terminal_states'].items() <= done['terminal_states'].items(); \
		assert done['checkpoint']['completed'] and done['checkpoint']['segments'] == 2; \
		print('serve: a --json-out cut of %d subframes resumed to %d' \
		% (cut['dispatched'], done['dispatched']))"
	$(PYTHON) -m repro serve --cells 2 --subframes 40 --no-pace \
		--backend threaded --workers 2 --faults --seed 1 --timeout 300
# Batching under backlog never shows: a flood that batches (depth 8) and
# one that cannot (depth 1) account for exactly the same work.
	for depth in 8 1; do \
		$(PYTHON) -m repro serve --cells 2 --subframes 60 --no-pace \
			--synthesize --arrival poisson --rate 2.0 --seed 0 \
			--backpressure block --queue-depth $$depth --timeout 300 \
			--json-out SERVE_depth$$depth.json > /dev/null || exit 1; \
	done
	$(PYTHON) -c "import json; \
		a, b = (json.load(open('SERVE_depth%d.json' % d)) for d in (8, 1)); \
		keys = ('dispatched', 'terminal_counts', 'served_users', 'crc_ok_users', 'ledger_ok'); \
		assert all(a[k] == b[k] for k in keys), [(k, a[k], b[k]) for k in keys]; \
		assert a['ledger_ok'] and a['crc_ok_users'] == a['served_users'] > 0, a; \
		print('serve flood: queue depth 8 == queue depth 1 on', ', '.join(keys))"
# A path that cannot be read or written, or an option value a command
# cannot run with, is a configuration error: one line on stderr and exit
# 2, never a traceback.
	for bad in "serve --resume /no/such/run.ckpt" \
			"serve --trace /no/such/dir/x.jsonl" \
			"trace --from /no/such/trace.jsonl --format chrome" \
			"run --subframes 0" \
			"run --timeout 0 --subframes 1" \
			"trace --ring 0 --subframes 5" \
			"metrics --workers 0 --subframes 5" \
			"top --from /no/such/trace.jsonl"; do \
		err=$$($(PYTHON) -m repro $$bad 2>&1 >/dev/null); code=$$?; \
		echo "repro $$bad -> exit $$code: $$err"; \
		test $$code -eq 2 || exit 1; \
		case "$$err" in *Traceback*) exit 1;; esac; \
	done
	$(PYTHON) -m pytest -m slow -q tests/serve/test_soak.py

supervision-smoke:
	$(PYTHON) -m pytest -x -q tests/serve/test_supervision.py \
		tests/serve/test_checkpoint.py tests/serve/test_overload_properties.py \
		benchmarks/test_supervision_overhead.py
	$(PYTHON) -m repro serve --cells 2 --subframes 100 --no-pace \
		--backend multiprocess --workers 2 --faults --respawn \
		--backpressure block --seed 5 --timeout 600 \
		--json-out SUPERVISION_smoke.json
	$(PYTHON) -c "import json; from repro.serve import validate_serve_report; \
		r = json.load(open('SUPERVISION_smoke.json')); \
		problems = validate_serve_report(r); assert not problems, problems; \
		sup = r['supervisor']; \
		assert r['ledger_ok'] and sup['respawns'] >= 1 and not sup['fail_stop'], sup; \
		print('supervision: %d deaths healed by %d respawns, ledger OK' \
		% (sup['deaths'], sup['respawns']))"
	$(PYTHON) scripts/supervision_smoke.py
	$(PYTHON) -m repro serve --cells 2 --subframes 300 --no-pace \
		--arrival mmtc --adaptive --backpressure block --seed 0 --timeout 300 \
		--json-out ADAPTIVE_smoke.json
	$(PYTHON) -c "import json; from repro.serve import validate_serve_report; \
		r = json.load(open('ADAPTIVE_smoke.json')); \
		problems = validate_serve_report(r); assert not problems, problems; \
		ad = r['adaptive']; \
		assert r['ledger_ok'] and ad['degrades'] >= 1, ad; \
		print('adaptive: %d degrade(s), %d recover(s), ledger OK' \
		% (ad['degrades'], ad['recovers']))"

lint: repro-lint ruff mypy

repro-lint:
	$(PYTHON) -m repro lint src

ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro/analysis src/repro/obs; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/analysis src/repro/obs src/repro/sched src/repro/serve; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi
