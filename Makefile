# Convenience wrappers around dune; `make verify` is the one-shot
# pre-push check (build + tests + CLI smoke + quick bench + perf gate).

.PHONY: all build test test-domains bench baseline chaos ledger \
  ledger-baseline analyze-baseline corpus explore-smoke verify clean

all: build

build:
	dune build

test:
	dune runtest

# The whole suite again with every ?domains consumer defaulted to the
# work-stealing parallel explorer (2 workers): the differential
# property, the race oracle, conc-refinement and the chaos battery all
# run on the parallel engines.  CI runs this after the plain suite.
test-domains:
	TFIRIS_DOMAINS=2 dune runtest --force

bench:
	dune exec bench/main.exe

# Refresh the committed quick-mode baseline (run on an idle machine).
baseline:
	dune exec bench/main.exe -- --quick --out=BENCH_obs.json \
	  --save-baseline=BENCH_history/baseline-quick.json

# Seeded fault-injection sweep; deterministic, so any failure is
# reproducible from the seed printed in the report.
chaos: build
	dune exec bin/tfiris_cli.exe -- chaos --seeds=50 --out=CHAOS_report.json

# The canonical ledger corpus: one run-ledger record per
# verdict-producing subcommand, over committed inputs only, so the
# content keys and verdicts are byte-stable across machines (wall times
# are the only thing that varies).  `tfiris report LEDGER.jsonl`
# summarises it; CI diffs a fresh corpus against the committed
# BENCH_history/baseline-ledger.jsonl and fails on verdict flips.
LEDGER ?= LEDGER.jsonl

ledger: build
	rm -f $(LEDGER)
	dune exec bin/tfiris_cli.exe -- run examples/shl/memo_fib.shl --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- run -e "1 + 2 * 3" --engine=lockstep --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- run -e "let r = ref 0 in fork (r := 1); fork (r := !r + 1); !r" --domains=2 --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- check-term -e "(rec f n. if n = 0 then 0 else f (n - 1)) 64" --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- refine --target="1 + 2" --source="3 - 0" --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- analyze examples/shl/memo_fib.shl --ledger=$(LEDGER)
	dune exec bin/tfiris_cli.exe -- chaos --seeds=10 --ledger=$(LEDGER) --out=CHAOS_report.json
	dune exec bin/tfiris_cli.exe -- report $(LEDGER)

# Refresh the committed baseline ledger (after an intentional verdict
# or corpus change; the diff in CI explains itself otherwise).
ledger-baseline:
	$(MAKE) ledger LEDGER=BENCH_history/baseline-ledger.jsonl

# The committed analyzer golden: every finding over the shipped
# examples, in the stable JSON form (sorted, deduplicated, no
# timings), one line.  `make verify` and CI re-run the analyzer and
# diff byte-for-byte, so a new finding — or a silently lost one —
# fails loudly.  Refresh here after an intentional analyzer change and
# review the diff like any other golden.
analyze-baseline: build
	dune exec bin/tfiris_cli.exe -- analyze --format=json-stable \
	  examples/shl/*.shl > BENCH_history/baseline-analyze.json

# Incremental re-verification through the certificate cache: a cold
# sweep over the examples stores one certificate per (program, stage),
# the warm sweep must replay ≥90% of lookups from disk, and `report
# --diff` holds the two ledgers to zero verdict flips — cached replay
# may be faster, never different.  Then the whole-corpus analyze runs
# twice into the same cache (a store, then a replay) and both reports
# must equal the committed golden, so a replayed report is
# golden-checked too.  `make corpus` is self-contained (fresh cache
# each time).  Do not point CACHE at a directory that outlives a source
# change: the content key names the tool version, not the build, so a
# certificate from older code would be replayed as if current.
CACHE ?= .tfiris-cache

corpus: build
	rm -rf $(CACHE) CORPUS_cold.jsonl CORPUS_warm.jsonl
	dune exec bin/tfiris_cli.exe -- verify-corpus examples/shl \
	  --cache=$(CACHE) --ledger=CORPUS_cold.jsonl
	dune exec bin/tfiris_cli.exe -- verify-corpus examples/shl \
	  --cache=$(CACHE) --ledger=CORPUS_warm.jsonl --min-hit-rate=90
	dune exec bin/tfiris_cli.exe -- report --diff CORPUS_cold.jsonl CORPUS_warm.jsonl
	dune exec bin/tfiris_cli.exe -- analyze --format=json-stable \
	  examples/shl/*.shl --cache=$(CACHE) > CORPUS_analyze_cold.json
	dune exec bin/tfiris_cli.exe -- analyze --format=json-stable \
	  examples/shl/*.shl --cache=$(CACHE) > CORPUS_analyze_warm.json \
	  2> CORPUS_analyze_warm.err
	diff -u BENCH_history/baseline-analyze.json CORPUS_analyze_cold.json
	diff -u BENCH_history/baseline-analyze.json CORPUS_analyze_warm.json
	grep -q '^tfiris: cache hit' CORPUS_analyze_warm.err
	dune exec bin/tfiris_cli.exe -- cache stats --cache=$(CACHE)

# Cross-domain explorer smoke: the sequential explorer and the
# 2-domain work-stealing one must print byte-identical stdout on the
# example CAS counter, and that stdout is its one outcome and state
# count.
explore-smoke: build
	dune exec bin/tfiris_cli.exe -- run --domains=1 \
	  examples/shl/conc_locked.shl > EXPLORE_d1.out
	dune exec bin/tfiris_cli.exe -- run --domains=2 \
	  examples/shl/conc_locked.shl > EXPLORE_d2.out
	printf 'final: 2\nstates: 800\n' | diff -u - EXPLORE_d1.out
	diff -u EXPLORE_d1.out EXPLORE_d2.out

# The perf and memory gates compare against a baseline usually
# recorded on a different machine, so both thresholds are deliberately
# loose (4x); use `bench --compare` against a locally saved baseline
# (thresholds 1.3x / 1.5x) for same-machine comparisons.  `dune
# runtest` (via `test`) includes the 4-domain metrics stress tests and
# the concurrent-ledger-append test, so a green verify also certifies
# the domain-safe telemetry core.
verify: build test
	dune exec bin/tfiris_cli.exe -- run --stats --metrics --gc \
	  -e "let r = ref 0 in r := 41; !r + 1"
	dune exec bin/tfiris_cli.exe -- run examples/shl/memo_fib.shl \
	  --gc=TELEMETRY.json
	dune exec bin/tfiris_cli.exe -- analyze --fail-on=error examples/shl/*.shl
	dune exec bin/tfiris_cli.exe -- analyze --format=json-stable \
	  examples/shl/*.shl > ANALYZE.json
	diff -u BENCH_history/baseline-analyze.json ANALYZE.json
	dune exec bin/tfiris_cli.exe -- profile --collapsed=PROFILE.collapsed -- \
	  run examples/shl/memo_fib.shl
	dune exec bin/tfiris_cli.exe -- chaos --seeds=10 --out=CHAOS_report.json
	$(MAKE) corpus
	$(MAKE) explore-smoke
	dune exec bench/main.exe -- --quick --out=BENCH_obs.json \
	  --compare=BENCH_history/baseline-quick.json --threshold=4 \
	  --mem-threshold=4
	@echo "verify: OK"

clean:
	dune clean
