#!/usr/bin/env python3
"""Perf-smoke gates for the serving path.

Eight modes, selectable per invocation (at least one is required):

--bench + --baseline: runs bench_ablation_codec --json fresh and fails if
the compressed dense-intersection QPS falls below --threshold of the same
run's uncompressed path, or if the memory ratio drops under --min-ratio.
Timing-free fields (intersection cardinalities, WAND top-k equality) are
additionally cross-checked against the committed baseline JSON, which
catches silent correctness rot that QPS alone would miss.

--obs-bench: runs bench_obs_overhead --json fresh and fails if the
instrumented (metrics on, tracing off) QPS drops below --obs-threshold of
the uninstrumented QPS measured in the same interleaved run. Both arms run
on one engine via runtime toggles, so the ratio isolates the cost of the
metrics hot path.

--serving-bench: runs bench_serving --json fresh and fails if, at 4x
saturation, goodput falls below --serving-goodput of the capacity-load
goodput, the admitted-query p99 exceeds the SLO, any tenant's served share
drifts more than --serving-share-tol from its configured weight share, or
the deterministic fault storm did not drive the view-path circuit breaker
through a trip-and-recover cycle.

--pipeline-bench: runs bench_serving --json fresh and fails if the staged
pipeline executor (DESIGN.md §16) lost its edge over the per-query-worker
pool on the shared-hot-context pool: pipelined QPS must hold
--pipeline-qps-floor of the per-query-worker QPS, the pipelined p99 must
stay inside the SLO, the intersect stage must actually have batched
queries, and batching must cut decoded blocks per query to at most
--pipeline-blocks-ceiling of the per-query-worker figure.

--adaptive-bench: runs bench_serving --json fresh and fails if the online
adaptive view cache (DESIGN.md §17) misbehaved on the drifting-Zipf phase:
steady-state hit rate must hold --adaptive-hit-floor, resident view bytes
must never exceed the configured budget, adaptive QPS must hold
--adaptive-qps-floor of the straightforward-plan QPS on the same query
sequence, top-k must stay bit-identical throughout, the drifting hot set
must have forced at least one eviction (so the budget actually bound), and
the cold-context stampede must end with the hot view resident.

--ingest-bench: runs bench_ingest --json fresh and fails if live
ingestion misbehaved: document accounting is inconsistent, any query
failed at any phase, queries never folded view deltas, the merge drain
did not run (or its write amplification exceeds --ingest-max-amp), or
query p99 under concurrent ingest blew past --ingest-p99-factor of the
quiesced p99 (with a --ingest-p99-floor-ms absolute floor so microsecond
baselines don't turn scheduler jitter into failures).

--intersect-bench + --baseline: runs bench_ablation_intersection --json
fresh and fails if the SIMD intersection kernels lose their edge over the
scalar reference kernels measured in the same run: the near-equal pairwise
bucket must hold --intersect-near-floor speedup and the ratio-4096 gallop
bucket --intersect-gallop-floor. The run⋈block walk's SIMD windows must
stay RUN_JOIN_FLOOR times as fast as the scalar window merge on the
run_join section's ratio-8 bucket. Kernel selection (which kernel each
ratio bucket picks), exact result cardinalities of both sections, and the
selector thresholds are cross-checked against the committed baseline,
which catches silent selector or correctness rot that Mv/s alone would
miss. On a
CSR_FORCE_SCALAR build (dispatch_level "scalar") the speedup floors are
skipped — both arms run the same scalar code — but the deterministic
cross-checks still apply.

--context-set-bench: runs bench_fig8_small_contexts --json fresh and
fails if the straightforward plan (DESIGN.md §18) lost its per-query
ContextSet: on the Figure 8 pool, StraightforwardCollectionStats with
every keyword must cost at most CONTEXT_SET_CEILING (2.0) times the same
call with no keywords (its context conjunction alone), both timed query by
query in one run. The two calls must also agree on |D_P| and len(D_P) for
every query, which fails immediately. The same run also times each D_P
build (ContextSet::Build) under an inert ScanGuard and with none; the
guarded builds may cost at most GUARD_OVERHEAD_CEILING (1.15) times the
unguarded ones, since both run the same block kernels.

--self-test: runs this script's own pytest-style unit tests (no pytest
dependency; plain asserts over the pure check functions and the JSON
loading paths) and exits nonzero on any failure. Wired into ctest so the
gate logic itself cannot rot silently.

QPS comparisons are measured on whatever machine runs the suite, so the
checks retry --attempts times before declaring a regression; the
deterministic cross-checks fail immediately.

All failure paths print a one-line FAIL: diagnosis — a missing binary,
unreadable baseline, or malformed JSON must read as a clear gate failure,
never a traceback.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


class GateError(Exception):
    """A gate cannot even run (missing/unreadable/malformed inputs)."""


# Deterministic outputs that must match the committed baseline exactly.
EXACT_KEYS = [
    ("intersection", "dense_mid_result"),
    ("intersection", "dense_dense_result"),
    ("intersection", "skewed_result"),
    ("wand", "identical_topk"),
]


def load_json(path, what):
    """Loads a JSON file with a clear diagnosis instead of a traceback."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise GateError(f"{what} not found: {path}")
    except IsADirectoryError:
        raise GateError(f"{what} is a directory, not a file: {path}")
    except json.JSONDecodeError as e:
        raise GateError(f"{what} is not valid JSON ({path}): {e}")
    except OSError as e:
        raise GateError(f"cannot read {what} ({path}): {e}")


def run_bench(bench):
    """Runs a bench binary with --json and returns the parsed report."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        try:
            subprocess.run([bench, "--json", tmp.name], check=True,
                           stdout=subprocess.DEVNULL)
        except FileNotFoundError:
            raise GateError(f"bench binary not found: {bench}")
        except subprocess.CalledProcessError as e:
            raise GateError(
                f"bench run failed with exit code {e.returncode}: {bench}")
        return load_json(tmp.name, f"bench report from {bench}")


def section(report, name, bench="the bench"):
    """Fetches a report section, diagnosing a schema mismatch clearly."""
    got = report.get(name)
    if not isinstance(got, dict):
        raise GateError(
            f"bench report from {bench} has no '{name}' section — "
            "schema mismatch between the script and the bench binary?")
    return got


def check_fresh(report, threshold, min_ratio):
    """Returns a list of failure strings for one fresh codec run."""
    failures = []
    inter = section(report, "intersection")
    for scenario in ("dense_mid", "dense_dense"):
        unc = inter[f"{scenario}_uncompressed_qps"]
        comp = inter[f"{scenario}_auto_qps"]
        if comp < threshold * unc:
            failures.append(
                f"{scenario}: compressed {comp:.1f} qps < "
                f"{threshold:.2f}x uncompressed {unc:.1f} qps")
    ratio = section(report, "memory")["ratio_uncompressed_over_auto"]
    if ratio < min_ratio:
        failures.append(
            f"memory ratio {ratio:.2f}x < required {min_ratio:.1f}x")
    return failures


def check_exact(report, baseline):
    failures = []
    for sec, key in EXACT_KEYS:
        want = baseline.get(sec, {}).get(key)
        got = report.get(sec, {}).get(key)
        if want is None:
            continue  # baseline predates the field
        if got != want:
            failures.append(
                f"{sec}.{key}: fresh run {got!r} != baseline {want!r}")
    return failures


def check_obs(report, obs_threshold):
    """Returns a list of failure strings for one fresh obs-overhead run."""
    obs = section(report, "obs_overhead")
    ratio = obs["ratio_instrumented_over_uninstrumented"]
    if ratio < obs_threshold:
        return [
            f"obs_overhead ({obs.get('workload', '?')}): instrumented "
            f"{obs['instrumented_qps']:.1f} qps / uninstrumented "
            f"{obs['uninstrumented_qps']:.1f} qps = {ratio:.3f} < "
            f"required {obs_threshold:.2f}"]
    return []


def check_serving(report, goodput_floor, share_tol):
    """Returns a list of failure strings for one fresh serving run."""
    serving = section(report, "serving")
    over = serving["overload"]
    storm = serving["fault_storm"]
    slo = serving["slo_ms"]
    failures = []

    ratio = over["goodput_ratio_vs_capacity"]
    if ratio < goodput_floor:
        failures.append(
            f"overload goodput {over['goodput_qps']:.1f} qps is "
            f"{ratio:.3f}x of capacity goodput "
            f"{serving['capacity']['goodput_qps']:.1f} qps "
            f"(floor {goodput_floor:.2f}x)")

    p99 = over["admitted_p99_ms"]
    if p99 > slo:
        failures.append(
            f"admitted-query p99 {p99:.2f} ms exceeds the "
            f"{slo:.1f} ms SLO under overload")

    for name, t in over["tenants"].items():
        drift = abs(t["served_share"] - t["weight_share"])
        if drift > share_tol:
            failures.append(
                f"tenant '{name}': served share {t['served_share']:.3f}"
                f" vs weight share {t['weight_share']:.3f} "
                f"(drift {drift:.3f} > {share_tol:.2f})")

    if storm["breaker_trips"] < 1:
        failures.append("fault storm never tripped the view-path breaker")
    if storm["breaker_recoveries"] < 1:
        failures.append("view-path breaker never recovered after the storm")
    if storm["breaker_state_final"] != "closed":
        failures.append(
            "breaker finished the storm in state "
            f"'{storm['breaker_state_final']}', expected 'closed'")
    accounted = (storm["ok"] + storm["failed"] + storm["shed"] +
                 storm["rejected"])
    if accounted != storm["queries"]:
        failures.append(
            f"fault storm lost queries: {accounted} accounted vs "
            f"{storm['queries']} issued")
    return failures


def check_pipeline(report, qps_floor, blocks_ceiling):
    """Returns a list of failure strings for one fresh pipeline run."""
    pipe = section(report, "serving", "bench_serving").get("pipeline")
    if not isinstance(pipe, dict):
        raise GateError(
            "bench report has no 'serving.pipeline' section — bench_serving "
            "predates the staged pipeline phase?")
    base = pipe["per_query_worker"]
    staged = pipe["pipelined"]
    slo = pipe["slo_ms"]
    failures = []

    ratio = pipe["qps_ratio"]
    if ratio < qps_floor:
        failures.append(
            f"pipelined {staged['qps']:.1f} qps is {ratio:.3f}x of "
            f"per-query-worker {base['qps']:.1f} qps "
            f"(floor {qps_floor:.2f}x)")

    p99 = staged["p99_ms"]
    if p99 > slo:
        failures.append(
            f"pipelined p99 {p99:.2f} ms exceeds the {slo:.1f} ms SLO")

    if staged["batched_queries"] < 2:
        failures.append(
            "the intersect stage never batched queries sharing terms "
            f"({staged['batches']} batches, all singletons)")

    blocks = pipe["blocks_per_query_ratio"]
    if blocks > blocks_ceiling:
        failures.append(
            f"pipelined decodes {staged['blocks_per_query']:.2f} blocks/"
            f"query = {blocks:.3f}x of per-query-worker "
            f"{base['blocks_per_query']:.2f} "
            f"(ceiling {blocks_ceiling:.2f}x)")
    return failures


def check_adaptive(report, hit_floor, qps_floor):
    """Returns a list of failure strings for one fresh adaptive run.

    Budget ceiling, top-k equality, eviction churn, and stampede
    convergence are load-independent, but they ride the same retry loop
    as the timing-sensitive hit-rate and QPS checks: on a cold or noisy
    machine the drift workload can legitimately land differently, and a
    genuine violation will persist across every attempt anyway.
    """
    ad = section(report, "serving", "bench_serving").get("adaptive")
    if not isinstance(ad, dict):
        raise GateError(
            "bench report has no 'serving.adaptive' section — "
            "bench_serving predates the online view-selection phase?")
    failures = []

    if ad["resident_bytes_max"] > ad["budget_bytes"]:
        failures.append(
            f"resident views peaked at {ad['resident_bytes_max']} bytes, "
            f"over the {ad['budget_bytes']}-byte budget")

    if not ad["topk_identical"]:
        failures.append(
            "adaptive-view top-k diverged from the straightforward plan")

    rate = ad["steady_hit_rate"]
    if rate < hit_floor:
        failures.append(
            f"steady-state hit rate {rate:.3f} is below the "
            f"{hit_floor:.2f} floor")

    ratio = ad["qps_ratio"]
    if ratio < qps_floor:
        failures.append(
            f"adaptive {ad['qps_adaptive']:.1f} qps is {ratio:.3f}x of "
            f"the no-views {ad['qps_no_views']:.1f} qps "
            f"(floor {qps_floor:.2f}x)")

    if ad["evictions"] < 1:
        failures.append(
            "the drifting hot set never forced an eviction — the budget "
            "did not bind, so the phase proved nothing about churn")

    stampede = ad["stampede"]
    if stampede["installs"] < 1 or not stampede["resident"]:
        failures.append(
            f"the cold-context stampede did not converge to a resident "
            f"view ({stampede['cold_misses']} misses, "
            f"{stampede['installs']} installs, "
            f"resident={stampede['resident']})")
    return failures


def check_ingest_exact(report):
    """Deterministic ingest checks — a failure here never retries."""
    ing = section(report, "ingest", "bench_ingest")
    acct = ing["accounting"]
    failures = []
    if not acct["consistent"]:
        failures.append(
            f"doc accounting inconsistent: {acct['total_docs']} total vs "
            f"{ing['base_docs']} base + {ing['appended_docs']} appended "
            f"({acct['counter_appended_docs']} per the ingest counter)")
    for phase, failed in (
            ("quiesced", ing["quiesced"]["failed"]),
            ("concurrent-ingest", ing["ingest_run"]["queries"]["failed"]),
            ("with-deltas", ing["view_deltas"]["with_deltas_failed"]),
            ("flattened", ing["view_deltas"]["flattened_failed"])):
        if failed > 0:
            failures.append(f"{failed} queries failed in the {phase} phase")
    if ing["view_deltas"]["folds"] < 1:
        failures.append(
            "queries never folded a view delta — the concurrent stream "
            "did not exercise the segment view path")
    if ing["merge"]["merges"] < 1:
        failures.append("the merge drain never merged a segment")
    return failures


def check_ingest_perf(report, max_amp, p99_factor, p99_floor_ms):
    """Timing-sensitive ingest checks — retried across attempts."""
    ing = section(report, "ingest", "bench_ingest")
    failures = []
    amp = ing["merge"]["amplification"]
    if amp > max_amp:
        failures.append(
            f"merge write amplification {amp:.2f}x exceeds the "
            f"{max_amp:.1f}x ceiling ({ing['merge']['merged_docs']} docs "
            f"merged for {ing['appended_docs']} appended)")
    run = ing["ingest_run"]
    if run["docs_per_sec"] <= 0:
        failures.append("sustained append rate measured as zero")
    quiesced_p99 = ing["quiesced"]["p99_ms"]
    during_p99 = run["queries"]["p99_ms"]
    allowed = max(p99_factor * quiesced_p99, p99_floor_ms)
    if during_p99 > allowed:
        failures.append(
            f"query p99 under ingest {during_p99:.2f} ms exceeds "
            f"{allowed:.2f} ms (max of {p99_factor:.0f}x quiesced "
            f"{quiesced_p99:.2f} ms and the {p99_floor_ms:.0f} ms floor)")
    return failures


# Ratio buckets emitted by bench_ablation_intersection's intersect_kernels
# section, and the per-bucket fields that are deterministic (fixed seeds).
INTERSECT_BUCKETS = ("near_equal", "ratio_8", "ratio_32", "ratio_64",
                     "ratio_512", "ratio_4096")
INTERSECT_EXACT_FIELDS = ("kernel", "ratio", "rare_size", "freq_size",
                          "result")

# Ratio buckets of the same bench's run_join section (the run⋈block walk
# with its windows through SimdIntersect, timed against the scalar window
# merge it replaced), and their deterministic fields.
RUN_JOIN_BUCKETS = ("ratio_1", "ratio_8", "ratio_64")
RUN_JOIN_EXACT_FIELDS = ("ratio", "run_size", "list_size", "result")

# Smallest allowed SIMD / scalar speedup of the run⋈block walk on its
# ratio-8 bucket. Measured 1.12-1.37x on a 4-vCPU AVX2 guest (ratio 1 read
# 0.89-1.07x, ratio 64 1.00-1.14x): the windows may not fall behind the
# scalar merge where the kernels lead.
RUN_JOIN_FLOOR = 1.0

# Largest allowed straightforward-plan / context-conjunction time ratio on
# the Figure 8 pool (--context-set-bench).
CONTEXT_SET_CEILING = 2.0

# Largest allowed guarded / unguarded D_P build time ratio on the Figure 8
# pool (--context-set-bench): a ScanGuard(0, 0) may cost its batched tick
# charges, not a different kernel.
GUARD_OVERHEAD_CEILING = 1.15


def check_intersect_exact(report, baseline):
    """Deterministic intersect-kernel checks — never retried.

    Kernel choice per ratio bucket, bucket shapes, result cardinalities and
    the selector thresholds are all seed-determined, so any drift from the
    committed baseline is a selector or correctness change, not noise.
    """
    failures = []
    fresh = section(report, "intersect_kernels",
                    "bench_ablation_intersection")
    base = baseline.get("intersect_kernels")
    if not isinstance(base, dict):
        return failures  # baseline predates the section
    for name, want in base.get("thresholds", {}).items():
        got = fresh.get("thresholds", {}).get(name)
        if got != want:
            failures.append(
                f"intersect_kernels.thresholds.{name}: fresh run {got!r} "
                f"!= baseline {want!r}")
    for bucket in INTERSECT_BUCKETS:
        base_bucket = base.get(bucket)
        if not isinstance(base_bucket, dict):
            continue  # baseline predates the bucket
        fresh_bucket = fresh.get(bucket, {})
        for field in INTERSECT_EXACT_FIELDS:
            want = base_bucket.get(field)
            if want is None:
                continue
            got = fresh_bucket.get(field)
            if got != want:
                failures.append(
                    f"intersect_kernels.{bucket}.{field}: fresh run "
                    f"{got!r} != baseline {want!r}")
    base_join = baseline.get("run_join")
    if not isinstance(base_join, dict):
        return failures  # baseline predates the section
    fresh_join = section(report, "run_join", "bench_ablation_intersection")
    for bucket in RUN_JOIN_BUCKETS:
        for field in RUN_JOIN_EXACT_FIELDS:
            want = base_join.get(bucket, {}).get(field)
            got = fresh_join.get(bucket, {}).get(field)
            if got != want:
                failures.append(
                    f"run_join.{bucket}.{field}: fresh run {got!r} != "
                    f"baseline {want!r}")
    return failures


def check_intersect_perf(report, near_floor, gallop_floor):
    """Timing-sensitive intersect-kernel checks — retried across attempts."""
    fresh = section(report, "intersect_kernels",
                    "bench_ablation_intersection")
    failures = []
    for bucket in INTERSECT_BUCKETS:
        b = fresh[bucket]
        if b["scalar_mvs"] <= 0 or b["simd_mvs"] <= 0:
            failures.append(
                f"{bucket}: non-positive throughput (scalar "
                f"{b['scalar_mvs']}, simd {b['simd_mvs']} Mv/s)")
    if fresh["dispatch_level"] == "scalar":
        # CSR_FORCE_SCALAR build: both arms run the same kernels, so a
        # speedup floor would only gate measurement noise.
        return failures
    for bucket, floor in (("near_equal", near_floor),
                          ("ratio_4096", gallop_floor)):
        b = fresh[bucket]
        if b["speedup"] < floor:
            failures.append(
                f"{bucket} ({b['kernel']}, {fresh['dispatch_level']}): "
                f"simd {b['simd_mvs']:.1f} Mv/s is {b['speedup']:.2f}x "
                f"scalar {b['scalar_mvs']:.1f} Mv/s (floor {floor:.1f}x)")
    b = section(report, "run_join", "bench_ablation_intersection")["ratio_8"]
    if b["speedup"] < RUN_JOIN_FLOOR:
        failures.append(
            f"run_join.ratio_8 ({fresh['dispatch_level']}): simd windows "
            f"{b['simd_qps']:.0f} qps are {b['speedup']:.2f}x the scalar "
            f"merge's {b['scalar_qps']:.0f} (floor {RUN_JOIN_FLOOR:.1f}x)")
    return failures


def check_context_set_exact(report):
    """Deterministic part of the context-set gate: no query may report a
    different |D_P| or len(D_P) with keywords than without, and the pool
    must not be empty."""
    cs = section(report, "context_set")
    failures = []
    if cs["queries"] == 0:
        failures.append("context_set: the Figure 8 pool is empty")
    if cs["cardinality_mismatches"] != 0:
        failures.append(
            f"context_set: {cs['cardinality_mismatches']} queries changed "
            f"|D_P| or len(D_P) when keywords were added")
    return failures


def check_context_set(report):
    """Returns a list of failure strings for one fresh Figure 8 probe run."""
    cs = section(report, "context_set")
    if "guarded_over_unguarded" not in cs:
        raise GateError(
            "context_set section has no 'guarded_over_unguarded' field — "
            "bench_fig8_small_contexts predates the guard-overhead probe?")
    failures = []
    ratio = cs["straightforward_over_conj"]
    if ratio > CONTEXT_SET_CEILING:
        failures.append(
            f"context_set ({cs.get('workload', '?')}): straightforward "
            f"{cs['straightforward_ms_mean']:.4f} ms / conjunction "
            f"{cs['conj_ms_mean']:.4f} ms = {ratio:.2f} > allowed "
            f"{CONTEXT_SET_CEILING:.2f}")
    guard_ratio = cs["guarded_over_unguarded"]
    if guard_ratio > GUARD_OVERHEAD_CEILING:
        failures.append(
            f"context_set ({cs.get('workload', '?')}): D_P build under an "
            f"inert ScanGuard costs {guard_ratio:.2f}x the unguarded build "
            f"> allowed {GUARD_OVERHEAD_CEILING:.2f}")
    return failures


def retry_gate(label, attempts, run_once, on_ok):
    """Shared retry loop for the timing-sensitive gates."""
    for attempt in range(1, attempts + 1):
        report, failures = run_once()
        if failures is None:  # deterministic cross-check failed
            return 1
        if not failures:
            on_ok(report, attempt)
            return 0
        print(f"attempt {attempt}/{attempts} failed:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
    print(f"FAIL: {label} regression persisted across "
          f"{attempts} attempts", file=sys.stderr)
    return 1


def run_codec_gate(args):
    baseline = load_json(args.baseline, "baseline")

    def once():
        report = run_bench(args.bench)
        exact = check_exact(report, baseline)
        if exact:
            for msg in exact:
                print(f"FAIL: {msg}", file=sys.stderr)
            return report, None
        return report, check_fresh(report, args.threshold, args.min_ratio)

    def ok(report, attempt):
        print(f"perf smoke OK (attempt {attempt}/{args.attempts}): "
              f"dense_mid {report['intersection']['dense_mid_auto_qps']:.1f}"
              f" vs {report['intersection']['dense_mid_uncompressed_qps']:.1f}"
              f" qps uncompressed, ratio "
              f"{report['memory']['ratio_uncompressed_over_auto']:.2f}x")

    return retry_gate("perf smoke", args.attempts, once, ok)


def run_intersect_gate(args):
    baseline = load_json(args.baseline, "baseline")

    def once():
        report = run_bench(args.intersect_bench)
        exact = check_intersect_exact(report, baseline)
        if exact:
            for msg in exact:
                print(f"FAIL: {msg}", file=sys.stderr)
            return report, None
        return report, check_intersect_perf(
            report, args.intersect_near_floor, args.intersect_gallop_floor)

    def ok(report, attempt):
        k = report["intersect_kernels"]
        print(f"intersect gate OK (attempt {attempt}/{args.attempts}, "
              f"{k['dispatch_level']}): near_equal "
              f"{k['near_equal']['speedup']:.2f}x, ratio_4096 "
              f"{k['ratio_4096']['speedup']:.2f}x vs scalar "
              f"({k['near_equal']['simd_mvs']:.0f} / "
              f"{k['ratio_4096']['simd_mvs']:.0f} Mv/s)")

    return retry_gate("intersect kernels", args.attempts, once, ok)


def run_obs_gate(args):
    def once():
        report = run_bench(args.obs_bench)
        return report, check_obs(report, args.obs_threshold)

    def ok(report, attempt):
        obs = report["obs_overhead"]
        print(f"obs overhead OK (attempt {attempt}/{args.attempts}): "
              f"instrumented {obs['instrumented_qps']:.1f} qps vs "
              f"{obs['uninstrumented_qps']:.1f} uninstrumented "
              f"(ratio {obs['ratio_instrumented_over_uninstrumented']:.3f}"
              f", traced {obs['traced_qps']:.1f})")

    return retry_gate("obs overhead", args.attempts, once, ok)


def run_serving_gate(args):
    def once():
        report = run_bench(args.serving_bench)
        return report, check_serving(report, args.serving_goodput,
                                     args.serving_share_tol)

    def ok(report, attempt):
        s = report["serving"]
        over = s["overload"]
        storm = s["fault_storm"]
        print(f"serving gate OK (attempt {attempt}/{args.attempts}): "
              f"overload goodput {over['goodput_qps']:.1f} qps "
              f"({over['goodput_ratio_vs_capacity']:.2f}x capacity), "
              f"admitted p99 {over['admitted_p99_ms']:.2f} ms "
              f"(SLO {s['slo_ms']:.1f}), breaker trips "
              f"{storm['breaker_trips']} / recoveries "
              f"{storm['breaker_recoveries']}")

    return retry_gate("serving", args.attempts, once, ok)


def run_pipeline_gate(args):
    def once():
        report = run_bench(args.pipeline_bench)
        return report, check_pipeline(report, args.pipeline_qps_floor,
                                      args.pipeline_blocks_ceiling)

    def ok(report, attempt):
        pipe = report["serving"]["pipeline"]
        staged = pipe["pipelined"]
        print(f"pipeline gate OK (attempt {attempt}/{args.attempts}): "
              f"pipelined {staged['qps']:.1f} qps "
              f"({pipe['qps_ratio']:.2f}x per-query-worker), p99 "
              f"{staged['p99_ms']:.2f} ms (SLO {pipe['slo_ms']:.1f}), "
              f"{staged['blocks_per_query']:.2f} blocks/query "
              f"({pipe['blocks_per_query_ratio']:.2f}x), "
              f"{staged['batched_queries']} queries batched across "
              f"{staged['batches']} batches (max {staged['max_batch']})")

    return retry_gate("pipeline", args.attempts, once, ok)


def run_adaptive_gate(args):
    def once():
        report = run_bench(args.adaptive_bench)
        return report, check_adaptive(report, args.adaptive_hit_floor,
                                      args.adaptive_qps_floor)

    def ok(report, attempt):
        ad = report["serving"]["adaptive"]
        print(f"adaptive gate OK (attempt {attempt}/{args.attempts}): "
              f"steady hit rate {ad['steady_hit_rate']:.2f}, "
              f"{ad['qps_adaptive']:.1f} qps adaptive "
              f"({ad['qps_ratio']:.2f}x no-views), resident max "
              f"{ad['resident_bytes_max']} of {ad['budget_bytes']} budget "
              f"bytes, {ad['installs']} installs / {ad['evictions']} "
              f"evictions, stampede {ad['stampede']['installs']} "
              f"install(s)")

    return retry_gate("adaptive", args.attempts, once, ok)


def run_ingest_gate(args):
    def once():
        report = run_bench(args.ingest_bench)
        exact = check_ingest_exact(report)
        if exact:
            for msg in exact:
                print(f"FAIL: {msg}", file=sys.stderr)
            return report, None
        return report, check_ingest_perf(
            report, args.ingest_max_amp, args.ingest_p99_factor,
            args.ingest_p99_floor_ms)

    def ok(report, attempt):
        ing = report["ingest"]
        print(f"ingest gate OK (attempt {attempt}/{args.attempts}): "
              f"{ing['ingest_run']['docs_per_sec']:.0f} docs/s sustained, "
              f"query p99 {ing['ingest_run']['queries']['p99_ms']:.2f} ms "
              f"under ingest vs {ing['quiesced']['p99_ms']:.2f} quiesced, "
              f"amplification {ing['merge']['amplification']:.2f}x, "
              f"fold overhead "
              f"{ing['view_deltas']['fold_overhead_ratio']:.2f}x")

    return retry_gate("ingest", args.attempts, once, ok)


def run_context_set_gate(args):
    def once():
        report = run_bench(args.context_set_bench)
        exact = check_context_set_exact(report)
        if exact:
            for msg in exact:
                print(f"FAIL: {msg}", file=sys.stderr)
            return report, None
        return report, check_context_set(report)

    def ok(report, attempt):
        cs = report["context_set"]
        print(f"context-set gate OK (attempt {attempt}/{args.attempts}): "
              f"straightforward {cs['straightforward_ms_mean']:.4f} ms vs "
              f"conjunction {cs['conj_ms_mean']:.4f} ms = "
              f"{cs['straightforward_over_conj']:.2f}x, guarded D_P build "
              f"{cs['guarded_over_unguarded']:.2f}x unguarded, over "
              f"{cs['queries']} Figure 8 queries")

    return retry_gate("context set", args.attempts, once, ok)


# ---------------------------------------------------------------------------
# Self-test (pytest-style test_* functions over the pure pieces; run with
# --self-test, wired into ctest).
# ---------------------------------------------------------------------------

def _serving_report(**overrides):
    """A minimal passing serving report; overrides poke failures in."""
    over = {
        "goodput_qps": 90.0, "goodput_ratio_vs_capacity": 0.9,
        "admitted_p99_ms": 25.0,
        "tenants": {
            "a": {"served_share": 0.52, "weight_share": 0.5},
            "b": {"served_share": 0.48, "weight_share": 0.5},
        },
    }
    storm = {
        "queries": 100, "ok": 85, "failed": 5, "shed": 5,
        "rejected": 5, "breaker_trips": 2, "breaker_recoveries": 2,
        "breaker_state_final": "closed",
    }
    serving = {
        "slo_ms": 30.0, "capacity": {"goodput_qps": 100.0},
        "overload": over, "fault_storm": storm,
    }
    for key, value in overrides.items():
        holder = (over if key in over else
                  storm if key in storm else serving)
        holder[key] = value
    return {"serving": serving}


def test_load_json_missing_file_is_gate_error():
    try:
        load_json("/nonexistent/definitely/missing.json", "baseline")
    except GateError as e:
        assert "not found" in str(e)
    else:
        raise AssertionError("missing file did not raise GateError")


def test_load_json_malformed_is_gate_error():
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tmp:
        tmp.write("{not valid json")
        path = tmp.name
    try:
        load_json(path, "bench report")
    except GateError as e:
        assert "not valid JSON" in str(e)
    else:
        raise AssertionError("malformed JSON did not raise GateError")
    finally:
        os.unlink(path)


def test_missing_bench_binary_is_gate_error():
    try:
        run_bench("/nonexistent/bench_binary")
    except GateError as e:
        assert "not found" in str(e)
    else:
        raise AssertionError("missing binary did not raise GateError")


def test_missing_section_is_gate_error():
    try:
        section({"other": {}}, "serving", "bench_serving")
    except GateError as e:
        assert "serving" in str(e)
    else:
        raise AssertionError("missing section did not raise GateError")


def test_serving_passes_on_good_report():
    assert check_serving(_serving_report(), 0.8, 0.10) == []


def test_serving_fails_on_low_goodput():
    fails = check_serving(
        _serving_report(goodput_ratio_vs_capacity=0.5), 0.8, 0.10)
    assert any("goodput" in f for f in fails), fails


def test_serving_fails_on_p99_over_slo():
    fails = check_serving(_serving_report(admitted_p99_ms=31.0), 0.8, 0.10)
    assert any("p99" in f for f in fails), fails


def test_serving_fails_on_share_drift():
    fails = check_serving(_serving_report(tenants={
        "a": {"served_share": 0.8, "weight_share": 0.5},
        "b": {"served_share": 0.2, "weight_share": 0.5},
    }), 0.8, 0.10)
    assert any("drift" in f for f in fails), fails


def test_serving_fails_without_breaker_cycle():
    fails = check_serving(_serving_report(breaker_trips=0), 0.8, 0.10)
    assert any("never tripped" in f for f in fails), fails
    fails = check_serving(
        _serving_report(breaker_state_final="open"), 0.8, 0.10)
    assert any("state" in f for f in fails), fails


def test_serving_fails_on_lost_queries():
    fails = check_serving(_serving_report(ok=1), 0.8, 0.10)
    assert any("lost queries" in f for f in fails), fails


def _pipeline_report(**overrides):
    """A minimal passing pipeline report; overrides poke failures in."""
    base = {"qps": 100.0, "ok": 576, "p99_ms": 20.0,
            "blocks_per_query": 40.0}
    staged = {"qps": 130.0, "ok": 576, "p99_ms": 22.0,
              "blocks_per_query": 20.0, "batches": 150,
              "batched_queries": 400, "max_batch": 8,
              "arena_hits": 900, "arena_misses": 300}
    pipe = {
        "slo_ms": 30.0, "per_query_worker": base, "pipelined": staged,
        "qps_ratio": 1.3, "blocks_per_query_ratio": 0.5,
    }
    for key, value in overrides.items():
        holder = (base if key in base and key not in staged else
                  staged if key in staged else pipe)
        holder[key] = value
    return {"serving": {"pipeline": pipe}}


def test_pipeline_passes_on_good_report():
    assert check_pipeline(_pipeline_report(), 1.15, 0.8) == []


def test_pipeline_fails_below_qps_floor():
    fails = check_pipeline(_pipeline_report(qps_ratio=1.05), 1.15, 0.8)
    assert any("floor" in f for f in fails), fails


def test_pipeline_fails_on_p99_over_slo():
    fails = check_pipeline(_pipeline_report(p99_ms=31.0), 1.15, 0.8)
    assert any("SLO" in f for f in fails), fails


def test_pipeline_fails_without_batching():
    fails = check_pipeline(_pipeline_report(batched_queries=0), 1.15, 0.8)
    assert any("never batched" in f for f in fails), fails


def test_pipeline_fails_on_blocks_over_ceiling():
    fails = check_pipeline(
        _pipeline_report(blocks_per_query_ratio=0.95), 1.15, 0.8)
    assert any("ceiling" in f for f in fails), fails


def test_pipeline_missing_section_is_gate_error():
    try:
        check_pipeline({"serving": {}}, 1.15, 0.8)
    except GateError as e:
        assert "pipeline" in str(e)
    else:
        raise AssertionError("missing section did not raise GateError")


def _adaptive_report(**overrides):
    """A minimal passing adaptive report; overrides poke failures in.

    Pass a full dict as `stampede=` to override the nested object.
    """
    ad = {
        "num_docs": 8000, "contexts": 10,
        "budget_bytes": 60000, "view_bytes_total": 110000,
        "resident_bytes_max": 54000,
        "steady_hit_rate": 0.66,
        "qps_no_views": 8000.0, "qps_adaptive": 15200.0,
        "qps_ratio": 1.9, "topk_identical": True,
        "installs": 9, "evictions": 5, "refreshes": 0,
        "rejected_budget": 40,
        "hit_rate_by_batch": {"0": 0.0, "1": 0.55},
        "stampede": {"cold_misses": 80, "installs": 1, "resident": True},
    }
    ad.update(overrides)
    return {"serving": {"adaptive": ad}}


def test_adaptive_passes_on_good_report():
    assert check_adaptive(_adaptive_report(), 0.5, 1.2) == []


def test_adaptive_fails_below_hit_floor():
    fails = check_adaptive(_adaptive_report(steady_hit_rate=0.31), 0.5, 1.2)
    assert any("hit rate" in f for f in fails), fails


def test_adaptive_fails_on_budget_breach():
    fails = check_adaptive(
        _adaptive_report(resident_bytes_max=60001), 0.5, 1.2)
    assert any("budget" in f for f in fails), fails


def test_adaptive_fails_on_topk_mismatch():
    fails = check_adaptive(_adaptive_report(topk_identical=False), 0.5, 1.2)
    assert any("diverged" in f for f in fails), fails


def test_adaptive_fails_below_qps_floor():
    fails = check_adaptive(_adaptive_report(qps_ratio=1.1), 0.5, 1.2)
    assert any("floor 1.20x" in f for f in fails), fails


def test_adaptive_fails_without_evictions():
    fails = check_adaptive(_adaptive_report(evictions=0), 0.5, 1.2)
    assert any("eviction" in f for f in fails), fails


def test_adaptive_fails_on_unresolved_stampede():
    fails = check_adaptive(
        _adaptive_report(
            stampede={"cold_misses": 80, "installs": 0,
                      "resident": False}),
        0.5, 1.2)
    assert any("stampede" in f for f in fails), fails


def test_adaptive_missing_section_is_gate_error():
    try:
        check_adaptive({"serving": {}}, 0.5, 1.2)
    except GateError as e:
        assert "adaptive" in str(e)
    else:
        raise AssertionError("missing section did not raise GateError")


def _ingest_report(**overrides):
    """A minimal passing ingest report; overrides poke failures in."""
    run = {
        "docs_per_sec": 5000.0,
        "queries": {"failed": 0, "p99_ms": 4.0},
    }
    ing = {
        "base_docs": 40000, "appended_docs": 20000,
        "accounting": {"consistent": True, "total_docs": 60000,
                       "counter_appended_docs": 20000},
        "quiesced": {"failed": 0, "p99_ms": 2.0},
        "ingest_run": run,
        "merge": {"merges": 5, "merged_docs": 30000,
                  "amplification": 1.5},
        "view_deltas": {"folds": 200, "with_deltas_failed": 0,
                        "flattened_failed": 0,
                        "fold_overhead_ratio": 1.2},
    }
    for key, value in overrides.items():
        holder = run if key in run else ing
        holder[key] = value
    return {"ingest": ing}


def test_ingest_passes_on_good_report():
    assert check_ingest_exact(_ingest_report()) == []
    assert check_ingest_perf(_ingest_report(), 8.0, 20.0, 50.0) == []


def test_ingest_fails_on_inconsistent_accounting():
    fails = check_ingest_exact(_ingest_report(accounting={
        "consistent": False, "total_docs": 59000,
        "counter_appended_docs": 19000}))
    assert any("accounting" in f for f in fails), fails


def test_ingest_fails_on_failed_queries():
    fails = check_ingest_exact(
        _ingest_report(quiesced={"failed": 3, "p99_ms": 2.0}))
    assert any("failed in the quiesced" in f for f in fails), fails
    fails = check_ingest_exact(
        _ingest_report(queries={"failed": 1, "p99_ms": 4.0}))
    assert any("concurrent-ingest" in f for f in fails), fails


def test_ingest_fails_without_folds_or_merges():
    fails = check_ingest_exact(_ingest_report(view_deltas={
        "folds": 0, "with_deltas_failed": 0, "flattened_failed": 0,
        "fold_overhead_ratio": 1.0}))
    assert any("never folded" in f for f in fails), fails
    fails = check_ingest_exact(_ingest_report(merge={
        "merges": 0, "merged_docs": 0, "amplification": 0.0}))
    assert any("never merged" in f for f in fails), fails


def test_ingest_fails_on_high_amplification():
    fails = check_ingest_perf(_ingest_report(merge={
        "merges": 5, "merged_docs": 200000, "amplification": 10.0}),
        8.0, 20.0, 50.0)
    assert any("amplification" in f for f in fails), fails


def test_ingest_p99_floor_absorbs_jitter_on_tiny_baselines():
    # quiesced p99 2 ms, during-ingest p99 45 ms: 20x factor alone would
    # fail (allowed 40 ms) but the 50 ms floor keeps it green...
    report = _ingest_report(
        queries={"failed": 0, "p99_ms": 45.0, }, docs_per_sec=5000.0)
    assert check_ingest_perf(report, 8.0, 20.0, 50.0) == []
    # ...while a p99 past both factor and floor still fails.
    report = _ingest_report(queries={"failed": 0, "p99_ms": 80.0})
    fails = check_ingest_perf(report, 8.0, 20.0, 50.0)
    assert any("p99 under ingest" in f for f in fails), fails


def _intersect_report(dispatch_level="avx2", **overrides):
    """A minimal passing intersect report; overrides poke failures in."""
    kernels = {"near_equal": "pairwise", "ratio_8": "pairwise",
               "ratio_32": "pairwise", "ratio_64": "wide_probe",
               "ratio_512": "wide_probe", "ratio_4096": "gallop"}
    sec = {
        "dispatch_level": dispatch_level,
        "thresholds": {"gallop_ratio": 16, "wide_probe_ratio": 50,
                       "simd_gallop_ratio": 1000},
    }
    for bucket, kernel in kernels.items():
        sec[bucket] = {"kernel": kernel, "ratio": 1, "rare_size": 1000,
                       "freq_size": 1000, "result": 500,
                       "scalar_mvs": 100.0, "simd_mvs": 300.0,
                       "speedup": 3.0}
    for key, value in overrides.items():
        bucket, field = key.rsplit("_", 1)
        sec[bucket][field] = value
    run_join = {}
    for ratio in (1, 8, 64):
        run_join[f"ratio_{ratio}"] = {
            "ratio": ratio, "run_size": 1000 // ratio, "list_size": 1000,
            "result": 300 // ratio, "scalar_qps": 100.0, "simd_qps": 150.0,
            "speedup": 1.5}
    return {"intersect_kernels": sec, "run_join": run_join}


def test_intersect_passes_on_good_report():
    report = _intersect_report()
    assert check_intersect_exact(report, report) == []
    assert check_intersect_perf(report, 1.3, 2.0) == []


def test_intersect_fails_below_speedup_floors():
    fails = check_intersect_perf(
        _intersect_report(near_equal_speedup=1.1), 1.3, 2.0)
    assert any("near_equal" in f and "floor" in f for f in fails), fails
    fails = check_intersect_perf(
        _intersect_report(ratio_4096_speedup=1.5), 1.3, 2.0)
    assert any("ratio_4096" in f for f in fails), fails


def test_intersect_fails_below_run_join_floor():
    report = _intersect_report()
    report["run_join"]["ratio_8"]["speedup"] = 0.9
    fails = check_intersect_perf(report, 1.3, 2.0)
    assert any("run_join.ratio_8" in f and "floor" in f for f in fails), fails
    # A scalar build runs the same kernels on both arms: no floor.
    report["intersect_kernels"]["dispatch_level"] = "scalar"
    assert check_intersect_perf(report, 1.3, 2.0) == []


def test_intersect_exact_flags_run_join_drift():
    base = _intersect_report()
    drift = _intersect_report()
    drift["run_join"]["ratio_8"]["result"] = 38
    fails = check_intersect_exact(drift, base)
    assert any("run_join.ratio_8.result" in f for f in fails), fails
    # A baseline without the section predates it.
    del base["run_join"]
    assert check_intersect_exact(drift, base) == []


def test_intersect_scalar_build_skips_speedup_floors():
    # CSR_FORCE_SCALAR: speedup ~1.0 everywhere must not fail the gate.
    report = _intersect_report(dispatch_level="scalar",
                               near_equal_speedup=1.0,
                               ratio_4096_speedup=1.0)
    assert check_intersect_perf(report, 1.3, 2.0) == []


def test_intersect_zero_throughput_fails_even_on_scalar():
    report = _intersect_report(dispatch_level="scalar")
    report["intersect_kernels"]["ratio_512"]["simd_mvs"] = 0.0
    fails = check_intersect_perf(report, 1.3, 2.0)
    assert any("non-positive" in f for f in fails), fails


def test_intersect_exact_flags_kernel_and_result_drift():
    base = _intersect_report()
    drift = _intersect_report()
    drift["intersect_kernels"]["ratio_64"]["kernel"] = "gallop"
    fails = check_intersect_exact(drift, base)
    assert any("ratio_64.kernel" in f for f in fails), fails
    drift = _intersect_report()
    drift["intersect_kernels"]["near_equal"]["result"] = 501
    fails = check_intersect_exact(drift, base)
    assert any("near_equal.result" in f for f in fails), fails
    drift = _intersect_report()
    drift["intersect_kernels"]["thresholds"]["wide_probe_ratio"] = 64
    fails = check_intersect_exact(drift, base)
    assert any("thresholds.wide_probe_ratio" in f for f in fails), fails


def test_intersect_exact_tolerates_older_baseline():
    # A baseline without the section (or with fewer buckets) predates the
    # kernels and must not fail the gate.
    assert check_intersect_exact(_intersect_report(), {"bench": "x"}) == []
    base = _intersect_report()
    del base["intersect_kernels"]["ratio_512"]
    assert check_intersect_exact(_intersect_report(), base) == []


def test_exact_cross_check_flags_mismatch():
    base = {"wand": {"identical_topk": True}}
    assert check_exact({"wand": {"identical_topk": True}}, base) == []
    fails = check_exact({"wand": {"identical_topk": False}}, base)
    assert len(fails) == 1 and "identical_topk" in fails[0]


def _context_set_report(**overrides):
    cs = {
        "workload": "fig8_small_contexts",
        "queries": 200,
        "conj_ms_mean": 0.10,
        "straightforward_ms_mean": 0.14,
        "straightforward_over_conj": 1.4,
        "cardinality_mismatches": 0,
        "unguarded_build_ms_mean": 0.05,
        "guarded_build_ms_mean": 0.052,
        "guarded_over_unguarded": 1.04,
    }
    cs.update(overrides)
    return {"context_set": cs}


def test_context_set_passes_on_good_report():
    report = _context_set_report()
    assert check_context_set_exact(report) == []
    assert check_context_set(report) == []


def test_context_set_fails_above_ceiling():
    fails = check_context_set(
        _context_set_report(straightforward_over_conj=4.8))
    assert len(fails) == 1 and "4.80 > allowed 2.00" in fails[0], fails


def test_context_set_guard_overhead_passes_at_ceiling():
    report = _context_set_report(guarded_over_unguarded=GUARD_OVERHEAD_CEILING)
    assert check_context_set(report) == []


def test_context_set_guard_overhead_fails_above_ceiling():
    fails = check_context_set(
        _context_set_report(guarded_over_unguarded=1.8))
    assert len(fails) == 1 and "1.80x the unguarded build" in fails[0], fails
    assert "allowed 1.15" in fails[0], fails


def test_context_set_both_ratios_fail_together():
    fails = check_context_set(_context_set_report(
        straightforward_over_conj=4.8, guarded_over_unguarded=1.8))
    assert len(fails) == 2, fails


def test_context_set_missing_guard_field_is_gate_error():
    report = _context_set_report()
    del report["context_set"]["guarded_over_unguarded"]
    try:
        check_context_set(report)
    except GateError as e:
        assert "guarded_over_unguarded" in str(e)
    else:
        raise AssertionError("expected GateError")


def test_context_set_exact_flags_mismatch_and_empty_pool():
    fails = check_context_set_exact(
        _context_set_report(cardinality_mismatches=3))
    assert len(fails) == 1 and "3 queries" in fails[0], fails
    fails = check_context_set_exact(_context_set_report(queries=0))
    assert len(fails) == 1 and "empty" in fails[0], fails


def test_context_set_missing_section_is_gate_error():
    try:
        check_context_set({"serving": {}})
    except GateError as e:
        assert "context_set" in str(e)
    else:
        raise AssertionError("expected GateError")


def run_self_test():
    tests = sorted(
        (name, fn) for name, fn in globals().items()
        if name.startswith("test_") and callable(fn))
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"  PASS {name}")
        except AssertionError as e:
            failed += 1
            print(f"  FAIL {name}: {e}", file=sys.stderr)
    total = len(tests)
    if failed:
        print(f"self-test: {failed}/{total} FAILED", file=sys.stderr)
        return 1
    print(f"self-test: {total}/{total} passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench",
                    help="path to the bench_ablation_codec binary")
    ap.add_argument("--baseline",
                    help="committed BENCH_postings.json (with --bench)")
    ap.add_argument("--obs-bench",
                    help="path to the bench_obs_overhead binary")
    ap.add_argument("--serving-bench",
                    help="path to the bench_serving binary")
    ap.add_argument("--ingest-bench",
                    help="path to the bench_ingest binary")
    ap.add_argument("--pipeline-bench",
                    help="path to the bench_serving binary (pipeline gate)")
    ap.add_argument("--adaptive-bench",
                    help="path to the bench_serving binary (adaptive "
                         "view-cache gate)")
    ap.add_argument("--intersect-bench",
                    help="path to the bench_ablation_intersection binary")
    ap.add_argument("--context-set-bench",
                    help="path to the bench_fig8_small_contexts binary")
    ap.add_argument("--attempts", type=int, default=3)
    ap.add_argument("--threshold", type=float, default=0.95)
    ap.add_argument("--min-ratio", type=float, default=7.0)
    ap.add_argument("--obs-threshold", type=float, default=0.95)
    ap.add_argument("--serving-goodput", type=float, default=0.8,
                    help="overload goodput floor as a fraction of "
                         "capacity-load goodput")
    ap.add_argument("--serving-share-tol", type=float, default=0.10,
                    help="max |served share - weight share| per tenant")
    ap.add_argument("--ingest-max-amp", type=float, default=8.0,
                    help="merge write-amplification ceiling "
                         "(merged docs / appended docs)")
    ap.add_argument("--ingest-p99-factor", type=float, default=20.0,
                    help="allowed query-p99 inflation under concurrent "
                         "ingest, as a multiple of the quiesced p99")
    ap.add_argument("--ingest-p99-floor-ms", type=float, default=50.0,
                    help="absolute query-p99 allowance under ingest, "
                         "whichever of factor/floor is larger wins")
    ap.add_argument("--pipeline-qps-floor", type=float, default=1.15,
                    help="pipelined-over-per-query-worker QPS floor on "
                         "the shared-hot-context pool")
    ap.add_argument("--pipeline-blocks-ceiling", type=float, default=0.8,
                    help="max pipelined decoded-blocks-per-query as a "
                         "fraction of the per-query-worker figure")
    ap.add_argument("--adaptive-hit-floor", type=float, default=0.5,
                    help="steady-state adaptive view-cache hit-rate floor "
                         "on the drifting-Zipf workload")
    ap.add_argument("--adaptive-qps-floor", type=float, default=1.2,
                    help="adaptive-over-straightforward QPS floor on the "
                         "fixed post-drift query sequence")
    ap.add_argument("--intersect-near-floor", type=float, default=1.3,
                    help="SIMD-over-scalar speedup floor for the "
                         "near-equal pairwise bucket")
    ap.add_argument("--intersect-gallop-floor", type=float, default=2.0,
                    help="SIMD-over-scalar speedup floor for the "
                         "ratio-4096 gallop bucket")
    ap.add_argument("--self-test", action="store_true",
                    help="run this script's own unit tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return run_self_test()

    if (not args.bench and not args.obs_bench and not args.serving_bench
            and not args.ingest_bench and not args.intersect_bench
            and not args.pipeline_bench and not args.adaptive_bench
            and not args.context_set_bench):
        ap.error("one of --bench, --obs-bench, --serving-bench, "
                 "--ingest-bench, --pipeline-bench, --adaptive-bench, "
                 "--intersect-bench or --context-set-bench is required")
    if (args.bench or args.intersect_bench) and not args.baseline:
        ap.error("--bench/--intersect-bench require --baseline")

    gates = []
    if args.bench:
        gates.append(run_codec_gate)
    if args.obs_bench:
        gates.append(run_obs_gate)
    if args.serving_bench:
        gates.append(run_serving_gate)
    if args.ingest_bench:
        gates.append(run_ingest_gate)
    if args.pipeline_bench:
        gates.append(run_pipeline_gate)
    if args.adaptive_bench:
        gates.append(run_adaptive_gate)
    if args.intersect_bench:
        gates.append(run_intersect_gate)
    if args.context_set_bench:
        gates.append(run_context_set_gate)
    for gate in gates:
        try:
            rc = gate(args)
        except GateError as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        except KeyError as e:
            print(f"FAIL: bench report is missing expected field {e} — "
                  "schema mismatch between the script and the bench "
                  "binary?", file=sys.stderr)
            return 1
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
