#!/usr/bin/env bash
# Bench regression gate: run the codec microbenches in smoke mode and
# compare per-row throughput against the committed
# results/bench_codec.json. A row that got more than REGRESSION_FACTOR
# slower fails the build, and a committed row that the fresh run no
# longer produces fails outright (a silently dropped bench is a gate
# with a hole in it).
#
# Rows can only be throughput-compared when both sides carry a
# throughput and the committed median is long enough to be stable
# (throughput is shape-insensitive where raw medians are not — smoke
# runs encode fewer frames; rows with a committed median under
# MIN_MEDIAN_NS are too noisy to gate on). Every skipped row is printed
# with its reason so the gate's blind spots are visible in the log.
#
# Scaling gate: bench JSON records the capture machine's host_cores.
# When both this host and the committed run have >= 4 cores, the
# committed codec/encode_vp9_sw_t4 row must show >= MIN_SCALING x the
# _t1 row's throughput — flat scaling on a multi-core host means the
# parallel encode path is broken. On smaller hosts the gate reports
# itself disarmed instead of pretending flat rows are fine.
#
# Kernel gate: each committed codec/kern_*_{sse2,avx2} row must beat
# its _scalar sibling by KERNEL_MIN_SPEEDUP (a SIMD backend slower
# than the scalar reference means the dispatch layer is shipping
# pessimization). Hosts without the instruction set skip the matching
# rows with the reason printed.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

REGRESSION_FACTOR=3.0
MIN_MEDIAN_NS=100000 # 100 µs
MIN_SCALING=2.0
KERNEL_MIN_SPEEDUP=1.5
COMMITTED=results/bench_codec.json
FRESH="${TMPDIR:-/tmp}/bench_codec_smoke.json"
HOST_CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

# SIMD features of this host, for the per-backend kernel rows: a host
# without AVX2 cannot emit codec/kern_*_avx2 rows, so those committed
# rows must be exempt from the missing-row check (with the reason
# printed) instead of failing the build.
HOST_SSE2=0
HOST_AVX2=0
if grep -qw sse2 /proc/cpuinfo 2>/dev/null; then HOST_SSE2=1; fi
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then HOST_AVX2=1; fi

if [[ ! -f "$COMMITTED" ]]; then
    echo "check_bench: no committed $COMMITTED, nothing to gate" >&2
    exit 1
fi

echo "--> fresh smoke run"
VCU_BENCH_SMOKE=1 cargo bench -q -p vcu-bench --offline --bench codec >/dev/null
if [[ ! -f "$FRESH" ]]; then
    echo "check_bench: smoke run did not write $FRESH" >&2
    exit 1
fi

# Every gated artifact holds one record per line with a fixed key
# order, so a line-oriented awk join is reliable (no jq in the image).
# field(line, key) reads one numeric value out of a record line.
AWK_FIELD='
    function field(line, key,    s) {
        s = line
        if (!match(s, "\"" key "\": [-0-9.e+]+")) return ""
        s = substr(s, RSTART, RLENGTH)
        sub("\"" key "\": ", "", s)
        return s
    }'

awk -v factor="$REGRESSION_FACTOR" -v min_median="$MIN_MEDIAN_NS" \
    -v min_scaling="$MIN_SCALING" -v host_cores="$HOST_CORES" \
    -v host_sse2="$HOST_SSE2" -v host_avx2="$HOST_AVX2" \
    -v min_kernel_speedup="$KERNEL_MIN_SPEEDUP" "$AWK_FIELD"'
    /"host_cores":/ {
        if (FNR == NR) committed_cores = field($0, "host_cores") + 0
    }
    /"name":/ {
        name = $0
        sub(/.*"name": "/, "", name)
        sub(/".*/, "", name)
        if (FNR == NR) {
            order[++n_committed] = name
            committed_tp[name] = field($0, "throughput")
            committed_med[name] = field($0, "median_ns")
        } else {
            fresh_seen[name] = 1
            fresh_tp[name] = field($0, "throughput")
        }
    }
    END {
        compared = 0
        skipped = 0
        worst = 0
        for (i = 1; i <= n_committed; i++) {
            name = order[i]
            if (!(name in fresh_seen)) {
                # Per-backend kernel rows only exist where the CPU has
                # the instruction set; a committed row from a bigger
                # capture host is a visible skip here, not a failure.
                if (name ~ /^codec\/kern_.*_sse2$/ && !host_sse2) {
                    printf "    %-40s SKIPPED: host has no sse2, row cannot exist here\n", name
                    skipped++
                    continue
                }
                if (name ~ /^codec\/kern_.*_avx2$/ && !host_avx2) {
                    printf "    %-40s SKIPPED: host has no avx2, row cannot exist here\n", name
                    skipped++
                    continue
                }
                printf "check_bench: committed row %s missing from fresh run (bench renamed or dropped?)\n", \
                    name > "/dev/stderr"
                bad = 1
                continue
            }
            if (committed_tp[name] == "") {
                printf "    %-40s SKIPPED: committed row has no throughput (no elements count)\n", name
                skipped++
                continue
            }
            if (fresh_tp[name] == "") {
                printf "    %-40s SKIPPED: fresh row has no throughput (no elements count)\n", name
                skipped++
                continue
            }
            if (committed_med[name] + 0 < min_median) {
                printf "    %-40s SKIPPED: committed median %.0f ns under %.0f ns noise floor\n", \
                    name, committed_med[name], min_median
                skipped++
                continue
            }
            ratio = committed_tp[name] / fresh_tp[name]
            compared++
            if (ratio > worst) worst = ratio
            printf "    %-40s committed %12.0f elem/s  fresh %12.0f elem/s  (%.2fx)\n", \
                name, committed_tp[name], fresh_tp[name], ratio
            if (ratio > factor) {
                printf "check_bench: %s regressed %.2fx (> %.1fx budget)\n", name, ratio, factor > "/dev/stderr"
                bad = 1
            }
        }
        if (compared == 0) {
            print "check_bench: no comparable rows between committed and fresh runs" > "/dev/stderr"
            exit 1
        }
        printf "check_bench: %d rows compared, %d skipped, worst ratio %.2fx (budget %.1fx)\n", \
            compared, skipped, worst, factor

        # Scaling gate: committed t4 throughput must beat t1 by
        # min_scaling when both the committed capture machine and this
        # host have the cores to show it.
        t1 = committed_tp["codec/encode_vp9_sw_t1"]
        t4 = committed_tp["codec/encode_vp9_sw_t4"]
        if (committed_cores + 0 >= 4 && host_cores + 0 >= 4) {
            if (t1 == "" || t4 == "") {
                print "check_bench: scaling gate needs encode_vp9_sw_t1 and _t4 rows with throughput" > "/dev/stderr"
                bad = 1
            } else {
                scaling = t4 / t1
                printf "check_bench: scaling gate t4/t1 = %.2fx (floor %.1fx, committed on %d cores)\n", \
                    scaling, min_scaling, committed_cores
                if (scaling < min_scaling) {
                    printf "check_bench: encode_vp9_sw_t4 only %.2fx of _t1 on a %d-core capture host (< %.1fx)\n", \
                        scaling, committed_cores, min_scaling > "/dev/stderr"
                    bad = 1
                }
            }
        } else {
            printf "check_bench: *** SCALING GATE DISARMED *** (committed host_cores=%d, this host=%d; " \
                   "both must be >= 4 — flat multi-core scaling is NOT being checked)\n", \
                committed_cores + 0, host_cores + 0
        }

        # Kernel gate: each committed per-backend kernel row
        # (codec/kern_<k>_{sse2,avx2}) must beat its _scalar sibling by
        # min_kernel_speedup. Committed rows come from full calibrated
        # runs, so the ratios are stable where the smoke rows above are
        # not (microsecond kernels at 1 iteration are pure noise). The
        # rows only exist when the capture host had the instruction
        # set; a committed artifact without them reports the gate
        # disarmed rather than pretending vectorization is checked.
        kern_pairs = 0
        for (i = 1; i <= n_committed; i++) {
            name = order[i]
            if (name !~ /^codec\/kern_.*_(sse2|avx2)$/) continue
            scalar_name = name
            sub(/_(sse2|avx2)$/, "_scalar", scalar_name)
            if (committed_tp[scalar_name] == "" || committed_tp[name] == "") {
                printf "    %-40s SKIPPED: no committed throughput pair with %s\n", name, scalar_name
                continue
            }
            speedup = committed_tp[name] / committed_tp[scalar_name]
            kern_pairs++
            printf "    %-40s %.2fx over %s (floor %.1fx)\n", name, speedup, scalar_name, min_kernel_speedup
            if (speedup < min_kernel_speedup) {
                printf "check_bench: %s is only %.2fx its scalar reference (< %.1fx floor)\n", \
                    name, speedup, min_kernel_speedup > "/dev/stderr"
                bad = 1
            }
        }
        if (kern_pairs == 0) {
            print "check_bench: *** KERNEL GATE DISARMED *** (no committed codec/kern_*_{sse2,avx2} rows; " \
                  "capture host had no SIMD — vectorized speedups are NOT being checked)"
        } else {
            printf "check_bench: kernel gate %d SIMD rows >= %.1fx their scalar siblings\n", \
                kern_pairs, min_kernel_speedup
        }
        exit bad
    }
' "$COMMITTED" "$FRESH"

# The committed bench JSONs were captured on a small host, which keeps
# the scaling gate above disarmed on every run. When the build host has
# the cores to re-arm it, regenerate the three committed artifacts in
# full mode so the next commit carries multi-core rows.
COMMITTED_CORES="$(grep -o '"host_cores": [0-9]*' "$COMMITTED" | head -n 1 | grep -o '[0-9]*$' || echo 0)"
if [[ "$HOST_CORES" -ge 4 && "${COMMITTED_CORES:-0}" -lt 4 ]]; then
    echo "--> committed bench JSONs captured on a ${COMMITTED_CORES}-core host; regenerating on this ${HOST_CORES}-core host"
    cargo bench -q -p vcu-bench --offline --bench codec >/dev/null
    cargo bench -q -p vcu-bench --offline --bench chip_cluster >/dev/null
    cargo run -q -p vcu-bench --release --offline --bin bench_cluster_scale >/dev/null
    echo "check_bench: regenerated results/bench_codec.json, results/bench_chip_cluster.json, results/bench_cluster_scale.json"
    echo "check_bench: commit the regenerated JSONs to arm the multi-core scaling gate"
fi

# Serving-campaign gate: validate the committed
# results/serve_campaign.json artifact. The full sweep is minutes-long
# so no fresh run happens here (bench_serve's smoke gates cover the
# code path); this checks the committed artifact itself — every cell
# carries the full key set with exact session accounting, the largest
# cell demonstrates >= MIN_PEAK peak concurrent viewers, and TTFF p99
# shows no cliff across ascending cache sizes within a sweep group.
# Rows without a same-fleet sweep partner are reported as skipped so
# the gate's blind spots stay visible.
MIN_PEAK=1000000
TTFF_CLIFF_FACTOR=1.25
TTFF_CLIFF_SLACK_S=0.05
SERVE_COMMITTED=results/serve_campaign.json

if [[ ! -f "$SERVE_COMMITTED" ]]; then
    echo "check_bench: no committed $SERVE_COMMITTED, nothing to gate" >&2
    exit 1
fi

echo "--> serve campaign artifact"
awk -v min_peak="$MIN_PEAK" -v cliff="$TTFF_CLIFF_FACTOR" -v slack="$TTFF_CLIFF_SLACK_S" "$AWK_FIELD"'
    /"viewers":/ {
        n++
        split("viewers vcus cache_segments arrivals admitted shed completed aborted " \
              "peak_concurrent ttff_p50_s ttff_p99_s rebuffer_ratio rebuffer_events " \
              "hit_ratio transcodes transcode_failures segments_served egress_gb " \
              "egress_cost_usd transcode_cost_usd degraded_frac", keys, " ")
        for (k in keys) {
            if (field($0, keys[k]) == "") {
                printf "check_bench: serve cell %d missing key %s\n", n, keys[k] > "/dev/stderr"
                bad = 1
            }
        }
        viewers[n] = field($0, "viewers") + 0
        vcus[n] = field($0, "vcus") + 0
        cache[n] = field($0, "cache_segments") + 0
        peak[n] = field($0, "peak_concurrent") + 0
        p99[n] = field($0, "ttff_p99_s") + 0
        if (field($0, "arrivals") + 0 != field($0, "admitted") + field($0, "shed")) {
            printf "check_bench: serve cell %d arrivals != admitted + shed\n", n > "/dev/stderr"
            bad = 1
        }
        if (field($0, "admitted") + 0 != field($0, "completed") + field($0, "aborted")) {
            printf "check_bench: serve cell %d admitted != completed + aborted\n", n > "/dev/stderr"
            bad = 1
        }
        if (peak[n] > max_peak) max_peak = peak[n]
    }
    END {
        if (n == 0) {
            print "check_bench: no serve cells in committed artifact" > "/dev/stderr"
            exit 1
        }
        compared = 0
        skipped = 0
        for (i = 1; i <= n; i++) {
            paired = 0
            for (j = 1; j <= n; j++) {
                if (i != j && viewers[i] == viewers[j] && vcus[i] == vcus[j]) paired = 1
            }
            if (!paired) {
                printf "    serve %9d viewers / cache %7d  SKIPPED: no same-fleet sweep partner for cliff check\n", \
                    viewers[i], cache[i]
                skipped++
                continue
            }
            # Adjacent cells of one sweep group arrive consecutively
            # with ascending cache sizes (render order).
            if (i > 1 && viewers[i] == viewers[i-1] && vcus[i] == vcus[i-1] && cache[i] > cache[i-1]) {
                compared++
                printf "    serve %9d viewers: ttff_p99 %.3fs (cache %d) -> %.3fs (cache %d)\n", \
                    viewers[i], p99[i-1], cache[i-1], p99[i], cache[i]
                if (p99[i] > p99[i-1] * cliff + slack) {
                    printf "check_bench: TTFF p99 cliff across the cache sweep at %d viewers\n", \
                        viewers[i] > "/dev/stderr"
                    bad = 1
                }
            }
        }
        if (compared == 0) {
            print "check_bench: no adjacent cache-sweep pairs to cliff-check" > "/dev/stderr"
            bad = 1
        }
        printf "check_bench: serve %d cells, %d cliff pairs, %d skipped, max peak %d (floor %d)\n", \
            n, compared, skipped, max_peak, min_peak
        if (max_peak + 0 < min_peak + 0) {
            printf "check_bench: peak concurrency %d below %d floor\n", max_peak, min_peak > "/dev/stderr"
            bad = 1
        }
        exit bad
    }
' "$SERVE_COMMITTED"

# Region-campaign gate: validate the committed
# results/region_campaign.json artifact. The full sweep is minutes-long
# so no fresh run happens here (bench_region_campaign's smoke gates
# cover the code path); this checks the committed artifact itself —
# every cell carries the full key set, overflow routing never reduced
# total goodput versus the isolated-regions counterfactual, every
# multi-region cell actually routed work across its anti-phased peaks,
# and the largest cell demonstrates >= MIN_VCUS total VCUs.
MIN_VCUS=100000
REGION_COMMITTED=results/region_campaign.json

if [[ ! -f "$REGION_COMMITTED" ]]; then
    echo "check_bench: no committed $REGION_COMMITTED, nothing to gate" >&2
    exit 1
fi

echo "--> region campaign artifact"
awk -v min_vcus="$MIN_VCUS" "$AWK_FIELD"'
    /"total_vcus":/ {
        n++
        split("regions cells_per_region vcus_per_cell total_vcus traffic_scale " \
              "jobs routed_jobs routed_frac goodput_overflow goodput_isolated " \
              "p99_wait_overflow_s p99_wait_isolated_s blast_radius " \
              "perf_mpix_per_s tco_usd perf_per_tco merge_digest", keys, " ")
        for (k in keys) {
            if (field($0, keys[k]) == "") {
                printf "check_bench: region cell %d missing key %s\n", n, keys[k] > "/dev/stderr"
                bad = 1
            }
        }
        regions = field($0, "regions") + 0
        vcus = field($0, "total_vcus") + 0
        routed = field($0, "routed_jobs") + 0
        g_ov = field($0, "goodput_overflow") + 0
        g_iso = field($0, "goodput_isolated") + 0
        printf "    region %d regions / %7d VCUs  goodput overflow %.4f vs isolated %.4f, routed %d\n", \
            regions, vcus, g_ov, g_iso, routed
        if (g_ov < g_iso) {
            printf "check_bench: region cell %d overflow routing lost goodput (%.6f < %.6f)\n", \
                n, g_ov, g_iso > "/dev/stderr"
            bad = 1
        }
        if (regions > 1 && routed == 0) {
            printf "check_bench: region cell %d has %d anti-phased regions but routed nothing\n", \
                n, regions > "/dev/stderr"
            bad = 1
        }
        if (vcus > max_vcus) max_vcus = vcus
    }
    END {
        if (n == 0) {
            print "check_bench: no region cells in committed artifact" > "/dev/stderr"
            exit 1
        }
        printf "check_bench: region %d cells, max fleet %d VCUs (floor %d)\n", n, max_vcus, min_vcus
        if (max_vcus + 0 < min_vcus + 0) {
            printf "check_bench: largest region fleet %d below %d-VCU floor\n", \
                max_vcus, min_vcus > "/dev/stderr"
            bad = 1
        }
        exit bad
    }
' "$REGION_COMMITTED"

# DSE-frontier gate: validate the committed results/dse_frontier.json
# artifact. The full sweep is minutes-long so no fresh run happens here
# (bench_dse's smoke gates cover the code path); this checks the
# committed artifact itself — every candidate carries the full key set,
# the frontier is recomputed from the four recorded objectives (steady
# perf/VCU, fault goodput, perf/TCO, latency headroom 1/(1+p99)) and
# must match the on_frontier flags exactly, the shipped anchor appears
# exactly once, sits on the frontier, and no candidate dominates it
# beyond DSE_ANCHOR_TOL. Candidates are never skipped here — a row
# that cannot be scored is a failure, and the zero-skip count is
# printed so that stays visible.
DSE_ANCHOR_TOL=0.02 # vcu_dse::DEFAULT_ANCHOR_TOL
DSE_COMMITTED=results/dse_frontier.json

if [[ ! -f "$DSE_COMMITTED" ]]; then
    echo "check_bench: no committed $DSE_COMMITTED, nothing to gate" >&2
    exit 1
fi

echo "--> dse frontier artifact"
awk -v tol="$DSE_ANCHOR_TOL" "$AWK_FIELD"'
    # True if candidate a Pareto-dominates b over the four maximize
    # objectives (>= on all, > on at least one) — the same textbook
    # definition vcu-dse implements, re-derived independently here.
    function dominates(a, b,    k, strictly) {
        strictly = 0
        for (k = 1; k <= 4; k++) {
            if (obj[a, k] < obj[b, k]) return 0
            if (obj[a, k] > obj[b, k]) strictly = 1
        }
        return strictly
    }
    /"encoder_cores":/ {
        n++
        split("encoder_cores decoder_cores dram_gib_s refstore_kpix area_mm2 " \
              "card_power_w card_capex_usd fleet_tco_usd traffic_factor " \
              "bandwidth_pressure util_steady goodput_steady goodput_fault " \
              "p99_wait_s perf_mpix_s_per_vcu perf_per_tco anchor on_frontier", keys, " ")
        for (k in keys) {
            if (field($0, keys[k]) == "") {
                printf "check_bench: dse candidate %d missing key %s\n", n, keys[k] > "/dev/stderr"
                bad = 1
            }
        }
        label[n] = sprintf("%de%dd%sG%sK", field($0, "encoder_cores"), \
            field($0, "decoder_cores"), field($0, "dram_gib_s") + 0, field($0, "refstore_kpix"))
        obj[n, 1] = field($0, "perf_mpix_s_per_vcu") + 0
        obj[n, 2] = field($0, "goodput_fault") + 0
        obj[n, 3] = field($0, "perf_per_tco") + 0
        obj[n, 4] = 1.0 / (1.0 + field($0, "p99_wait_s") + 0)
        anchor[n] = field($0, "anchor") + 0
        front[n] = field($0, "on_frontier") + 0
        if (anchor[n]) anchors++
    }
    END {
        if (n == 0) {
            print "check_bench: no dse candidates in committed artifact" > "/dev/stderr"
            exit 1
        }
        if (anchors != 1) {
            printf "check_bench: expected exactly 1 shipped anchor, found %d\n", anchors > "/dev/stderr"
            exit 1
        }
        # Recompute the frontier and match the committed flags.
        frontier = 0
        for (i = 1; i <= n; i++) {
            dominated = 0
            for (j = 1; j <= n; j++) {
                if (i != j && dominates(j, i)) { dominated = 1; break }
            }
            if (front[i] != !dominated) {
                printf "check_bench: dse %s on_frontier=%d but recomputation says %d\n", \
                    label[i], front[i], !dominated > "/dev/stderr"
                bad = 1
            }
            if (front[i]) frontier++
            if (anchor[i]) {
                a = i
                if (!front[i]) {
                    printf "check_bench: shipped anchor %s is off the frontier\n", label[i] > "/dev/stderr"
                    bad = 1
                }
            }
        }
        # Anchor tolerance: nothing may dominate the anchor even after
        # inflating its objectives by (1 + tol).
        for (k = 1; k <= 4; k++) obj[0, k] = obj[a, k] * (1 + tol)
        for (i = 1; i <= n; i++) {
            if (i != a && dominates(i, 0)) {
                printf "check_bench: dse %s dominates the shipped anchor beyond tol %.3f\n", \
                    label[i], tol > "/dev/stderr"
                bad = 1
            }
        }
        printf "check_bench: dse %d candidates, %d on frontier, 0 skipped, anchor %s within tol %.3f\n", \
            n, frontier, label[a], tol
        exit bad
    }
' "$DSE_COMMITTED"
