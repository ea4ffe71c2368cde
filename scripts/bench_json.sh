# bench_json.sh — shared bench_to_json helper, sourced by bench.sh and
# bench_scale.sh. Not executable on its own.
#
# bench_to_json RAWFILE OUTFILE — fold `go test -bench` output into the
# hop-bench/v1 trajectory schema: a flat array of {bench, ns_per_op,
# allocs_per_op, bytes_per_op, mb_per_s, extra{...}} objects plus a
# header record with host metadata. Custom go-bench metrics (updates/s,
# steps/s, wireB/update, ...) land in extra{}. The header's cpus is the
# host's online CPU count and gomaxprocs the GOMAXPROCS the benchmarks
# ran at (go test's -N name suffix; no suffix means 1).
bench_to_json() {
    awk -v out="$2" '
BEGIN {
    n = 0
    procs = 1
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    ns = ""; bop = ""; aop = ""; mbs = ""; extra = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns  = $(i-1)
        else if ($(i) == "B/op")      bop = $(i-1)
        else if ($(i) == "allocs/op") aop = $(i-1)
        else if ($(i) == "MB/s")      mbs = $(i-1)
        else if ($(i) ~ /^[a-zA-Z]/ && $(i-1) ~ /^[0-9.eE+-]+$/) {
            if (extra != "") extra = extra ","
            extra = extra "\"" $(i) "\":" $(i-1)
        }
    }
    if (ns == "") next
    rec = "  {\"bench\":\"" name "\",\"ns_per_op\":" ns
    if (aop != "") rec = rec ",\"allocs_per_op\":" aop
    if (bop != "") rec = rec ",\"bytes_per_op\":" bop
    if (mbs != "") rec = rec ",\"mb_per_s\":" mbs
    if (extra != "") rec = rec ",\"extra\":{" extra "}"
    rec = rec "}"
    recs[n++] = rec
}
END {
    printf "{\n" > out
    printf "  \"schema\": \"hop-bench/v1\",\n" >> out
    cmd = "date -u +%Y-%m-%dT%H:%M:%SZ"; cmd | getline ts; close(cmd)
    cmd = "go env GOOS GOARCH"; cmd | getline goos; cmd | getline goarch; close(cmd)
    cmd = "getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0"; cmd | getline ncpu; close(cmd)
    printf "  \"timestamp\": \"%s\",\n", ts >> out
    printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpus\": %s, \"gomaxprocs\": %s,\n", goos, goarch, ncpu, procs >> out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"results\": [\n" >> out
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n-1 ? "," : "") >> out
    printf "  ]\n}\n" >> out
}
' "$1"
}
