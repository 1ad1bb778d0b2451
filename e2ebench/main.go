// Command e2ebench is the repository's end-to-end benchmark. One process
// hosts server.New behind Server.Handler on a loopback listener and
// drives it with two closed-loop SQL clients over keep-alive HTTP
// connections; every answer is checked against a model built from the
// data seed. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced phase follows the measured one and the metrics are the
// per-layer ledger. Build and run it from the repository root with
//
//	bash e2ebench/run.sh --workload narrow-agg --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and the ledger.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type options struct {
	workload string
	seed     int64
	dataSeed int64
	seconds  int
	trace    int
	workdir  string
}

// setups is how many times a run sets up from scratch; setup_s is the
// median.
const setups = 5

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "narrow-agg, wide-select or durable-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: statement stream and sampling")
	flag.Int64Var(&o.dataSeed, "data-seed", 42, "data seed: the served column's values")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for WAL directories and the traced run's spans")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.dataSeed == 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: need --seconds >= 1, --trace 0|1 and a non-zero --data-seed")
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	// The data seed is also Config.Seed, and the default tenant's column
	// is generated from it directly.
	vals := referenceData(rows, domainLo, domainHi, o.dataSeed)
	base := []*multiset{newMultiset(domainLo, domainHi, vals)}
	if w.split {
		mid := (domainLo + domainHi) / 2
		base = []*multiset{newMultiset(domainLo, mid, vals), newMultiset(mid+1, domainHi, vals)}
	}
	vals = nil
	hot := hotBuckets(o.seed)
	// What the benchmark itself holds: the models (base now, one clone
	// of it at the end) and the runtime's own heap. heap_live_mb is the
	// process heap less this.
	benchHeap := liveHeap()

	var (
		b                 *bench
		attempted, failed int64
		setupTimes        []float64
		convergeTimes     []float64
	)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		// Collect the previous set-up's server before the clock starts,
		// so no set-up pays for another's garbage.
		runtime.GC()
		models := make([]*multiset, len(base))
		for j, m := range base {
			models[j] = m.clone()
		}
		var setup, converge time.Duration
		b, setup, converge, err = setUp(w, o, models, hot)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		for _, c := range b.clients {
			attempted += c.tally.attempted
			failed += c.tally.failed
		}
		setupTimes = append(setupTimes, setup.Seconds())
		convergeTimes = append(convergeTimes, converge.Seconds())
	}
	base = nil
	defer b.close()

	before, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	pa, err := b.measure(time.Duration(o.seconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	// Latencies are scaled to the CPU capacity the VM was given, as
	// ops_per_s is, so the two still agree: ops_per_s times the mean
	// latency is the number of clients.
	capacity := pa.clock.capacity()
	reads, writes := summarize(pa.tally.reads, capacity), summarize(pa.tally.writes, capacity)
	// Drop the latency samples and response buffers before the heap is
	// read, so heap_live_mb does not grow with throughput.
	pa.tally.reads, pa.tally.writes = nil, nil
	for _, c := range b.clients {
		c.tally, c.body = tally{}, bytes.Buffer{}
	}
	collect()
	after, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	attempted += pa.tally.attempted
	failed += pa.tally.failed

	var pb phase
	if o.trace == 1 {
		if pb, err = b.measure(time.Duration(o.seconds)*time.Second, true); err != nil {
			return nil, err
		}
		attempted += pb.tally.attempted
		failed += pb.tally.failed
		if err := b.tr.dump(filepath.Join(o.workdir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}

	var (
		lost     int64
		recovery time.Duration
		replayed int64
	)
	if b.cfg.Options.Durability.Dir != "" {
		if lost, recovery, replayed, err = b.restart(); err != nil {
			return nil, err
		}
		failed += lost
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %.0f ops/s (%.0f wall, steal %.1f%%), reads p50 %.1f p90 %.1f p99 %.1f us (n=%d), "+
		"writes p50 %.1f p99 %.1f us (n=%d), setup %.3f s, failed %d/%d\n",
		w.name, o.seed, pa.opsPerSec(), pa.wallOpsPerSec(), 100*pa.clock.stealShare(), reads.p50, reads.p90, reads.p99, reads.n,
		writes.p50, writes.p99, writes.n, median(setupTimes), failed, attempted)
	if o.trace == 0 {
		res.Metrics = map[string]metric{
			"ops_per_s":    {pa.opsPerSec(), "ops/s"},
			"read_p50_us":  {reads.p50, "us"},
			"read_p90_us":  {reads.p90, "us"},
			"setup_s":      {median(setupTimes), "s"},
			"heap_live_mb": {float64(int64(after.mem.HeapAlloc)-benchHeap) / 1e6, "MB"},
		}
		return res, nil
	}
	res.Metrics = ledger(pa, pb, reads, writes, before, after, b, lost, attempted, failed)
	res.Metrics["core.converge_s"] = metric{median(convergeTimes), "s"}
	res.Metrics["wal.recover_s"] = metric{recovery.Seconds(), "s"}
	res.Metrics["wal.replayed"] = metric{float64(replayed), "count"}
	return res, nil
}

// ledger turns the untraced phase's counter deltas and the traced
// phase's spans into the per-layer metrics.
func ledger(pa, pb phase, reads, writes latency, before, after snapshot, b *bench, lost, attempted, failed int64) map[string]metric {
	t := pa.tally
	ops := float64(t.attempted)
	nReads := float64(reads.n)
	bd := b.tr.breakdown()
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("read_p99_us", reads.p99, "us")
	set("client.read_samples", nReads, "count")
	set("client.write_samples", float64(writes.n), "count")
	set("write_p50_us", writes.p50, "us")
	set("write_p99_us", writes.p99, "us")
	set("error_rate", ratio(float64(failed), float64(attempted)), "ratio")
	set("disk_write_amp", ratio(float64(after.diskWrite-before.diskWrite), 8*float64(t.ackedValues)), "ratio")
	set("trace.overhead", 1-pb.opsPerSec()/pa.opsPerSec(), "ratio")
	set("client.wall_ops_per_s", pa.wallOpsPerSec(), "ops/s")
	set("host.steal_share", pa.clock.stealShare(), "ratio")

	set("http.self_us", durations(bd.httpSelf).quantile(0.5), "us")
	set("server.handler_us", durations(bd.handler).quantile(0.5), "us")
	set("server.wire_us", durations(bd.wire).quantile(0.5), "us")
	set("server.front_us", durations(bd.front).quantile(0.5), "us")
	set("server.exec_write_us", durations(bd.execWrite).quantile(0.5), "us")
	set("server.resp_bytes", ratio(float64(t.respBytes), ops), "B")
	set("server.shed_total", after.metrics["sql_shed_total"]-before.metrics["sql_shed_total"], "count")
	set("sql.normalize_us", durations(bd.normalize).quantile(0.5), "us")
	hits, misses := after.hits-before.hits, after.misses-before.misses
	set("plancache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")

	set("core.count_us", durations(bd.count).quantile(0.5), "us")
	set("core.select_us", durations(bd.sel).quantile(0.5), "us")
	set("core.read_bytes_per_row", ratio(float64(t.readBytes), float64(t.resultRows)), "B")
	set("core.segments", float64(b.col.SegmentCount()), "count")
	set("core.splits", float64(after.totals.Splits-before.totals.Splits), "count")
	set("core.reorg_write_bytes", float64(after.totals.WriteBytes-before.totals.WriteBytes), "B")

	set("compress.ratio", ratio(float64(b.col.UncompressedBytes()), float64(b.col.StorageBytes())), "ratio")
	set("compress.recodes", float64(after.totals.Recodes-before.totals.Recodes), "count")
	var segs float64
	enc := b.col.EncodingBreakdown()
	for _, e := range enc {
		segs += float64(e.Segments)
	}
	for _, e := range enc {
		set("compress.share_"+e.Encoding, ratio(float64(e.Segments), segs), "ratio")
	}

	set("result.chunks_per_select", ratio(float64(pb.tally.chunks), float64(pb.tally.chunkedSelects)), "count")
	set("shard.span_mean", ratio(
		after.metrics["selforg_router_span_shards_sum"]-before.metrics["selforg_router_span_shards_sum"],
		after.metrics["selforg_router_span_shards_count"]-before.metrics["selforg_router_span_shards_count"]), "count")

	set("delta.overlay_bytes_per_read", ratio(float64(t.deltaReadBytes), nReads), "B")
	set("delta.merges", float64(after.delta.Merges-before.delta.Merges), "count")
	set("delta.merge_us", ratio(
		after.metrics["selforg_delta_merge_duration_ns_sum"]-before.metrics["selforg_delta_merge_duration_ns_sum"],
		1e3*(after.metrics["selforg_delta_merge_duration_ns_count"]-before.metrics["selforg_delta_merge_duration_ns_count"])), "us")
	set("delta.pending_runs", float64(after.delta.Runs), "count")
	set("delta.merge_write_us", durations(pb.tally.mergeWrites).quantile(0.5), "us")

	set("durable.write_us", durations(bd.durableWrite).quantile(0.5), "us")
	records := float64(after.wal.Records - before.wal.Records)
	set("wal.fanin", ratio(records, float64(after.wal.Batches-before.wal.Batches)), "count")
	set("wal.fsyncs_per_write", ratio(float64(after.wal.Fsyncs-before.wal.Fsyncs), records), "count")
	set("wal.bytes_per_write", ratio(float64(after.wal.Bytes-before.wal.Bytes), records), "B")
	set("wal.checkpoints", float64(after.wal.Checkpoints-before.wal.Checkpoints), "count")
	set("wal.lost_rows", float64(lost), "count")

	set("runtime.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops), "B")
	set("runtime.allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops), "count")
	set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC-forcedGCs), "count")
	set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latency is a latency sample reduced to its size and the quantiles
// reported, in microseconds of CPU capacity.
type latency struct {
	n             int
	p50, p90, p99 float64
}

// summarize reduces a sample of wall-clock latencies, scaling each
// quantile by capacity (stealClock.capacity).
func summarize(d []time.Duration, capacity float64) latency {
	s := durations(d)
	return latency{n: len(s), p50: capacity * s.quantile(0.5), p90: capacity * s.quantile(0.9), p99: capacity * s.quantile(0.99)}
}

// forcedGCs is how many cycles collect runs: objects parked in a
// sync.Pool survive the first one.
const forcedGCs = 2

// collect frees everything unreachable, pooled objects included.
func collect() {
	for i := 0; i < forcedGCs; i++ {
		runtime.GC()
	}
}

// liveHeap returns the heap in use after collect.
func liveHeap() int64 {
	collect()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// durations is a latency sample in microseconds.
type durations []time.Duration

// quantile returns the q-quantile in microseconds (nearest rank), or 0
// for an empty sample.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

// median returns the median of v, or 0 for an empty v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
