package main

import (
	"fmt"
	"math/rand"
	"strings"

	"selforg"
	"selforg/internal/server"
)

// The served column: the server's defaults, 1M values over [0, 999_999].
const (
	domainLo int64 = 0
	domainHi int64 = 999_999
	rows           = 1_000_000
)

type kind int

const (
	kCount kind = iota
	kSum
	kSelect
	kInsert
	kUpdate
	kDelete
)

func (k kind) read() bool { return k <= kSelect }

// statement is one generated SQL statement plus what the checker needs
// to predict its answer.
type statement struct {
	kind   kind
	lo, hi int64   // reads
	vals   []int64 // INSERT rows
	old    int64   // UPDATE old value, DELETE target
	new    int64   // UPDATE new value
	sql    string
}

// workload is one traffic mix over one server configuration.
type workload struct {
	name string
	// split gives each client its own half of the domain: it reads and
	// writes only there, so its model predicts every answer exactly
	// while the other client writes concurrently.
	split bool
	// warmup is the statement prefix one caller runs before measuring,
	// sized so most of the start-up adaptation is behind it (splits
	// then touch about 1% of narrow-agg statements).
	warmup int
	config func(walDir string, ob *selforg.Observer) server.Config
	next   func(c *client) statement
}

var workloads = []*workload{
	{
		name:   "narrow-agg",
		warmup: 3000,
		config: func(_ string, ob *selforg.Observer) server.Config {
			return server.Config{Options: selforg.Options{
				Strategy:      selforg.Segmentation,
				Model:         selforg.APM,
				Compression:   selforg.CompressionAuto,
				Observability: selforg.Observability{Observer: ob},
			}, Observer: ob}
		},
		next: nextNarrowAgg,
	},
	{
		name:   "wide-select",
		warmup: 300,
		config: func(_ string, ob *selforg.Observer) server.Config {
			return server.Config{Options: selforg.Options{
				Strategy:      selforg.Segmentation,
				Model:         selforg.APM,
				Observability: selforg.Observability{Observer: ob},
			}, Observer: ob, MaxRows: maxWideRows}
		},
		next: nextWideSelect,
	},
	{
		name:   "durable-mixed",
		split:  true,
		warmup: 3000,
		config: func(walDir string, ob *selforg.Observer) server.Config {
			return server.Config{Options: selforg.Options{
				Strategy: selforg.Replication,
				Model:    selforg.APM,
				Shards:   4,
				// Fsync stays off: on a shared virtual disk the sync
				// latency drifts between runs by more than any bound
				// the benchmark could hold (one seed gave 1121-1984
				// ops/s with it on). Every acked write still reaches
				// the kernel before its ack, and the restart check
				// verifies each one.
				Durability:    selforg.Durability{Dir: walDir},
				Observability: selforg.Observability{Observer: ob},
			}, Observer: ob, MaxRows: maxWideRows}
		},
		next: nextDurableMixed,
	},
}

// maxWideRows lifts Config.MaxRows above the largest range any workload
// selects (5% of 1M uniform rows, plus inserts), so no answer is
// truncated.
const maxWideRows = 200_000

func findWorkload(name string) (*workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// uniformRange draws [lo, lo+width-1] inside [from, to], with width
// uniform in [minW, maxW].
func uniformRange(rng *rand.Rand, from, to, minW, maxW int64) (int64, int64) {
	w := minW + rng.Int63n(maxW-minW+1)
	lo := from + rng.Int63n(to-from+1-w+1)
	return lo, lo + w - 1
}

func rangeRead(k kind, lo, hi int64) statement {
	var what string
	switch k {
	case kCount:
		what = "COUNT(*)"
	case kSum:
		what = "SUM(v)"
	default:
		what = "v"
	}
	return statement{kind: k, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT %s FROM P WHERE v BETWEEN %d AND %d", what, lo, hi)}
}

// zipfBuckets is the number of equal-width buckets narrow-agg places its
// ranges in, ranked by a seeded permutation and drawn Zipf-skewed (the
// §6.1 skewed-workload shape).
const zipfBuckets = 1000

func nextNarrowAgg(c *client) statement {
	k := kCount
	if c.rng.Intn(4) == 0 {
		k = kSum
	}
	const width = (domainHi - domainLo + 1) / zipfBuckets
	b := int64(c.hot[c.zipf.Uint64()])
	w := 1_000 + c.rng.Int63n(9_001)
	lo := domainLo + b*width + c.rng.Int63n(width)
	return rangeRead(k, lo, min(lo+w-1, domainHi))
}

func nextWideSelect(c *client) statement {
	lo, hi := uniformRange(c.rng, domainLo, domainHi, 10_000, 50_000)
	return rangeRead(kSelect, lo, hi)
}

// nextDurableMixed keeps the client inside its own half: reads are 3/4
// COUNT(*) and 1/4 short SELECT v, writes are 40% single-row INSERT,
// 10% 16-row INSERT, 25% UPDATE of a live row to a new value anywhere in
// the half (crossing a shard boundary about half the time) and 25%
// DELETE of a live row.
func nextDurableMixed(c *client) statement {
	if c.rng.Intn(2) == 0 {
		k := kCount
		if c.rng.Intn(4) == 0 {
			k = kSelect
		}
		lo, hi := uniformRange(c.rng, c.ms.lo, c.ms.hi, 1_000, 10_000)
		return rangeRead(k, lo, hi)
	}
	span := c.ms.hi - c.ms.lo + 1
	switch p := c.rng.Intn(20); {
	case p < 8 || c.ms.total == 0:
		v := c.ms.lo + c.rng.Int63n(span)
		return statement{kind: kInsert, vals: []int64{v},
			sql: fmt.Sprintf("INSERT INTO P VALUES (%d)", v)}
	case p < 10:
		vals := make([]int64, 16)
		var sb strings.Builder
		sb.WriteString("INSERT INTO P VALUES ")
		for i := range vals {
			vals[i] = c.ms.lo + c.rng.Int63n(span)
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d)", vals[i])
		}
		return statement{kind: kInsert, vals: vals, sql: sb.String()}
	case p < 15:
		old := c.ms.kth(c.rng.Int63n(c.ms.total))
		nv := c.ms.lo + c.rng.Int63n(span)
		return statement{kind: kUpdate, old: old, new: nv,
			sql: fmt.Sprintf("UPDATE P SET v = %d WHERE v = %d", nv, old)}
	default:
		v := c.ms.kth(c.rng.Int63n(c.ms.total))
		return statement{kind: kDelete, old: v,
			sql: fmt.Sprintf("DELETE FROM P WHERE v = %d", v)}
	}
}
