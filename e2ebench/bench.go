package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"selforg"
	"selforg/internal/server"
	"selforg/internal/sql"
)

// bench is one server instance on a loopback listener plus the clients
// that drive it.
type bench struct {
	w       *workload
	cfg     server.Config
	srv     *server.Server
	col     *selforg.Column // Server.Tenant(""), for direct calls and counters
	hs      *http.Server
	served  chan error
	base    string
	hc      *http.Client // counter scrapes
	clients []*client
	tr      *tracer
}

// traceSample is how often (1 in n) the traced run re-issues a read
// straight into the program, or sends a write there instead of over
// HTTP.
const traceSample = 8

// setUp builds a server over a fresh WAL directory (for durable
// workloads), checks its column against the reference models, and runs
// the warm-up prefix through one sequential caller. It returns the
// bench, the set-up time (server.New through the end of warm-up, minus
// the content check) and the warm-up time alone, both as the CPU
// capacity the VM was given (stealClock.given).
func setUp(w *workload, o options, models []*multiset, hot []int) (*bench, time.Duration, time.Duration, error) {
	ob := selforg.NewObserver()
	walDir := ""
	if w.split {
		d, err := os.MkdirTemp(o.workdir, "wal-")
		if err != nil {
			return nil, 0, 0, fmt.Errorf("WAL directory: %w", err)
		}
		walDir = d
	}
	cfg := w.config(walDir, ob)
	cfg.Seed = o.dataSeed
	b := &bench{w: w, cfg: cfg, tr: newTracer(), served: make(chan error, 1)}

	var build, warm stealClock
	if err := build.begin(); err != nil {
		return nil, 0, 0, err
	}
	b.srv = server.New(cfg)
	col, err := b.srv.Tenant("")
	if err != nil {
		b.close()
		return nil, 0, 0, fmt.Errorf("build column: %w", err)
	}
	b.col = col
	if err := build.end(); err != nil {
		b.close()
		return nil, 0, 0, err
	}

	// The content check runs through a pinned View, which drives no
	// adaptation, so the warm-up starts from the untouched layout.
	for _, m := range models {
		if d := m.diff(col.View().Select(m.lo, m.hi)); d != 0 {
			b.close()
			return nil, 0, 0, fmt.Errorf("column disagrees with the reference data in %d rows of [%d, %d]", d, m.lo, m.hi)
		}
	}

	if err := warm.begin(); err != nil {
		b.close()
		return nil, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, 0, 0, fmt.Errorf("listen: %w", err)
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.tr.wrap(b.srv.Handler())}
	go func() { b.served <- b.hs.Serve(ln) }()
	b.hc = &http.Client{Timeout: 60 * time.Second}
	for i, m := range models {
		b.clients = append(b.clients, newClient(i, ln.Addr().String(), o.seed, hot, m, b.tr))
	}
	if len(models) == 1 {
		// Unsplit workloads are read-only: both clients check against
		// the one shared model.
		b.clients = append(b.clients, newClient(1, ln.Addr().String(), o.seed, hot, models[0], b.tr))
	}
	for i := 0; i < w.warmup; i++ {
		c := b.clients[i%len(b.clients)]
		c.run(w.next(c), 0)
	}
	if err := warm.end(); err != nil {
		b.close()
		return nil, 0, 0, err
	}
	return b, build.given() + warm.given(), warm.given(), nil
}

// phase is what one measured phase produced.
type phase struct {
	clock stealClock
	tally tally // all clients merged
}

// opsPerSec is the statements completed per second of the CPU capacity
// the VM was given during the phase (stealClock.given). The wall-clock
// rate is wallOpsPerSec.
func (p phase) opsPerSec() float64 { return float64(p.tally.attempted) / p.clock.given().Seconds() }

func (p phase) wallOpsPerSec() float64 { return float64(p.tally.attempted) / p.clock.wall.Seconds() }

// measure runs every client closed-loop for d and merges their tallies.
func (b *bench) measure(d time.Duration, traced bool) (phase, error) {
	for _, c := range b.clients {
		c.tally = tally{}
	}
	var p phase
	if err := p.clock.begin(); err != nil {
		return p, err
	}
	deadline := p.clock.start.Add(d)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				st := b.w.next(c)
				if traced {
					b.tracedStep(c, st)
				} else {
					c.run(st, 0)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := p.clock.end(); err != nil {
		return p, err
	}
	for _, c := range b.clients {
		t := &c.tally
		p.tally.attempted += t.attempted
		p.tally.failed += t.failed
		p.tally.reads = append(p.tally.reads, t.reads...)
		p.tally.writes = append(p.tally.writes, t.writes...)
		p.tally.respBytes += t.respBytes
		p.tally.readBytes += t.readBytes
		p.tally.resultRows += t.resultRows
		p.tally.deltaReadBytes += t.deltaReadBytes
		p.tally.ackedValues += t.ackedValues
		p.tally.mergeWrites = append(p.tally.mergeWrites, t.mergeWrites...)
		p.tally.chunks += t.chunks
		p.tally.chunkedSelects += t.chunkedSelects
	}
	return p, nil
}

// tracedStep runs one statement with spans. Reads go over HTTP under a
// request id; a sample of them is then re-issued under the same id at
// Server.Exec, sql.Normalize and the facade call. A sample of writes
// goes straight to Server.Exec or to the facade write call instead of
// over HTTP. HTTP writes that overlap a delta merge-back are kept apart.
func (b *bench) tracedStep(c *client, st statement) {
	id := b.tr.newID()
	if st.kind.read() {
		if _, ok := c.run(st, id); ok && c.sample.Intn(traceSample) == 0 {
			b.reissue(c, st, id)
		}
		return
	}
	if c.sample.Intn(traceSample) == 0 {
		b.direct(c, st, id, c.sample.Intn(2) == 0)
		return
	}
	merges := b.col.DeltaStats().Merges
	if lat, ok := c.run(st, id); ok && b.col.DeltaStats().Merges != merges {
		c.tally.mergeWrites = append(c.tally.mergeWrites, lat)
	}
}

// reissue runs a read again straight into the program, one layer at a
// time, and checks the answers.
func (b *bench) reissue(c *client, st statement, id uint64) {
	want := c.ms.rangeDigest(st.lo, st.hi)
	start := time.Now()
	_, err := sql.Normalize(st.sql)
	b.tr.add(id, spanNormalize, false, start, time.Since(start), 0)
	if err != nil {
		c.fail(st, err)
		return
	}
	start = time.Now()
	res, err := b.srv.Exec("", st.sql)
	b.tr.add(id, spanExec, false, start, time.Since(start), 0)
	if err == nil && res.Count != want.n {
		err = fmt.Errorf("Exec count %d, want %d", res.Count, want.n)
	}
	if err != nil {
		c.fail(st, err)
		return
	}
	var n int64
	start = time.Now()
	if st.kind == kCount {
		n, _ = b.col.Count(st.lo, st.hi)
		b.tr.add(id, spanCount, false, start, time.Since(start), 0)
	} else {
		rows, _ := b.col.SelectRows(st.lo, st.hi)
		b.tr.add(id, spanSelect, false, start, time.Since(start), 0)
		rows.Chunks(func([]int64) bool { c.tally.chunks++; return true })
		c.tally.chunkedSelects++
		n = int64(rows.Len())
	}
	if n != want.n {
		c.fail(st, fmt.Errorf("facade count %d, want %d", n, want.n))
	}
}

// direct applies a sampled write without HTTP: through Server.Exec, or
// as facade writes (one durable.write span per Column call).
func (b *bench) direct(c *client, st statement, id uint64, viaExec bool) {
	c.tally.attempted++
	if viaExec {
		start := time.Now()
		res, err := b.srv.Exec("", st.sql)
		b.tr.add(id, spanExec, true, start, time.Since(start), 0)
		if err == nil {
			err = c.check(st, reply{Count: res.Count})
		}
		if err != nil {
			c.fail(st, err)
		}
		return
	}
	var affected int64
	timed := func(f func() (bool, error)) error {
		start := time.Now()
		hit, err := f()
		b.tr.add(id, spanWrite, true, start, time.Since(start), 0)
		if hit {
			affected++
		}
		return err
	}
	var err error
	switch st.kind {
	case kInsert:
		for _, v := range st.vals {
			if err = timed(func() (bool, error) { _, err := b.col.Insert(v); return err == nil, err }); err != nil {
				break
			}
		}
	case kUpdate:
		err = timed(func() (bool, error) { hit, _, err := b.col.Update(st.old, st.new); return hit, err })
	case kDelete:
		err = timed(func() (bool, error) { hit, _, err := b.col.Delete(st.old); return hit, err })
	}
	if err == nil {
		err = c.check(st, reply{Count: affected})
	}
	if err != nil {
		c.fail(st, err)
	}
}

// restart closes the server, reopens one over the same WAL directory
// and counts the rows whose multiplicity differs from the models: every
// acked write missing after the restart is one. It also returns the
// recovery time and the batches recovery replayed.
func (b *bench) restart() (lost int64, recovery time.Duration, replayed int64, err error) {
	b.stop()
	b.srv.Close()
	cfg := b.cfg
	ob := selforg.NewObserver()
	cfg.Observer, cfg.Options.Observability.Observer = ob, ob
	start := time.Now()
	srv := server.New(cfg)
	defer srv.Close()
	col, err := srv.Tenant("")
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	recovery = time.Since(start)
	ws, _ := col.WALStats()
	for _, c := range b.clients {
		lost += c.ms.diff(col.View().Select(c.ms.lo, c.ms.hi))
	}
	return lost, recovery, ws.Replayed, nil
}

// stop shuts the HTTP side down and waits for the serve loop to exit.
func (b *bench) stop() {
	if b.hs == nil {
		return
	}
	b.hs.Close()
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	b.hs = nil
	for _, c := range b.clients {
		c.close()
	}
	b.hc.CloseIdleConnections()
}

// close stops everything and removes the WAL directory.
func (b *bench) close() {
	b.stop()
	b.srv.Close()
	if dir := b.cfg.Options.Durability.Dir; dir != "" {
		os.RemoveAll(dir)
	}
}

// hotBuckets is narrow-agg's seeded placement: Zipf rank i hits bucket
// hot[i], so the hot set is scattered over the domain.
func hotBuckets(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(zipfBuckets)
}
