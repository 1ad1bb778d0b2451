package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader joins a client span to the handler span of the same
// request in the traced run.
const requestIDHeader = "X-Bench-Request-Id"

// Span names. One request's spans form the tree
//
//	client.request ⊃ server.handler ⊃ server.exec ⊃ {sql.normalize, core.count | core.select}
//
// where the server.exec subtree of a sampled read is a re-issue of the
// same statement under the same id, straight into the program. A sampled
// write has only server.exec or durable.write spans: it is sent to the
// program instead of over HTTP, so no write is applied twice.
const (
	spanClient    = "client.request"
	spanHandler   = "server.handler"
	spanExec      = "server.exec"
	spanNormalize = "sql.normalize"
	spanCount     = "core.count"
	spanSelect    = "core.select"
	spanWrite     = "durable.write"
)

type span struct {
	ID    uint64        `json:"id"`
	Name  string        `json:"name"`
	Write bool          `json:"write,omitempty"`
	Start time.Duration `json:"start_ns"` // since the tracer's epoch
	Dur   time.Duration `json:"dur_ns"`
	Bytes int64         `json:"bytes,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// add files one span.
func (t *tracer) add(id uint64, name string, write bool, start time.Time, dur time.Duration, bytes int64) {
	s := span{ID: id, Name: name, Write: write, Start: start.Sub(t.epoch), Dur: dur, Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times the program's handler for requests that carry an id.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.add(id, spanHandler, false, start, time.Since(start), cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// breakdown turns the spans into per-layer self times: a layer's self
// time is its span minus its child spans of the same request. Reads and
// writes are kept apart; each list holds one sample per request.
type breakdown struct {
	httpSelf, handler, wire, front []time.Duration // reads
	normalize, count, sel          []time.Duration
	execWrite, durableWrite        []time.Duration // sampled writes
}

func (t *tracer) breakdown() breakdown {
	type req struct {
		client, handler, exec, core  time.Duration
		write, hasClient, hasHandler bool
		hasExec, hasCore             bool
	}
	reqs := map[uint64]*req{}
	var b breakdown
	for _, s := range t.spans {
		r := reqs[s.ID]
		if r == nil {
			r = &req{}
			reqs[s.ID] = r
		}
		r.write = r.write || s.Write
		switch s.Name {
		case spanClient:
			r.client, r.hasClient = s.Dur, true
		case spanHandler:
			r.handler, r.hasHandler = s.Dur, true
		case spanExec:
			r.exec, r.hasExec = s.Dur, true
			if s.Write {
				b.execWrite = append(b.execWrite, s.Dur)
			}
		case spanNormalize:
			b.normalize = append(b.normalize, s.Dur)
		case spanCount:
			r.core, r.hasCore = s.Dur, true
			b.count = append(b.count, s.Dur)
		case spanSelect:
			r.core, r.hasCore = s.Dur, true
			b.sel = append(b.sel, s.Dur)
		case spanWrite:
			b.durableWrite = append(b.durableWrite, s.Dur)
		}
	}
	for _, r := range reqs {
		if r.write || !r.hasClient || !r.hasHandler {
			continue
		}
		b.httpSelf = append(b.httpSelf, r.client-r.handler)
		b.handler = append(b.handler, r.handler)
		if r.hasExec && r.hasCore {
			b.wire = append(b.wire, r.handler-r.exec)
			b.front = append(b.front, r.exec-r.core)
		}
	}
	return b
}
