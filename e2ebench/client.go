package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"
)

// client is one closed-loop SQL caller: it owns one keep-alive
// connection and sends its next statement only after the previous
// answer is fully read and checked. Requests are written and answers
// parsed on the caller's goroutine, so the client adds no goroutine
// hand-offs of its own to the request path (http.Client's Transport
// would add two per request: its write and read loops).
type client struct {
	id   int
	addr string // host:port of the server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body bytes.Buffer

	rng  *rand.Rand
	zipf *rand.Zipf
	hot  []int // narrow-agg: Zipf rank -> bucket
	ms   *multiset

	// sample picks the statements the traced run re-issues or sends
	// straight to the program; it is separate from rng so tracing never
	// changes the statement stream.
	sample *rand.Rand
	tr     *tracer

	tally tally
}

// tally is what a client saw during one phase.
type tally struct {
	attempted, failed int64
	reads, writes     []time.Duration
	respBytes         int64
	readBytes         int64           // Σ stats.ReadBytes over reads
	resultRows        int64           // Σ stats.ResultCount over reads
	deltaReadBytes    int64           // Σ stats.DeltaReadBytes over reads
	ackedValues       int64           // inserted or updated values acked
	mergeWrites       []time.Duration // HTTP writes that overlapped a merge-back
	chunks            int64           // Rows.Chunks callbacks of re-issued selects
	chunkedSelects    int64
}

func newClient(id int, addr string, seed int64, hot []int, ms *multiset, tr *tracer) *client {
	c := &client{
		id:     id,
		addr:   addr,
		rng:    rand.New(rand.NewSource(seed*2_147_483_647 + int64(id))),
		sample: rand.New(rand.NewSource(seed*1_000_003 + int64(id) + 7)),
		hot:    hot,
		ms:     ms,
		tr:     tr,
	}
	c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(len(hot)-1))
	return c
}

// close drops the connection; the next request dials a new one.
func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// requestTimeout bounds one statement's round trip.
const requestTimeout = 60 * time.Second

// post sends one statement as POST /sql and reads the whole answer; the
// latency runs from the send to the last response byte. The connection
// is kept for the next statement unless the server asks to close it or
// the exchange fails.
func (c *client) post(sql string, reqID uint64) (int, time.Time, time.Duration, error) {
	c.body.Reset()
	start := time.Now()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, start, time.Since(start), err
		}
		c.conn = conn
		c.br, c.bw = bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	c.conn.SetDeadline(start.Add(requestTimeout))
	fmt.Fprintf(c.bw, "POST /sql HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n", c.addr, len(sql))
	if reqID != 0 {
		fmt.Fprintf(c.bw, "%s: %d\r\n", requestIDHeader, reqID)
	}
	c.bw.WriteString("\r\n")
	c.bw.WriteString(sql)
	if err := c.bw.Flush(); err != nil {
		c.close()
		return 0, start, time.Since(start), err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, start, time.Since(start), err
	}
	_, err = c.body.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, start, lat, err
}

// run sends st over HTTP, checks the answer and records its latency
// (and, with a request id, its client span). It returns the latency, or
// false if the statement failed.
func (c *client) run(st statement, reqID uint64) (time.Duration, bool) {
	c.tally.attempted++
	status, start, lat, err := c.post(st.sql, reqID)
	if reqID != 0 {
		c.tr.add(reqID, spanClient, !st.kind.read(), start, lat, int64(c.body.Len()))
	}
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(c.body.Bytes()))
	}
	var rep reply
	if err == nil {
		rep, err = parseReply(c.body.Bytes())
	}
	if err == nil {
		err = c.check(st, rep)
	}
	if err != nil {
		c.fail(st, err)
		return lat, false
	}
	c.tally.respBytes += int64(c.body.Len())
	if st.kind.read() {
		c.tally.reads = append(c.tally.reads, lat)
		c.tally.readBytes += rep.Stats.ReadBytes
		c.tally.resultRows += rep.Stats.ResultCount
		c.tally.deltaReadBytes += rep.Stats.DeltaReadBytes
	} else {
		c.tally.writes = append(c.tally.writes, lat)
	}
	return lat, true
}

// maxReported bounds the failures a client prints to stderr.
const maxReported = 5

func (c *client) fail(st statement, err error) {
	c.tally.failed++
	if c.tally.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "client %d: %s: %v\n", c.id, st.sql, err)
	}
}

// check compares an answer with the model and applies acked writes to
// it. A write whose answer disagrees is not applied.
func (c *client) check(st statement, rep reply) error {
	switch st.kind {
	case kCount, kSum, kSelect:
		want := c.ms.rangeDigest(st.lo, st.hi)
		if rep.Count != want.n {
			return fmt.Errorf("count %d, want %d", rep.Count, want.n)
		}
		if st.kind == kSum && rep.Sum != want.sum {
			return fmt.Errorf("sum %d, want %d", rep.Sum, want.sum)
		}
		if st.kind == kSelect {
			if want.n > 0 && !rep.hasRows || rep.Truncated {
				return fmt.Errorf("rows missing or truncated")
			}
			if rep.rows != want {
				return fmt.Errorf("rows %+v, want %+v", rep.rows, want)
			}
			if rep.rows.n > 0 && (rep.minRow < st.lo || rep.maxRow > st.hi) {
				return fmt.Errorf("row outside [%d, %d]", st.lo, st.hi)
			}
		}
	case kInsert:
		if rep.Count != int64(len(st.vals)) {
			return fmt.Errorf("inserted %d rows, want %d", rep.Count, len(st.vals))
		}
		for _, v := range st.vals {
			c.ms.add(v, 1)
		}
		c.tally.ackedValues += int64(len(st.vals))
	case kUpdate:
		if rep.Count != 1 {
			return fmt.Errorf("updated %d rows, want 1", rep.Count)
		}
		c.ms.add(st.old, -1)
		c.ms.add(st.new, 1)
		c.tally.ackedValues++
	case kDelete:
		if rep.Count != 1 {
			return fmt.Errorf("deleted %d rows, want 1", rep.Count)
		}
		c.ms.add(st.old, -1)
	}
	return nil
}
