package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"selforg"
	"selforg/internal/sql"
)

// maxStatementBytes bounds the /sql request body; the supported
// statement class is a single line, so anything larger is abuse.
const maxStatementBytes = 1 << 20

// errorBody is the JSON error envelope of every non-2xx answer.
type errorBody struct {
	Error string `json:"error"`
	// Offset is the byte position of a syntax error in the submitted
	// statement (present only for syntax errors).
	Offset *int `json:"offset,omitempty"`
}

// writeJSON writes the compact JSON of the small answers: errors,
// /query, /write and /plans/flush. SQL results go through writeResult.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// wireBlock is the size of the blocks a SQL answer reaches the socket
// in: the writer formats into a pooled buffer and hands it to the
// ResponseWriter each time it fills.
const wireBlock = 32 << 10

// wireBufs pools the answer buffers, so an answer allocates no buffer
// and none stays pinned between requests. Room past wireBlock holds
// the last row formatted before a flush. A buffer the envelope grew
// beyond maxPooled (a huge explain plan) is dropped, not pooled.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, wireBlock+64)
	return &b
}}

const maxPooled = 2 * wireBlock

// wireWriter accumulates JSON in buf and writes it to w once it holds
// limit bytes. The first failed write is kept in err; after it nothing
// more is written, and the row formatter stops.
type wireWriter struct {
	w     io.Writer
	buf   []byte
	limit int
	err   error
}

// flush writes out the buffer and empties it, reporting whether the
// write succeeded. Callers stop formatting at the first failure.
func (ww *wireWriter) flush() bool {
	_, ww.err = ww.w.Write(ww.buf)
	ww.buf = ww.buf[:0]
	return ww.err == nil
}

// writeResult writes res as compact JSON: the bytes of
// json.NewEncoder(w).Encode(res), with "plan" appended last when
// explain is set. Rows go straight from the result rope into the
// buffer, so the answer is formatted once and never held whole.
func writeResult(w io.Writer, res *Result, explain bool) error {
	bp := wireBufs.Get().(*[]byte)
	ww := wireWriter{w: w, buf: (*bp)[:0], limit: wireBlock}
	if res.appendTo(&ww, explain) {
		ww.buf = append(ww.buf, '\n')
		ww.flush()
	}
	if cap(ww.buf) <= maxPooled {
		*bp = ww.buf
		wireBufs.Put(bp)
	}
	return ww.err
}

// appendTo appends res to ww in Result's field order, with its
// omitempty rules; TestWireBytes holds it to json.Marshal. It reports
// false when a write failed on the way.
func (res *Result) appendTo(ww *wireWriter, explain bool) bool {
	b := append(ww.buf, `{"op":`...)
	b = appendString(b, res.Op)
	b = strconv.AppendInt(append(b, `,"count":`...), res.Count, 10)
	if res.Sum != 0 {
		b = strconv.AppendInt(append(b, `,"sum":`...), res.Sum, 10)
	}
	if res.Rows != nil {
		ww.buf = append(b, `,"rows":`...)
		if !res.Rows.appendTo(ww) {
			return false
		}
		b = ww.buf
	}
	if len(res.Columns) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range res.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	if len(res.Tuples) > 0 {
		b = append(b, `,"tuples":[`...)
		for i, t := range res.Tuples {
			if i > 0 {
				b = append(b, ',')
			}
			if t == nil {
				b = append(b, "null"...)
				continue
			}
			ww.buf = b
			if !NewRows(t).appendTo(ww) {
				return false
			}
			b = ww.buf
		}
		b = append(b, ']')
	}
	if res.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	st, _ := json.Marshal(&res.Stats)
	b = append(append(b, `,"stats":`...), st...)
	b = strconv.AppendBool(append(b, `,"cached":`...), res.Cached)
	b = appendString(append(b, `,"fingerprint":`...), res.Fingerprint)
	b = appendString(append(b, `,"tenant":`...), res.Tenant)
	if explain {
		b = appendString(append(b, `,"plan":`...), res.Plan)
	}
	ww.buf = append(b, '}')
	return true
}

// appendString appends s as a JSON string exactly as encoding/json
// writes it. Printable ASCII without quote, backslash or <>& — every
// op, fingerprint and tenant name the server produces — is copied
// between quotes; anything else (an explain plan's newlines, a hostile
// string) is marshalled by encoding/json itself, which HTML-escapes
// and turns invalid UTF-8 into U+FFFD.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, newErrorBody(err))
}

func newErrorBody(err error) errorBody {
	body := errorBody{Error: err.Error()}
	var se *sql.SyntaxError
	if errors.As(err, &se) {
		off := se.Offset
		body.Offset = &off
	}
	return body
}

// handleSQL is POST /sql: the statement in the body, ?tenant= routing,
// admission control in front of execution. A warm request costs one lex
// pass and a cache hit before it touches the column.
func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST a SQL statement"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxStatementBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxStatementBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("statement too large"))
		return
	}
	release, ok := s.gate.acquire()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("server saturated, retry later"))
		return
	}
	defer release()
	res, err := s.Exec(r.URL.Query().Get("tenant"), string(body))
	if err != nil {
		status := http.StatusInternalServerError
		if isClientError(err) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	writeResult(w, res, r.URL.Query().Get("explain") != "")
}

// handleQuery is the legacy GET /query?lo=&hi=[&op=count][&tenant=]
// endpoint of PR 6, kept for dashboards scripted against it; it routes
// through the same tenant registry but bypasses the SQL front end.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	lo, err1 := strconv.ParseInt(r.URL.Query().Get("lo"), 10, 64)
	hi, err2 := strconv.ParseInt(r.URL.Query().Get("hi"), 10, 64)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, errors.New("need integer lo= and hi= parameters"))
		return
	}
	col, err := s.Tenant(r.URL.Query().Get("tenant"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var (
		count int64
		st    selforg.Stats
	)
	if r.URL.Query().Get("op") == "count" {
		count, st = col.Count(lo, hi)
	} else {
		var res []int64
		res, st = col.Select(lo, hi)
		count = int64(len(res))
	}
	writeJSON(w, http.StatusOK, struct {
		Count    int64         `json:"count"`
		Stats    selforg.Stats `json:"stats"`
		Segments int           `json:"segments"`
		Totals   selforg.Stats `json:"totals"`
	}{count, st, col.SegmentCount(), col.Totals()})
}

// handleWrite is POST /write?op=insert|update|delete&v=|&old=&new=
// [&tenant=]: single-row MVCC writes against a tenant's column, the
// over-the-wire counterpart of Column.Insert/Update/Delete. Writes
// drive the delta store and its self-organizing merge-back exactly like
// library calls.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST writes"))
		return
	}
	col, err := s.Tenant(r.URL.Query().Get("tenant"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	parse := func(key string) (int64, error) {
		return strconv.ParseInt(q.Get(key), 10, 64)
	}
	var (
		st  selforg.Stats
		hit = true
	)
	switch q.Get("op") {
	case "insert":
		v, err := parse("v")
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("insert needs integer v="))
			return
		}
		st, err = col.Insert(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case "update":
		old, err1 := parse("old")
		nv, err2 := parse("new")
		if err1 != nil || err2 != nil {
			writeError(w, http.StatusBadRequest, errors.New("update needs integer old= and new="))
			return
		}
		hit, st, err = col.Update(old, nv)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	case "delete":
		v, perr := parse("v")
		if perr != nil {
			writeError(w, http.StatusBadRequest, errors.New("delete needs integer v="))
			return
		}
		hit, st, err = col.Delete(v)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, errors.New("op must be insert, update or delete"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK    bool          `json:"ok"`
		Stats selforg.Stats `json:"stats"`
	}{hit, st})
}

// handleFlush is POST /plans/flush: administrative plan-cache
// invalidation (the catalog-epoch bump exposed over the wire).
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST to flush"))
		return
	}
	s.InvalidatePlans()
	writeJSON(w, http.StatusOK, struct {
		Flushed bool  `json:"flushed"`
		Epoch   int64 `json:"epoch"`
	}{true, s.cache.Epoch()})
}
