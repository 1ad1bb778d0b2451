package server

import (
	"encoding/json"
	"math"
	"strconv"

	"selforg"
)

// Rows is the wire form of a single-column result set. On the serving
// side it wraps the facade's chunked result (selforg.Rows), and the
// HTTP writer streams its digits straight out of the rope's chunks —
// the flat []int64 is never materialized. On the client side (and in
// tests) it unmarshals back into a flat slice; the JSON bytes are
// identical to the []int64 encoding.
type Rows struct {
	chunked *selforg.Rows // serving-side rope source; nil when flat
	n       int           // rows to emit from chunked (MaxRows truncation)
	flat    []int64       // decoded or explicitly-built form
}

// NewRows wraps an already-flat row slice (multi-column results project
// their single column through here).
func NewRows(flat []int64) *Rows { return &Rows{flat: flat} }

// chunkedRows wraps a facade result, emitting at most n rows.
// Requires n <= r.Len().
func chunkedRows(r *selforg.Rows, n int) *Rows {
	return &Rows{chunked: r, n: n}
}

// Len returns the number of rows the result carries (after truncation).
func (r *Rows) Len() int {
	if r == nil {
		return 0
	}
	if r.chunked != nil {
		return r.n
	}
	return len(r.flat)
}

// Values returns the rows as a flat slice. Callers must not mutate it:
// on the serving side it may alias column storage.
func (r *Rows) Values() []int64 {
	if r == nil {
		return nil
	}
	if r.chunked == nil {
		return r.flat
	}
	return r.chunked.Flatten()[:r.n]
}

// MarshalJSON encodes the rows as a JSON array, walking the chunked
// source in place — no intermediate flat slice.
func (r *Rows) MarshalJSON() ([]byte, error) {
	ww := wireWriter{buf: make([]byte, 0, 2+r.Len()*8), limit: math.MaxInt}
	r.appendTo(&ww)
	return ww.buf, nil
}

// appendTo appends the rows to ww as a JSON array. It is the one place
// rows are formatted: the HTTP writer and MarshalJSON both call it. The
// buffer goes to the client each time it reaches ww.limit; at the first
// failed write formatting stops and appendTo reports false.
func (r *Rows) appendTo(ww *wireWriter) bool {
	sep := byte('[')
	put := func(vals []int64) bool {
		buf := ww.buf
		for _, v := range vals {
			buf = strconv.AppendInt(append(buf, sep), v, 10)
			sep = ','
			if len(buf) >= ww.limit {
				ww.buf = buf
				if !ww.flush() {
					return false
				}
				buf = ww.buf
			}
		}
		ww.buf = buf
		return true
	}
	switch {
	case r == nil:
	case r.chunked != nil:
		left := r.n
		r.chunked.Chunks(func(vals []int64) bool {
			if len(vals) > left {
				vals = vals[:left]
			}
			left -= len(vals)
			return put(vals) && left > 0
		})
	default:
		put(r.flat)
	}
	if sep == '[' {
		ww.buf = append(ww.buf, '[')
	}
	ww.buf = append(ww.buf, ']')
	return ww.err == nil
}

// UnmarshalJSON decodes a JSON row array into the flat form.
func (r *Rows) UnmarshalJSON(b []byte) error {
	r.chunked, r.n = nil, 0
	return json.Unmarshal(b, &r.flat)
}
