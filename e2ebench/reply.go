package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"selforg"
)

// reply is the part of a POST /sql answer the checker and the counter
// snapshot use. The rows array is not decoded into a slice: scanRows
// folds it into a digest in one pass, so checking a 50K-row answer costs
// a fraction of receiving it.
type reply struct {
	Count     int64         `json:"count"`
	Sum       int64         `json:"sum"`
	Truncated bool          `json:"truncated"`
	Stats     selforg.Stats `json:"stats"`

	rows    digest
	hasRows bool
	minRow  int64
	maxRow  int64
}

var rowsKey = []byte(`"rows":`)

func parseReply(body []byte) (reply, error) {
	var r reply
	env := body
	if i := bytes.Index(body, rowsKey); i >= 0 {
		open := bytes.IndexByte(body[i:], '[')
		if open < 0 {
			return r, fmt.Errorf("rows without an array")
		}
		open += i
		end := bytes.IndexByte(body[open:], ']')
		if end < 0 {
			return r, fmt.Errorf("unterminated rows array")
		}
		end += open
		if err := r.scanRows(body[open+1 : end]); err != nil {
			return r, err
		}
		// Decode the envelope with the array replaced by a scalar.
		env = make([]byte, 0, open+1+len(body)-end)
		env = append(append(append(env, body[:open]...), '0'), body[end+1:]...)
	}
	if err := json.Unmarshal(env, &r); err != nil {
		return r, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

// scanRows parses a comma-separated list of JSON integers.
func (r *reply) scanRows(b []byte) error {
	r.hasRows = true
	r.minRow, r.maxRow = 1<<63-1, -1<<63
	const (
		wantValue = iota // at the start or after a comma
		inNumber
		wantComma // after a number and whitespace
	)
	state := wantValue
	var v int64
	neg := false
	emit := func() {
		if neg {
			v = -v
		}
		r.rows.add(v)
		r.minRow, r.maxRow = min(r.minRow, v), max(r.maxRow, v)
		v, neg = 0, false
	}
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9' && state != wantComma:
			v = v*10 + int64(c-'0')
			state = inNumber
		case c == '-' && state == wantValue && !neg:
			neg = true
		case c == ',' && state != wantValue:
			if state == inNumber {
				emit()
			}
			state = wantValue
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
			if state == inNumber {
				emit()
				state = wantComma
			} else if neg {
				return fmt.Errorf("space after minus sign in rows")
			}
		default:
			return fmt.Errorf("unexpected byte %q in rows", c)
		}
	}
	switch {
	case state == inNumber:
		emit()
	case state == wantValue && (neg || r.rows.n > 0):
		return fmt.Errorf("trailing separator in rows")
	}
	return nil
}
