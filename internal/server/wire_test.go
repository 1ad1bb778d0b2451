package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"selforg"
)

// TestWireBytes holds every answer body to the compact encoding/json
// form of its value: json.Marshal(v) + "\n". Two servers with identical
// configuration see the same operation sequence — one over the HTTP
// handler, the reference through Exec and the column API — so their
// answers, stats included, are equal by the tier's determinism
// (TestCachedUncachedEquivalence), and any byte difference is the
// writer's.
func TestWireBytes(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Extent = selforg.Interval{Lo: -5000, Hi: 4999} // negative rows
			cfg.MaxRows = 10_000
			cfg.Options.Shards = shards
			srv := New(cfg)
			defer srv.Close()
			cfg.Observer = selforg.NewObserver()
			ref := New(cfg)
			defer ref.Close()
			h := srv.Handler()

			// answer is the value a /sql body must encode.
			answer := func(tenant, stmt string, explain bool) any {
				res, err := ref.Exec(tenant, stmt)
				if err != nil {
					return newErrorBody(err)
				}
				if explain {
					return struct {
						*Result
						Plan string `json:"plan"`
					}{res, res.Plan}
				}
				return res
			}
			sqlCase := func(name, tenant, stmt string, explain bool, check func(*Result)) wireCase {
				target := "/sql?tenant=" + url.QueryEscape(tenant)
				if explain {
					target += "&explain=1"
				}
				return wireCase{name, target, stmt, func() any {
					v := answer(tenant, stmt, explain)
					if res, ok := v.(*Result); ok && check != nil {
						check(res)
					}
					return v
				}}
			}
			writeCase := func(op, query string, do func(*selforg.Column) (bool, selforg.Stats, error)) wireCase {
				return wireCase{"write " + op, "/write?op=" + op + "&" + query, "", func() any {
					col, err := ref.Tenant("")
					if err != nil {
						t.Fatal(err)
					}
					hit, st, err := do(col)
					if err != nil {
						t.Fatal(err)
					}
					return struct {
						OK    bool          `json:"ok"`
						Stats selforg.Stats `json:"stats"`
					}{hit, st}
				}}
			}

			const full = "SELECT v FROM P WHERE v BETWEEN -5000 AND 4999"
			cases := []wireCase{
				sqlCase("count", "", "SELECT COUNT(*) FROM P WHERE v BETWEEN -100 AND 200", false, nil),
				sqlCase("sum", "", "SELECT SUM(v) FROM P WHERE v BETWEEN -100 AND 300", false, func(r *Result) {
					if r.Sum == 0 {
						t.Error("sum case summed to zero")
					}
				}),
				sqlCase("zero sum", "", "SELECT SUM(v) FROM P WHERE v BETWEEN 6000 AND 7000", false, nil),
				sqlCase("select empty", "", "SELECT v FROM P WHERE v BETWEEN 6000 AND 7000", false, func(r *Result) {
					if r.Rows != nil {
						t.Errorf("empty select carries %d rows", r.Rows.Len())
					}
				}),
				sqlCase("select negative", "", "SELECT v FROM P WHERE v BETWEEN -3000 AND -2900", false, func(r *Result) {
					if r.Rows.Len() == 0 || r.Rows.Values()[0] >= 0 {
						t.Error("select returned no negative rows")
					}
				}),
				sqlCase("select truncated", "", full, false, nil),
				// Again, now answered from the adapted layout.
				sqlCase("select chunked", "", full, false, func(r *Result) {
					if !r.Truncated || r.Rows.Len() != cfg.MaxRows {
						t.Errorf("select not truncated at MaxRows: %d rows, truncated=%v", r.Rows.Len(), r.Truncated)
					}
					if shards > 1 && chunkCount(r.Rows) < 2 {
						t.Errorf("sharded select answered from %d chunk", chunkCount(r.Rows))
					}
				}),
				sqlCase("explain", "", "SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2", true, nil),
				sqlCase("hostile tenant", "a<&>\"\xff", "SELECT COUNT(*) FROM P WHERE v BETWEEN 1 AND 2", false, nil),
				sqlCase("sql insert", "", "INSERT INTO P VALUES (-17), (42)", false, nil),
				sqlCase("sql update", "", "UPDATE P SET v = -18 WHERE v = -17", false, nil),
				sqlCase("sql delete", "", "DELETE FROM P WHERE v = 42", false, nil),
				sqlCase("create", "t1", "CREATE TABLE m (a, b)", false, nil),
				sqlCase("tenant insert", "t1", "INSERT INTO m VALUES (1, -10), (2, 20), (3, -30)", false, nil),
				sqlCase("tenant update", "t1", "UPDATE m SET b = 99 WHERE a = 2", false, nil),
				sqlCase("tenant delete", "t1", "DELETE FROM m WHERE a = 3", false, nil),
				sqlCase("tenant tuples", "t1", "SELECT a, b FROM m WHERE a BETWEEN 0 AND 9", false, func(r *Result) {
					if len(r.Tuples) != 2 {
						t.Errorf("tuples = %v", r.Tuples)
					}
				}),
				sqlCase("tenant single column", "t1", "SELECT b FROM m WHERE a BETWEEN 0 AND 9", false, nil),
				writeCase("insert", "v=77", func(c *selforg.Column) (bool, selforg.Stats, error) {
					st, err := c.Insert(77)
					return true, st, err
				}),
				writeCase("update", "old=77&new=-77", func(c *selforg.Column) (bool, selforg.Stats, error) {
					return c.Update(77, -77)
				}),
				writeCase("delete", "v=-77", func(c *selforg.Column) (bool, selforg.Stats, error) {
					return c.Delete(-77)
				}),
			}
			for _, c := range cases {
				v := c.want()
				want, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.target, strings.NewReader(c.body)))
				got := rec.Body.String()
				if got != string(want)+"\n" {
					t.Errorf("%s: body differs from json.Marshal\n got  %.300q\n want %.300q", c.name, got, string(want)+"\n")
				}
				// json.Marshal(v) formats rows with the writer's own
				// formatter (Rows.MarshalJSON), so also hold them to
				// encoding/json's encoding of a plain []int64.
				if res, ok := v.(*Result); ok && res.Rows != nil {
					plain, err := json.Marshal(res.Rows.Values())
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(got, `,"rows":`+string(plain)+`,`) {
						t.Errorf("%s: rows differ from json.Marshal([]int64)\n got  %.300q\n want rows %.300q", c.name, got, plain)
					}
				}
			}
		})
	}
}

// wireCase is one request against the handler and the value its body
// must encode, computed on the reference server.
type wireCase struct {
	name, target, body string
	want               func() any
}

func chunkCount(r *Rows) int {
	n := 0
	r.chunked.Chunks(func([]int64) bool { n++; return true })
	return n
}

// TestWireStrings holds the string fields to encoding/json's escaping:
// HTML-safe <>&, escaped quotes and control characters, invalid UTF-8
// as \ufffd. The server's own names never need escaping, so the
// hostile ones are set directly on a Result.
func TestWireStrings(t *testing.T) {
	for _, s := range []string{
		"", "select", "SELECT COUNT ( * ) FROM P WHERE v BETWEEN ? AND ?",
		"a<&>\"\xff", "x<y", "a>b", "1 & 2", "say \"hi\"", "tab\there\nnewline",
		"back\\slash", "\x7f\x00", "\xff", "héllo\u2028",
	} {
		res := &Result{Op: s, Fingerprint: s, Tenant: s, Plan: s, Columns: []string{s, "b"}, Tuples: [][]int64{{1, -2}, nil}}
		want, _ := json.Marshal(struct {
			*Result
			Plan string `json:"plan"`
		}{res, res.Plan})
		var got strings.Builder
		if err := writeResult(&got, res, true); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want)+"\n" {
			t.Errorf("%q:\n got  %s want %s", s, got.String(), want)
		}
	}
}

// failingWriter is a ResponseWriter whose writes fail once more than
// budget bytes were offered, as when the client has gone away.
type failingWriter struct {
	header        http.Header
	budget        int
	offered       int
	calls, failed int
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(b []byte) (int, error) {
	w.calls++
	w.offered += len(b)
	if w.offered > w.budget {
		w.failed++
		return 0, errors.New("client gone")
	}
	return len(b), nil
}

// TestWireStopsAtFailedWrite: once a write fails, the writer formats no
// further rows, so it never offers another block.
func TestWireStopsAtFailedWrite(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	const stmt = "SELECT v FROM P WHERE v BETWEEN 0 AND 9999" // 20K rows
	var whole strings.Builder
	res, err := s.Exec("", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeResult(&whole, res, false); err != nil {
		t.Fatal(err)
	}
	if whole.Len() <= 2*wireBlock {
		t.Fatalf("answer is %d bytes, want more than two %d-byte blocks", whole.Len(), wireBlock)
	}
	for _, budget := range []int{0, 1000, wireBlock + 100} {
		w := &failingWriter{header: http.Header{}, budget: budget}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader(stmt)))
		if w.failed != 1 || w.calls != budget/wireBlock+1 {
			t.Errorf("budget %d: %d writes, %d failed; want the writes to stop at the first failure",
				budget, w.calls, w.failed)
		}
	}
}
