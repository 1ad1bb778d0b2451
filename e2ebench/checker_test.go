package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"selforg"
	"selforg/internal/server"
)

const (
	testRows = 20_000
	testSeed = 7
)

// newTestBench serves a small column through tamper (nil = untouched)
// and returns a client whose model matches the column.
func newTestBench(t *testing.T, durable bool, tamper func([]byte) []byte) (*bench, *client) {
	t.Helper()
	ob := selforg.NewObserver()
	cfg := server.Config{N: testRows, Seed: testSeed, MaxRows: maxWideRows, Observer: ob,
		Options: selforg.Options{Observability: selforg.Observability{Observer: ob}}}
	if durable {
		cfg.Options.Shards = 2
		cfg.Options.Durability.Dir = t.TempDir()
	}
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	h := srv.Handler()
	if tamper != nil {
		h = tamperWith(h, tamper)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	ms := newMultiset(domainLo, domainHi, referenceData(testRows, domainLo, domainHi, testSeed))
	c := newClient(0, ts.Listener.Addr().String(), 1, hotBuckets(1), ms, nil)
	t.Cleanup(c.close)
	return &bench{cfg: cfg, srv: srv, clients: []*client{c}}, c
}

// tamperWith rewrites every response body of h.
func tamperWith(h http.Handler, tamper func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		w.Write(tamper(rec.Body.Bytes()))
	})
}

var countField = regexp.MustCompile(`"count": (\d+)`)

func TestCheckerFlagsWrongCount(t *testing.T) {
	st := rangeRead(kCount, 100_000, 200_000)
	_, honest := newTestBench(t, false, nil)
	if _, ok := honest.run(st, 0); !ok {
		t.Fatalf("untampered COUNT failed the check")
	}
	_, c := newTestBench(t, false, func(b []byte) []byte {
		return countField.ReplaceAllFunc(b, func(m []byte) []byte {
			n, _ := strconv.Atoi(string(countField.FindSubmatch(m)[1]))
			return []byte(`"count": ` + strconv.Itoa(n+1))
		})
	})
	if _, ok := c.run(st, 0); ok || c.tally.failed != 1 {
		t.Fatalf("wrong count passed the check (failed=%d)", c.tally.failed)
	}
}

func TestCheckerFlagsWrongRow(t *testing.T) {
	st := rangeRead(kSelect, 300_000, 320_000)
	_, honest := newTestBench(t, false, nil)
	if _, ok := honest.run(st, 0); !ok {
		t.Fatalf("untampered SELECT failed the check")
	}
	// Replace the first row by another value inside the range: the count
	// and the range bounds still hold, only the row multiset is wrong.
	_, c := newTestBench(t, false, func(b []byte) []byte {
		i := bytes.Index(b, rowsKey)
		j := i + bytes.IndexAny(b[i:], "0123456789")
		k := j
		for b[k] >= '0' && b[k] <= '9' {
			k++
		}
		v, _ := strconv.ParseInt(string(b[j:k]), 10, 64)
		w := int64(300_000)
		if v == w {
			w++
		}
		return append(append(append([]byte(nil), b[:j]...), strconv.FormatInt(w, 10)...), b[k:]...)
	})
	if _, ok := c.run(st, 0); ok || c.tally.failed != 1 {
		t.Fatalf("wrong row passed the check (failed=%d)", c.tally.failed)
	}
}

func TestRestartFlagsLostAckedWrite(t *testing.T) {
	for _, lose := range []bool{false, true} {
		b, c := newTestBench(t, true, nil)
		for _, v := range []int64{5, 500_000, 999_999} {
			st := statement{kind: kInsert, vals: []int64{v}, sql: "INSERT INTO P VALUES (" + strconv.FormatInt(v, 10) + ")"}
			if _, ok := c.run(st, 0); !ok {
				t.Fatalf("insert %d failed", v)
			}
		}
		if lose {
			// Reopen over an empty log: the acked inserts are gone.
			b.cfg.Options.Durability.Dir = t.TempDir()
		}
		lost, _, _, err := b.restart()
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int64{false: 0, true: 3}[lose]; lost != want {
			t.Fatalf("lose=%v: restart check counted %d lost rows, want %d", lose, lost, want)
		}
	}
}

func TestSetupRejectsWrongReference(t *testing.T) {
	w, err := findWorkload("narrow-agg")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, dataSeed: 42, workdir: t.TempDir()}
	ms := newMultiset(domainLo, domainHi, referenceData(rows, domainLo, domainHi, o.dataSeed+1))
	if b, _, _, err := setUp(w, o, []*multiset{ms}, hotBuckets(1)); err == nil {
		b.close()
		t.Fatal("setup accepted a column that differs from the reference")
	}
}

func TestMultisetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const lo, hi = 100, 1_099
	var vals []int64
	for i := 0; i < 5_000; i++ {
		vals = append(vals, lo+rng.Int63n(hi-lo+1))
	}
	m := newMultiset(lo, hi, vals)
	for i := 0; i < 2_000; i++ {
		if i%2 == 0 {
			v := lo + rng.Int63n(hi-lo+1)
			m.add(v, 1)
			vals = append(vals, v)
		} else {
			j := rng.Intn(len(vals))
			m.add(vals[j], -1)
			vals = append(vals[:j], vals[j+1:]...)
		}
	}
	sorted := append([]int64(nil), vals...)
	slices.Sort(sorted)
	for k := int64(0); k < int64(len(sorted)); k += 97 {
		if got := m.kth(k); got != sorted[k] {
			t.Fatalf("kth(%d) = %d, want %d", k, got, sorted[k])
		}
	}
	for i := 0; i < 200; i++ {
		a, b := lo-50+rng.Int63n(hi-lo+100), lo-50+rng.Int63n(hi-lo+100)
		var want digest
		for _, v := range vals {
			if v >= a && v <= b {
				want.add(v)
			}
		}
		if got := m.rangeDigest(a, b); got != want {
			t.Fatalf("rangeDigest(%d, %d) = %+v, want %+v", a, b, got, want)
		}
	}
	if d := m.diff(vals); d != 0 {
		t.Fatalf("diff of the model's own rows = %d", d)
	}
	if d := m.diff(append(vals[1:], hi+1)); d != 2 {
		t.Fatalf("diff with one row swapped for an out-of-range one = %d, want 2", d)
	}
}

func TestScanRows(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int64
		ok   bool
	}{
		{"", nil, true},
		{"1,2,3", []int64{1, 2, 3}, true},
		{"\n    1,\n    -20,\n    300\n  ", []int64{1, -20, 300}, true},
		{"1,,2", nil, false},
		{"1,2,", nil, false},
		{"1 2", nil, false},
		{"- 1", nil, false},
		{"1.5", nil, false},
	} {
		var r reply
		err := r.scanRows([]byte(tc.in))
		if (err == nil) != tc.ok {
			t.Errorf("scanRows(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		var want digest
		for _, v := range tc.want {
			want.add(v)
		}
		if tc.ok && r.rows != want {
			t.Errorf("scanRows(%q) = %+v, want %+v", tc.in, r.rows, want)
		}
	}
}
