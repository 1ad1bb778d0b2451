package main

import "math/rand"

// referenceData mirrors the server's data generation for the default
// tenant (sim.GenerateColumn under Config.Seed) without importing it, so
// a change to the generator shows up as a setup failure instead of
// silently changing what the checker expects.
func referenceData(n int, lo, hi, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = lo + rng.Int63n(hi-lo+1)
	}
	return vals
}

// multiset is the checker's model of the rows in [lo, hi]: a count per
// value plus Fenwick trees of counts, value sums and value hashes, so the
// expected COUNT, SUM and row digest of any range, and the k-th live
// value, cost O(log n) after every acked write.
type multiset struct {
	lo, hi int64
	cnt    []int32
	fc     []int64  // Fenwick tree over counts (1-based)
	fs     []int64  // Fenwick tree over count*value
	fh     []uint64 // Fenwick tree over count*hash(value)
	total  int64
}

func newMultiset(lo, hi int64, vals []int64) *multiset {
	size := int(hi - lo + 1)
	m := &multiset{
		lo: lo, hi: hi,
		cnt: make([]int32, size),
		fc:  make([]int64, size+1),
		fs:  make([]int64, size+1),
		fh:  make([]uint64, size+1),
	}
	for _, v := range vals {
		if v >= lo && v <= hi {
			m.cnt[v-lo]++
			m.total++
		}
	}
	// Linear-time Fenwick build: each node pushes its sum to its parent.
	for i := 1; i <= size; i++ {
		c := int64(m.cnt[i-1])
		v := lo + int64(i-1)
		m.fc[i] += c
		m.fs[i] += c * v
		m.fh[i] += uint64(c) * hash(v)
		if j := i + i&-i; j <= size {
			m.fc[j] += m.fc[i]
			m.fs[j] += m.fs[i]
			m.fh[j] += m.fh[i]
		}
	}
	return m
}

func (m *multiset) clone() *multiset {
	return &multiset{
		lo: m.lo, hi: m.hi, total: m.total,
		cnt: append([]int32(nil), m.cnt...),
		fc:  append([]int64(nil), m.fc...),
		fs:  append([]int64(nil), m.fs...),
		fh:  append([]uint64(nil), m.fh...),
	}
}

// add changes the multiplicity of v by d.
func (m *multiset) add(v int64, d int) {
	m.cnt[v-m.lo] += int32(d)
	m.total += int64(d)
	h := uint64(d) * hash(v)
	for i := int(v-m.lo) + 1; i < len(m.fc); i += i & -i {
		m.fc[i] += int64(d)
		m.fs[i] += int64(d) * v
		m.fh[i] += h
	}
}

// prefix aggregates the first i positions.
func (m *multiset) prefix(i int) digest {
	var d digest
	for ; i > 0; i -= i & -i {
		d.n += m.fc[i]
		d.sum += m.fs[i]
		d.hash += m.fh[i]
	}
	return d
}

// rangeDigest aggregates the rows in [lo, hi], clamped to the multiset.
func (m *multiset) rangeDigest(lo, hi int64) digest {
	lo, hi = max(lo, m.lo), min(hi, m.hi)
	if lo > hi {
		return digest{}
	}
	a, b := m.prefix(int(lo-m.lo)), m.prefix(int(hi-m.lo)+1)
	return digest{n: b.n - a.n, sum: b.sum - a.sum, hash: b.hash - a.hash}
}

// kth returns the k-th smallest row (0-based); k must be below total.
func (m *multiset) kth(k int64) int64 {
	pos := 0
	step := 1
	for step*2 < len(m.fc) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		if next := pos + step; next < len(m.fc) && m.fc[next] <= k {
			pos = next
			k -= m.fc[next]
		}
	}
	return m.lo + int64(pos)
}

// diff returns how many rows vals holds more or fewer than the model:
// the sum over values of |actual multiplicity - expected multiplicity|,
// with every value outside [lo, hi] counting once.
func (m *multiset) diff(vals []int64) int64 {
	left := append([]int32(nil), m.cnt...)
	var out int64
	for _, v := range vals {
		if v < m.lo || v > m.hi {
			out++
			continue
		}
		left[v-m.lo]--
	}
	for _, c := range left {
		if c < 0 {
			c = -c
		}
		out += int64(c)
	}
	return out
}

// digest summarizes a multiset of rows: size, sum and the wrapping sum
// of a 64-bit mix of each value, which differs between two multisets
// that differ in any row with overwhelming probability.
type digest struct {
	n, sum int64
	hash   uint64
}

func (d *digest) add(v int64) {
	d.n++
	d.sum += v
	d.hash += hash(v)
}

// hash is the splitmix64 finalizer.
func hash(v int64) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
