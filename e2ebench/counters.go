package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"selforg"
)

// snapshot is the counters the program already exports, read from
// outside it before and after a measured phase.
type snapshot struct {
	mem          runtime.MemStats
	diskWrite    int64 // /proc/self/io write_bytes
	hits, misses int64 // Server.CacheStats
	totals       selforg.Stats
	delta        selforg.DeltaStats
	wal          selforg.WALStats
	metrics      map[string]float64 // /metrics, summed over label sets
}

func (b *bench) snapshot() (snapshot, error) {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	var err error
	if s.diskWrite, err = procWriteBytes(); err != nil {
		return s, err
	}
	s.hits, s.misses, _ = b.srv.CacheStats()
	s.totals = b.col.Totals()
	s.delta = b.col.DeltaStats()
	s.wal, _ = b.col.WALStats()
	s.metrics, err = scrapeMetrics(b.hc, b.base+"/metrics")
	return s, err
}

// procWriteBytes reads the bytes this process caused to be sent to
// storage.
func procWriteBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("read io counters: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no write_bytes in /proc/self/io")
}

// userHZ is the unit of the /proc/stat CPU counters, fixed by the
// kernel ABI at 1/100 s.
const userHZ = 100

// procSteal reads the time the hypervisor kept the VM's CPUs from
// running while they had work, summed over all CPUs (the steal column
// of /proc/stat), and the number of CPUs it is summed over. The time is
// zero on a machine that is not virtualized.
func procSteal() (time.Duration, int, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("read CPU counters: %w", err)
	}
	lines := strings.Split(string(raw), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("no steal column in /proc/stat: %q", lines[0])
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("steal column: %w", err)
	}
	cpus := 0
	for _, l := range lines[1:] {
		if len(l) > 3 && strings.HasPrefix(l, "cpu") && l[3] >= '0' && l[3] <= '9' {
			cpus++
		}
	}
	return time.Duration(ticks) * time.Second / userHZ, max(cpus, 1), nil
}

// stealClock times one interval and the CPU time stolen in it.
type stealClock struct {
	start  time.Time
	steal  time.Duration // procSteal at start
	cpus   int
	wall   time.Duration
	stolen time.Duration
}

func (c *stealClock) begin() error {
	var err error
	c.steal, c.cpus, err = procSteal()
	c.start = time.Now()
	return err
}

func (c *stealClock) end() error {
	c.wall = time.Since(c.start)
	steal, _, err := procSteal()
	c.stolen = steal - c.steal
	return err
}

// given is the CPU capacity the VM had over the interval, in seconds of
// all its CPUs: the wall time less the stolen CPU time spread over the
// CPUs. On a shared host steal comes and goes over minutes, and a
// program that is waiting for a CPU the hypervisor took loses that time;
// the steal, not the program, is what moves wall-clock figures from one
// run to the next. The capacity is never counted as less than half the
// wall time.
func (c *stealClock) given() time.Duration {
	return max(c.wall-c.stolen/time.Duration(c.cpus), c.wall/2)
}

// capacity is given over the wall time: the share of the interval the
// VM had its CPUs, between 0.5 and 1.
func (c *stealClock) capacity() float64 { return float64(c.given()) / float64(c.wall) }

// stealShare is the share of the VM's CPU time over the interval that
// the hypervisor stole.
func (c *stealClock) stealShare() float64 {
	return c.stolen.Seconds() / (c.wall.Seconds() * float64(c.cpus))
}

// scrapeMetrics fetches a Prometheus text exposition and sums each
// family's samples over their label sets.
func scrapeMetrics(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape metrics: %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}
