package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// runClock is the runner.Progress hook of the untraced repro workloads. It
// counts completed runs and times each one: the runner calls RunDone on the
// worker goroutine right after the run returns and that worker then claims
// its next run, so a run lasts from the previous RunDone on the same
// goroutine (or from Start, for a worker's first run) to its own RunDone.
// Workers are told apart by goroutine id; a pool's workers are fresh
// goroutines, so ids never carry over from one pool to the next.
type runClock struct {
	done atomic.Int64

	mu    sync.Mutex
	start time.Time           // the current pool's Start
	last  map[int64]time.Time // per worker goroutine: its previous RunDone
	lat   []float64           // per-run latency, ms
	busy  time.Duration       // sum of run latencies
}

func newRunClock() *runClock { return &runClock{last: map[int64]time.Time{}} }

func (c *runClock) Start(int) {
	c.mu.Lock()
	c.start = time.Now()
	clear(c.last)
	c.mu.Unlock()
}

func (c *runClock) RunDone() {
	now := time.Now()
	id := goid()
	c.done.Add(1)
	c.mu.Lock()
	from, ok := c.last[id]
	if !ok || from.Before(c.start) {
		from = c.start
	}
	c.last[id] = now
	d := now.Sub(from)
	c.lat = append(c.lat, float64(d)/1e6)
	c.busy += d
	c.mu.Unlock()
}

// take returns and resets the latencies and busy time gathered so far.
func (c *runClock) take() (lat []float64, busy time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lat, busy = c.lat, c.busy
	c.lat, c.busy = nil, 0
	return lat, busy
}

// goid returns the calling goroutine's id, read from the header line of its
// stack trace ("goroutine 123 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}
