package main

import (
	"sort"
	"sync"
	"time"
)

// step is one open-loop phase: a fixed rate held for a duration.
type step struct {
	rate float64 // requests per second
	dur  time.Duration
}

// count is how many requests the step schedules.
func (s step) count() int { return int(s.rate * s.dur.Seconds()) }

// shot is one scheduled request's timing. Latency runs from due, the time
// the schedule said to send it, so a stall that delays later requests is
// charged to them as well (no coordinated omission).
type shot struct {
	due   time.Time
	start time.Time     // when a connection took it up
	first time.Duration // from start to the first response line
	end   time.Time
	ok    bool
}

func (s shot) latency() time.Duration { return s.end.Sub(s.due) }

// late is how far behind its schedule the generator sent the request.
func (s shot) late() time.Duration { return s.start.Sub(s.due) }

// openLoop sends the step's requests on its fixed schedule, independent of
// how fast responses come back, over at most conns concurrent connections:
// a request due while every connection is busy waits for one, and that wait
// counts in its latency. do performs request k (numbered from offset) and
// reports the time to its first response line and whether it succeeded.
// openLoop returns once every scheduled request has completed.
func openLoop(st step, conns, offset int, do func(k int) (time.Duration, bool)) []shot {
	shots := make([]shot, st.count())
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &shots[i]
				s.start = time.Now()
				s.first, s.ok = do(offset + i)
				s.end = time.Now()
			}
		}()
	}
	begin := time.Now()
	for i := range shots {
		due := begin.Add(time.Duration(float64(i) / st.rate * float64(time.Second)))
		// The runtime wakes sleepers up to about a millisecond late; that
		// lateness counts in the latency from due time and shows in
		// serve.gen_late_ms_p99, but not in the service time. Spinning
		// instead would take a core from the server.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		shots[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return shots
}

// latencies returns the shots' latencies from due time, ascending, in ms; a
// failed request counts as missing any limit.
func latencies(shots []shot) []float64 {
	ds := make([]time.Duration, len(shots))
	for i, s := range shots {
		ds[i] = s.latency()
		if !s.ok {
			ds[i] = time.Hour
		}
	}
	return sortedMS(ds)
}

// tailWindows is how many consecutive windows windowedTail splits a phase
// into.
const tailWindows = 5

// windowedTail is the median, over tailWindows consecutive windows of the
// shots, of each window's tail latency (the highest percentile with ten
// samples beyond it: p95.6 for the traced nominal phase at the standard
// run length, p97.8 for the untraced one). A single stall of the host then moves one window, not the
// reported value.
func windowedTail(shots []shot) float64 {
	var tails []float64
	n := len(shots) / tailWindows
	for w := 0; w < tailWindows; w++ {
		t, _ := tail(latencies(shots[w*n : (w+1)*n]))
		tails = append(tails, t)
	}
	sort.Float64s(tails)
	return median(tails)
}
