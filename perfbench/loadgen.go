package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Open-loop load generation: op i is due at start + i/rate whatever the
// state of earlier ops, and its latency runs from that due time, so a
// stall also charges the ops queued behind it. One dispatcher hands each
// op to a fixed pool of workers when it is due (no goroutine per op). The
// ops themselves are generated before the window opens.

// drainGrace is how long after the window the generator waits for ops in
// flight. An op still outstanding then counts as failed.
const drainGrace = 2 * time.Second

// loadResult is one window of open-loop load.
type loadResult struct {
	attempted int
	completed int
	failed    int
	lat       []time.Duration // per completed op, from its due time
	byKind    [][]time.Duration
	elapsed   time.Duration
	cpu       time.Duration
	lateMax   time.Duration // worst delay between an op's due time and its issue
}

// runOpenLoop issues n ops at rate per second on workers goroutines.
// do runs op i and returns its kind (an index into byKind) and error. It
// returns once every worker has exited.
func runOpenLoop(n int, rate float64, workers, kinds int, do func(i int) (kind int, err error)) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	type done struct {
		kind int
		lat  time.Duration
		late time.Duration
		err  error
		at   time.Time
	}
	results := make([]done, n)
	jobs := make(chan int, workers)
	var wg sync.WaitGroup
	restore := preciseTimer()
	cpu0 := cpuTime()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due := start.Add(time.Duration(i) * interval)
				late := time.Since(due)
				kind, err := do(i)
				now := time.Now()
				results[i] = done{kind: kind, lat: now.Sub(due), late: late, err: err, at: now}
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		for time.Now().Before(due) {
			sleepUntil(due)
		}
		jobs <- i
	}
	restore()
	close(jobs)
	wg.Wait()
	cpu := cpuTime() - cpu0

	deadline := start.Add(time.Duration(n)*interval + drainGrace)
	res := loadResult{attempted: n, byKind: make([][]time.Duration, kinds), cpu: cpu}
	for _, d := range results {
		res.lateMax = max(res.lateMax, d.late)
		if d.err != nil || d.at.After(deadline) {
			res.failed++
			continue
		}
		res.completed++
		res.lat = append(res.lat, d.lat)
		res.byKind[d.kind] = append(res.byKind[d.kind], d.lat)
		res.elapsed = max(res.elapsed, d.at.Sub(start))
	}
	return res
}

// sleepUntil blocks until t. time.Sleep rounds a wait up to the runtime
// poller's millisecond, which would add up to 1 ms of generator lag to
// every op; nanosleep overshoots by the kernel's timer slack (~50 us).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only ends early
	}
}

// Linux prctl options for a thread's timer slack.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// preciseTimer pins the calling goroutine to its thread and lowers that
// thread's timer slack from the default 50 us to 1 ns, so its nanosleeps
// wake within ~10-25 us of their target: the generator's own wake-up jitter
// is otherwise a quarter to a half of a 1000 ops/s op's median latency.
// If prctl fails the default slack stays, which only costs precision. The
// returned function restores the slack and unpins the goroutine.
func preciseTimer() (restore func()) {
	runtime.LockOSThread()
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	_, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		if errno == 0 {
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		}
		runtime.UnlockOSThread()
	}
}
