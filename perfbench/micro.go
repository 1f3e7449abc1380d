package main

import (
	"fmt"
	"os"
	"time"

	"ftdag/internal/deque"
	"ftdag/internal/journal"
	"ftdag/internal/sched"
)

// Direct calls into the deque, the scheduler's spawn path and the journal,
// for the per-layer costs no end-to-end run can isolate. Each is the median
// of microReps timed batches.
const (
	microOps  = 1 << 16
	microReps = 5
	fsyncOps  = 64
)

func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return quantile(xs, 0.5)
}

func nsPerOp(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// microBenches sets the deque.*, sched.spawn_ns and, when withJournal is
// set, journal.append_fsync_us metrics. The journal is written under dir.
func microBenches(res *result, withJournal bool, dir string) error {
	v := 0
	res.set("deque.push_pop_ns", medianOf(microReps, func() float64 {
		d := deque.New[int]()
		start := time.Now()
		for i := 0; i < microOps; i++ {
			d.PushBottom(&v)
			d.PopBottom()
		}
		return nsPerOp(start, microOps)
	}), "ns")
	res.set("deque.steal_ns", medianOf(microReps, func() float64 {
		d := deque.New[int]()
		for i := 0; i < microOps; i++ {
			d.PushBottom(&v)
		}
		start := time.Now()
		for i := 0; i < microOps; i++ {
			d.Steal()
		}
		return nsPerOp(start, microOps)
	}), "ns")
	res.set("sched.spawn_ns", medianOf(microReps, func() float64 {
		var per float64
		sched.Run(1, func(w *sched.Worker) {
			start := time.Now()
			for i := 0; i < microOps; i++ {
				w.Spawn(func(*sched.Worker) {})
			}
			per = nsPerOp(start, microOps)
		})
		return per
	}), "ns")
	if !withJournal {
		return nil
	}
	jdir, err := os.MkdirTemp(dir, "journal-micro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	j, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		return err
	}
	lat := make([]float64, 0, fsyncOps)
	for i := 0; i < fsyncOps; i++ {
		start := time.Now()
		if err := j.Append(journal.Record{Kind: journal.Submitted, ID: int64(i + 1), Name: "micro"}); err != nil {
			_ = j.Close()
			return fmt.Errorf("journal append: %w", err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	res.set("journal.append_fsync_us", quantile(lat, 0.5), "us")
	return j.Close()
}
