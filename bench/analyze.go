package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// window is one second of the measured interval. A request belongs to
// the window in which it started (was due, or was sent), wherever its
// reply landed.
type window struct {
	ok      float64      // requests answered OK with the right payload
	lat     [2][]float64 // OK latencies per type, ns
	stalled bool         // the host stopped running the benchmark at some point in it
}

// measurement is what one run of a workload found, reduced to numbers.
type measurement struct {
	e2e       metricSet // setup_s is the caller's to add
	layers    metricSet
	attempted int64
	failed    int64
	windows   int
	perWindow [2]float64 // median OK samples per window, per type
	errs      []error
}

// gauges are the server-side readings that average over rigs; every
// other one is a count and adds up.
var gauges = map[string]bool{
	"darc.reserved_short_workers": true,
	"frontend.query_p50_us":       true,
	"frontend.query_p99_us":       true,
}

// reduce computes every client-side metric of the measured intervals of
// one or more rigs of a workload. An end-to-end timing or rate is
// computed per window and reported as the median across the windows of
// all rigs, leaving out those in which the watchdog saw the host stall.
// Neither a stall the watchdog missed nor one rig's luck (with DARC's
// first profiling window, say) moves a median; the whole-run tails are
// kept as per-layer diagnostics that show both.
func reduce(runs ...*liveRun) *measurement {
	res := &measurement{e2e: metricSet{}, layers: metricSet{}}
	var wins []window
	var late, shortAll, residual, queueLong []float64
	var queueShort, svcShort []float64
	var rt runtimeDelta
	badPayload := 0
	for _, run := range runs {
		res.errs = append(res.errs, run.errs...)
		if int64(len(run.samples)) != run.sent {
			res.errs = append(res.errs, fmt.Errorf("client ledger: sent %d != settled %d", run.sent, len(run.samples)))
		}
		first := len(wins)
		wins = append(wins, make([]window, run.seconds)...)
		for _, s := range run.samples {
			w := (s.start - run.t0) / int64(time.Second)
			if s.start < run.t0 || w >= int64(run.seconds) {
				continue
			}
			win := &wins[first+int(w)]
			res.attempted++
			late = append(late, float64(s.late))
			if s.outcome != outcomeOK {
				res.failed++
				if s.outcome == outcomeBadPayload {
					badPayload++
				}
				continue
			}
			win.ok++
			win.lat[s.typ] = append(win.lat[s.typ], float64(s.lat))
			residual = append(residual, float64(s.lat)-float64(s.queue)-float64(s.service))
			if s.typ == 0 {
				shortAll = append(shortAll, float64(s.lat))
				queueShort = append(queueShort, float64(s.queue))
				svcShort = append(svcShort, float64(s.service))
			} else {
				queueLong = append(queueLong, float64(s.queue))
			}
		}
		for _, st := range run.stalls {
			for w := max((st[0]-run.t0)/int64(time.Second), 0); w <= (st[1]-run.t0)/int64(time.Second) && w < int64(run.seconds); w++ {
				wins[first+int(w)].stalled = true
			}
		}
		rt.add(run.rt)
		for k, v := range run.server {
			if gauges[k] {
				v /= float64(len(runs))
			}
			res.layers[k] += v
		}
	}
	res.windows = len(wins)
	if badPayload > 0 {
		res.errs = append(res.errs, fmt.Errorf("%d replies carried a payload other than their request's", badPayload))
	}
	if res.attempted == 0 {
		res.errs = append(res.errs, fmt.Errorf("no request started inside the measured interval"))
		return res
	}

	// Stalled windows stay out of the end-to-end numbers, unless that
	// leaves fewer than half: then the host was too busy to measure on,
	// every window counts, and the caller warns.
	stalled := 0
	for i := range wins {
		if wins[i].stalled {
			stalled++
		}
	}
	res.layers["client.stalled_windows"] = float64(stalled)
	var ok, p50, p99, longP99 []float64
	var count [2][]float64
	for i := range wins {
		if wins[i].stalled && 2*stalled <= len(wins) {
			continue
		}
		ok = append(ok, wins[i].ok)
		for t := range wins[i].lat {
			count[t] = append(count[t], float64(len(wins[i].lat[t])))
		}
		if l := wins[i].lat[0]; len(l) > 0 {
			p50 = append(p50, quantileOf(l, 0.50))
			p99 = append(p99, quantile(l, 0.99))
		}
		if l := wins[i].lat[1]; len(l) > 0 {
			longP99 = append(longP99, quantileOf(l, 0.99))
		}
	}
	res.perWindow = [2]float64{median(count[0]), median(count[1])}
	res.e2e["goodput_rps"] = median(ok)
	res.e2e["short_p50_us"] = median(p50) / 1e3
	res.e2e["short_p99_us"] = median(p99) / 1e3
	if runs[0].spec.types > 1 {
		res.e2e["long_p99_us"] = median(longP99) / 1e3
	} else {
		// One request type: the slot repeats the type-0 tail (README.md).
		res.e2e["long_p99_us"] = res.e2e["short_p99_us"]
	}

	l := res.layers
	l["client.fail_share"] = float64(res.failed) / float64(res.attempted)
	l["client.late_p99_us"] = quantileOf(late, 0.99) / 1e3
	l["client.late_max_us"] = quantile(late, 1) / 1e3
	l["client.short_p99_whole_us"] = quantileOf(shortAll, 0.99) / 1e3
	l["client.short_p999_whole_us"] = quantile(shortAll, 0.999) / 1e3
	l["net.residual_p50_us"] = quantileOf(residual, 0.50) / 1e3
	l["net.residual_p99_us"] = quantile(residual, 0.99) / 1e3
	l["psp.queue_delay_short_p50_us"] = quantileOf(queueShort, 0.50) / 1e3
	l["psp.queue_delay_short_p99_us"] = quantile(queueShort, 0.99) / 1e3
	l["psp.queue_delay_long_p99_us"] = quantileOf(queueLong, 0.99) / 1e3
	l["psp.service_short_p50_us"] = quantileOf(svcShort, 0.50) / 1e3
	l["runtime.sched_latency_p99_us"] = rt.schedP99 * 1e6
	l["runtime.gc_pause_total_ms"] = float64(rt.gcPause) / 1e6
	l["runtime.gc_cycles"] = float64(rt.gcCycles)
	l["runtime.mallocs_per_req"] = float64(rt.mallocs) / float64(res.attempted)
	l["runtime.cpu_us_per_req"] = float64(rt.cpu) / 1e3 / float64(res.attempted)
	return res
}

// runtimeProbe is a reading of the process-wide runtime counters; the
// clients share the process with the servers, so their cost is in it.
type runtimeProbe struct {
	mem   runtime.MemStats
	sched *metrics.Float64Histogram
	cpu   time.Duration // user + system, getrusage
}

// runtimeDelta is what the runtime did between two probes.
type runtimeDelta struct {
	schedP99 float64       // seconds a runnable goroutine waited, p99
	gcPause  time.Duration // stop-the-world total
	gcCycles uint32
	mallocs  uint64
	cpu      time.Duration
}

// add accumulates another interval; the scheduler latency keeps the
// worst of the two.
func (d *runtimeDelta) add(o runtimeDelta) {
	d.schedP99 = max(d.schedP99, o.schedP99)
	d.gcPause += o.gcPause
	d.gcCycles += o.gcCycles
	d.mallocs += o.mallocs
	d.cpu += o.cpu
}

func readRuntime() runtimeProbe {
	var p runtimeProbe
	runtime.ReadMemStats(&p.mem)
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		p.sched = s[0].Value.Float64Histogram()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

func (p runtimeProbe) since(before runtimeProbe) runtimeDelta {
	d := runtimeDelta{
		gcPause:  time.Duration(p.mem.PauseTotalNs - before.mem.PauseTotalNs),
		gcCycles: p.mem.NumGC - before.mem.NumGC,
		mallocs:  p.mem.Mallocs - before.mem.Mallocs,
		cpu:      p.cpu - before.cpu,
	}
	if p.sched == nil || before.sched == nil {
		return d
	}
	// The histogram is cumulative: subtract, then walk to the bucket
	// that holds the 99th percentile and report its upper edge.
	var total uint64
	for i := range p.sched.Counts {
		total += p.sched.Counts[i] - before.sched.Counts[i]
	}
	var seen uint64
	for i := range p.sched.Counts {
		seen += p.sched.Counts[i] - before.sched.Counts[i]
		if total > 0 && float64(seen) >= 0.99*float64(total) {
			d.schedP99 = p.sched.Buckets[i+1]
			break
		}
	}
	return d
}
