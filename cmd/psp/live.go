package main

// The live subcommands: the server, its open-loop client, the fan-out
// frontend, and the reconfiguration chaos soak.

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	persephone "repro"
	"repro/internal/admission"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/reconfig"
	"repro/internal/rng"
	"repro/internal/soak"
	"repro/internal/spin"
	"repro/internal/tpcc"
	"repro/internal/trace"
)

// serverCmd runs the live Perséphone runtime over UDP or TCP with one
// of three built-in applications:
//
//   - synthetic: requests spin for their type's service time (pick a
//     workload to define the types);
//   - kv: an in-memory ordered store with GET (point lookup) and SCAN
//     (5000-key range scan) — the RocksDB stand-in;
//   - tpcc: the five TPC-C transactions over the in-memory database.
//
// Requests carry their type in the first two payload bytes (little
// endian), as psp client sends them. Ctrl-C and SIGTERM are handled
// alike: the transport closes, in-flight requests drain, and the
// shutdown ledger prints, the same sequence for UDP and TCP. With
// -reconfig-file, SIGHUP re-reads the file and applies it live
// (policy swap, worker resize, admission budgets) without dropping
// in-flight requests; -metrics-addr also serves POST /admin/reconfig
// and GET /admin/config for the same specs over HTTP.
func serverCmd(fs *flag.FlagSet) func() error {
	addr := addrFlag(fs, "127.0.0.1:9940")
	transport := transportFlag(fs)
	shards := fs.Int("shards", 1, "ingress shards: UDP sockets (one net worker each) or TCP accept shards")
	burst := fs.Int("burst", 32, "max datagrams or frames drained per socket wakeup")
	workers := workersFlag(fs, 4)
	app := fs.String("app", "synthetic", "application: synthetic, kv, tpcc")
	mix := workloadFlag(fs)
	cfcfs := fs.Bool("cfcfs", false, "run the c-FCFS baseline instead of DARC")
	metricsAddr := metricsAddrFlag(fs)
	faultSpec := fs.String("faults", "", `chaos profile, e.g. "seed=42,drop=0.1,dup=0.01,stall=0:5ms,slow=1:2,crash=0.001,respawn=10ms,resdelay=5ms"`)
	admSpec := fs.String("admission", "", `per-type queue-delay budgets enabling admission control, e.g. "3ms,50ms" (zero/missing entries auto-derive from the DARC profile; over-budget requests are NACKed with a retry-after hint)`)
	admTrim := fs.Duration("admission-trim", 0, "sustained-overload trim threshold for -admission (0 = auto: half the smallest budget)")
	traceOut := fs.String("trace-out", "", "dump completed-request lifecycle spans to this CSV file (replayable via psp sim -trace)")
	reconfigFile := fs.String("reconfig-file", "", `reconfiguration spec file re-read and applied on SIGHUP (key=value lines, e.g. "policy=cfcfs\nworkers=6"; see /admin/reconfig for the vocabulary)`)
	return func() error {
		cfg, err := buildApp(*app, *mix, *workers, *cfcfs)
		if err != nil {
			return usageError{err}
		}
		cfg.NetShards = *shards
		cfg.RxBurst = *burst
		if *faultSpec != "" {
			profile, err := faults.ParseProfile(*faultSpec)
			if err != nil {
				return usageError{err}
			}
			cfg.Faults = &profile
		}
		if cfg.Admission, err = admissionPolicy(*admSpec, *admTrim); err != nil {
			return usageError{err}
		}
		var traceFile *os.File
		var spanW *trace.SpanWriter
		if *traceOut != "" {
			if traceFile, err = os.Create(*traceOut); err != nil {
				return err
			}
			spanW = trace.NewSpanWriter(traceFile)
			cfg.TraceSink = func(sp persephone.TraceSpan) {
				spanW.Write(sp) //nolint:errcheck // sticky, reported at Flush
			}
		}
		ln, err := persephone.Listen(*transport, *addr, cfg)
		if err != nil {
			return err
		}
		srv := ln.Server()
		// Output keeps the psp-server: prefix that scripts read.
		fmt.Printf("psp-server: %s app on %s/%s (%d shard(s), burst %d), %d workers, policy %s\n",
			*app, *transport, ln.AddrStrings(), *shards, *burst, *workers, srv.ConfigSnapshot().Policy)
		if cfg.Faults != nil {
			fmt.Printf("chaos profile active: %s\n", cfg.Faults)
		}
		if cfg.Admission != nil {
			fmt.Printf("admission control active: budgets %s\n", *admSpec)
		}
		if *metricsAddr != "" {
			bound, shutdown, err := srv.ServeMetrics(*metricsAddr)
			if err != nil {
				return err
			}
			defer shutdown() //nolint:errcheck
			fmt.Printf("metrics on http://%s/metrics\n", bound)
		}

		var onHUP, onTick func()
		if *reconfigFile != "" {
			onHUP = func() { applyReconfigFile(srv, *reconfigFile, os.Stdout, os.Stderr) }
		}
		if spanW != nil {
			fmt.Printf("tracing lifecycle spans to %s\n", *traceOut)
			// Drain worker trace rings to the CSV sink periodically, so
			// long runs don't overflow the fixed-capacity rings.
			onTick = func() { srv.FlushTrace() }
		}
		awaitSignal(onHUP, onTick)

		// Close the transport BEFORE snapshotting: Close answers
		// everything already accepted (the TCP path drains connections
		// gracefully), so the ledger below includes requests that
		// complete during the drain — the same sequence, and the same
		// printed summary, for UDP and TCP.
		st := closeAndSnapshot(ln)
		if spanW != nil {
			// Close() flushed the final spans through the sink; settle
			// the file.
			if err := spanW.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			}
			if err := traceFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			}
			fmt.Printf("wrote %d lifecycle spans to %s (lost %d to full rings)\n",
				spanW.Count(), *traceOut, st.TraceLost)
		}
		printShutdownSummary(os.Stdout, st, ln.RxDrops(), ln.RxSheds())
		return nil
	}
}

// admissionPolicy turns -admission and -admission-trim into an
// admission policy, nil when -admission is empty. Both take the
// grammar of the reconfiguration plane's admission= and
// admission-trim= keys: non-negative budgets, "0" keeping that type on
// the auto-derived budget.
func admissionPolicy(budgets string, trim time.Duration) (*admission.Config, error) {
	if budgets == "" {
		if trim != 0 {
			return nil, errors.New("-admission-trim needs -admission")
		}
		return nil, nil
	}
	sp, err := reconfig.ParseSpec(map[string]string{"admission": budgets, "admission-trim": trim.String()})
	if err != nil {
		return nil, err
	}
	return &admission.Config{Budgets: sp.Admission.Budgets, OverloadDelay: *sp.Admission.OverloadDelay}, nil
}

// applyReconfigFile reloads path and applies it to the live server.
// Errors are reported, never fatal: a bad reload must not take the
// server down.
func applyReconfigFile(srv *persephone.LiveServer, path string, out, errw io.Writer) {
	text, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(errw, "reconfig: %v\n", err)
		return
	}
	spec, err := reconfig.ParseSpecFile(string(text))
	if err != nil {
		fmt.Fprintf(errw, "reconfig %s: %v\n", path, err)
		return
	}
	res, err := srv.Reconfigure(spec)
	if err != nil {
		fmt.Fprintf(errw, "reconfig %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(out, "reconfig gen %d: %s\n", res.Generation, strings.Join(res.Applied, "; "))
}

// closeAndSnapshot stops the transport and the server — answering
// everything already accepted — and only then snapshots the final
// counters, so the shutdown ledger accounts for requests completed
// during the graceful drain. One code path for both transports.
func closeAndSnapshot(ln *persephone.LiveListener) psp.Stats {
	ln.Close()
	return ln.Server().StatsSnapshot()
}

// printShutdownSummary renders the shutdown ledger in the one format
// shared by the UDP and TCP transports.
func printShutdownSummary(w io.Writer, st psp.Stats, rxDrops, rxSheds uint64) {
	fmt.Fprintf(w, "\nenqueued %d  dispatched %d  dropped %d  reservation updates %d  rx drops %d  rx sheds %d\n",
		st.Enqueued, st.Dispatched, st.Dropped, st.Updates, rxDrops, rxSheds)
	if st.FaultsInjected > 0 || st.RetriesSeen > 0 {
		fmt.Fprintf(w, "faults injected %d  worker restarts %d  client retries seen %d\n",
			st.FaultsInjected, st.WorkerRestarts, st.RetriesSeen)
	}
	if st.Admission != nil {
		tot := st.Admission.Totals()
		fmt.Fprintf(w, "admission: accepted %d  completed %d  shed %d (deadline %d  overload %d  lost %d)\n",
			tot.Accepted, tot.Completed, tot.Shed(), tot.ShedDeadline, tot.ShedOverload, tot.ShedLost)
	}
	for _, row := range st.Summaries {
		fmt.Fprintf(w, "  %-10s n=%-8d p50=%-12v p999=%-12v slowdown999=%.1fx\n",
			row.Name, row.Completed, row.P50, row.P999, row.Slowdown999)
	}
}

func buildApp(app string, mix persephone.Mix, workers int, cfcfs bool) (persephone.LiveConfig, error) {
	base := persephone.LiveConfig{Workers: workers, UseCFCFS: cfcfs}
	switch strings.ToLower(app) {
	case "synthetic":
		services := mix.Means()
		spin.Calibrate(100 * time.Millisecond)
		base.Classifier = persephone.FieldClassifier(0, len(mix.Types))
		base.Handler = persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
			if typ >= 0 && typ < len(services) {
				spin.For(services[typ])
			}
			return copy(resp, payload), proto.StatusOK
		})
		return base, nil

	case "kv":
		store := kvstore.New(1)
		for i := 0; i < 5000; i++ {
			store.Put([]byte(fmt.Sprintf("key%06d", i)), make([]byte, 64))
		}
		base.Classifier = persephone.FieldClassifier(0, 2)
		base.Handler = persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
			switch typ {
			case 0: // GET: key index in payload[2:6]
				idx := uint32(0)
				if len(payload) >= 6 {
					idx = binary.LittleEndian.Uint32(payload[2:6]) % 5000
				}
				key := fmt.Sprintf("key%06d", idx)
				if v, ok := store.Get([]byte(key)); ok {
					return copy(resp, v), proto.StatusOK
				}
				return 0, proto.StatusError
			case 1: // SCAN over 5000 keys
				entries, total := store.ScanCount(nil, 5000)
				binary.LittleEndian.PutUint32(resp[0:4], uint32(entries))
				binary.LittleEndian.PutUint32(resp[4:8], uint32(total))
				return 8, proto.StatusOK
			default:
				return 0, proto.StatusError
			}
		})
		return base, nil

	case "tpcc":
		db := tpcc.New(tpcc.Default(), 1)
		base.Classifier = persephone.FieldClassifier(0, tpcc.NumTransactions())
		base.Handler = persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
			var seedA, seedB int
			if len(payload) >= 6 {
				seedA = int(binary.LittleEndian.Uint16(payload[2:4]))
				seedB = int(binary.LittleEndian.Uint16(payload[4:6]))
			}
			if err := db.Exec(tpcc.Transaction(typ), seedA%db.Districts(), seedB%db.Customers(), int64(seedB%10000+1)); err != nil {
				return 0, proto.StatusError
			}
			return 0, proto.StatusOK
		})
		return base, nil

	default:
		return base, fmt.Errorf("unknown app %q (synthetic, kv, tpcc)", app)
	}
}

// clientPayload builds psp client's payloads: the 2-byte type, then 4
// bytes drawn per request from a generator of seed, which psp server's
// applications read as the key (kv) or the district and customer
// (tpcc). The open-loop engine builds every payload on its one pacing
// goroutine, so the generator needs no lock.
func clientPayload(seed uint64) func(typ int) []byte {
	r := rng.NewStream(seed, 1) // apart from the arrivals' stream of seed
	return func(typ int) []byte {
		p := make([]byte, 8)
		binary.LittleEndian.PutUint16(p[0:2], uint16(typ))
		binary.LittleEndian.PutUint32(p[2:6], r.Uint32())
		return p
	}
}

// clientCmd is the open-loop Poisson load generator for psp server and
// psp frontend: it offers a configured request rate over UDP or TCP,
// matches responses by request ID, and reports client-observed latency
// per request type, queries a frontend answered with a hedge, and how
// late the generator sent.
func clientCmd(fs *flag.FlagSet) func() error {
	addr := addrFlag(fs, "127.0.0.1:9940")
	transport := transportFlag(fs)
	shards := fs.Int("shards", 1, "expand -addr into this many consecutive-port shard addresses (UDP only)")
	conns := fs.Int("conns", 1, "TCP connections to open")
	depth := fs.Int("depth", 32, "max pipelined requests per TCP connection")
	mix := workloadFlag(fs)
	rate := fs.Float64("rate", 5000, "offered requests per second")
	duration := durationFlag(fs, 5*time.Second)
	seed := seedFlag(fs, 1)
	timeout := fs.Duration("timeout", 0, "per-request response timeout (0 disables retransmission)")
	retries := fs.Int("retries", 0, "max retransmissions per request (needs -timeout)")
	backoff := fs.Duration("backoff", time.Millisecond, "base retry backoff, doubled per attempt with jitter")
	backoffMax := fs.Duration("backoff-max", 0, "retry backoff cap (default 64x -backoff)")
	return func() error {
		target := *addr
		if *transport == "udp" {
			var err error
			if target, err = expandShards(*addr, *shards); err != nil {
				return usageError{err}
			}
		}
		res, err := persephone.RunLoad(persephone.LoadRunConfig{
			Config: persephone.LoadConfig{
				Mix:             *mix,
				Rate:            *rate,
				Duration:        *duration,
				Seed:            *seed,
				RequestTimeout:  *timeout,
				MaxRetries:      *retries,
				RetryBackoff:    *backoff,
				RetryBackoffMax: *backoffMax,
				Conns:           *conns,
				Pipeline:        *depth,
				BuildPayload:    clientPayload(*seed),
			},
			Transport: *transport,
			Addr:      target,
		})
		if err != nil {
			return err
		}
		fmt.Printf("sent %d  received %d  dropped %d  timed out %d  retries %d  nacked %d  achieved %.0f rps\n",
			res.Sent, res.Received, res.Dropped, res.TimedOut, res.Retries, res.Nacked, res.AchievedRate())
		fmt.Printf("hedged queries %d (answered with >= 1 hedge issued)\n", res.Hedged)
		fmt.Printf("generator lateness p50=%v p99=%v max=%v\n",
			res.Late.QuantileDuration(0.50), res.Late.QuantileDuration(0.99), time.Duration(res.Late.Max()))
		if un := res.Unaccounted(); un != 0 {
			fmt.Printf("WARNING: %d requests unaccounted for\n", un)
		}
		for i, h := range res.Latency {
			if h.Count() == 0 {
				continue
			}
			fmt.Printf("  %-12s n=%-8d p50=%-12v p99=%-12v p999=%v\n",
				mix.Types[i].Name, h.Count(),
				h.QuantileDuration(0.50), h.QuantileDuration(0.99), h.QuantileDuration(0.999))
		}
		fmt.Printf("  %-12s n=%-8d p50=%-12v p99=%-12v p999=%v\n",
			"all", res.Overall.Count(),
			res.Overall.QuantileDuration(0.50), res.Overall.QuantileDuration(0.99), res.Overall.QuantileDuration(0.999))
		return nil
	}
}

// expandShards turns "host:9940" with n=4 into
// "host:9940,host:9941,host:9942,host:9943" — the consecutive ports a
// sharded psp server binds. An -addr already naming several shards
// passes through untouched.
func expandShards(addr string, n int) (string, error) {
	if n <= 1 || strings.Contains(addr, ",") {
		return addr, nil
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-shards needs -addr host:port: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("-shards needs a numeric port in -addr: %w", err)
	}
	parts := make([]string, n)
	for i := range parts {
		parts[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return strings.Join(parts, ","), nil
}

// frontendCmd runs the live fan-out tier in front of one or more psp
// server backends: client queries arriving over UDP are split into
// sub-requests fanned out to -fanout backends and answered when the
// slowest shard completes, with optional hedged requests and
// health-based backend ejection. Point psp client at -addr to measure
// query-level tail latency and count hedged queries. Ctrl-C prints a
// stats summary.
func frontendCmd(fs *flag.FlagSet) func() error {
	addr := addrFlag(fs, "127.0.0.1:9930")
	backends := fs.String("backends", "127.0.0.1:9940", "comma-separated backend UDP addresses")
	fanOut := fs.Int("fanout", 2, "backends contacted per query (clamped to the backend count)")
	hedge := fs.Bool("hedge", false, "hedge sub-requests outstanding past the backend's moving p99")
	hedgeMin := fs.Duration("hedge-min", 2*time.Millisecond, "floor on the hedge trigger delay")
	timeout := fs.Duration("timeout", 250*time.Millisecond, "per-query deadline")
	ejectAfter := fs.Int("eject-after", 3, "consecutive timeouts that eject a backend")
	cooldown := fs.Duration("cooldown", time.Second, "ejected-backend cooldown")
	metricsAddr := metricsAddrFlag(fs)
	return func() error {
		backendList := strings.Split(*backends, ",")
		fe, err := frontend.Listen(*addr, frontend.Config{
			Backends:      backendList,
			FanOut:        *fanOut,
			QueryTimeout:  *timeout,
			Hedge:         *hedge,
			HedgeAfterMin: *hedgeMin,
			EjectAfter:    *ejectAfter,
			EjectCooldown: *cooldown,
		})
		if err != nil {
			return err
		}
		hedging := "off"
		if *hedge {
			hedging = fmt.Sprintf("on (floor %v)", *hedgeMin)
		}
		// Output keeps the psp-frontend: prefix that scripts read.
		fmt.Printf("psp-frontend: %s -> %d backend(s), fan-out %d, hedging %s, query timeout %v\n",
			fe.Addr(), len(backendList), *fanOut, hedging, *timeout)
		if *metricsAddr != "" {
			bound, shutdown, err := fe.ServeMetrics(*metricsAddr)
			if err != nil {
				return err
			}
			defer shutdown() //nolint:errcheck
			fmt.Printf("psp-frontend: metrics on http://%s/metrics\n", bound)
		}

		awaitSignal(nil, nil)

		if err := fe.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		st := fe.Stats()
		fmt.Printf("\nqueries %d (ok %d, failed %d, shed %d)\n", st.Queries, st.QueriesOK, st.QueriesFailed, st.QueriesShed)
		fmt.Printf("sub-requests issued %d = replied %d + duplicate %d + timed out %d + nacked %d (unaccounted %d)\n",
			st.SubIssued, st.SubReplied, st.SubDuplicate, st.SubTimedOut, st.SubNacked, st.SubUnaccounted())
		fmt.Printf("hedges %d (wins %d), ejections %d, strays %d\n", st.Hedges, st.HedgeWins, st.Ejections, st.Strays)
		if st.QueryCount > 0 {
			fmt.Printf("query latency p50=%v p99=%v p999=%v (n=%d)\n", st.QueryP50, st.QueryP99, st.QueryP999, st.QueryCount)
		}
		return nil
	}
}

// soakCmd runs the invariant-checked chaos soak: seeded randomized
// reconfigurations (policy swaps, worker resizes, admission changes,
// DARC refreshes) interleaved with fault injection against a live
// in-process server, with every conservation ledger asserted. It exits
// 1 when any seed observed an invariant violation.
func soakCmd(fs *flag.FlagSet) func() error {
	seedList := fs.String("seeds", "1,2,3", "comma-separated soak seeds (one run per seed)")
	reconfigs := fs.Int("reconfigs", 100, "reconfigurations per seed")
	workers := workersFlag(fs, 4)
	maxW := fs.Int("max-workers", 0, "resize ceiling (0 = 2x workers)")
	subs := fs.Int("submitters", 3, "closed-loop load goroutines")
	epoch := fs.Duration("epoch", 4*time.Millisecond, "load-soak time between reconfigurations")
	drain := fs.Duration("drain", 2*time.Second, "per-shrink drain deadline (exceeding it is a violation)")
	chaos := fs.Bool("faults", true, "inject chaos (worker crashes, stalls, slowdowns, laggy reservations)")
	verbose := fs.Bool("v", false, "log per-epoch progress")
	return func() error {
		seeds, err := parseList(*seedList, func(item string) (uint64, error) {
			return strconv.ParseUint(item, 10, 64)
		})
		if err != nil {
			return usageError{fmt.Errorf("psp soak: bad seed: %v", err)}
		}
		if len(seeds) == 0 {
			return usageError{errors.New("psp soak: no seeds given")}
		}
		failed := 0
		for _, seed := range seeds {
			cfg := soak.Config{
				Seed:          seed,
				Reconfigs:     *reconfigs,
				Workers:       *workers,
				MaxWorkers:    *maxW,
				Submitters:    *subs,
				Epoch:         *epoch,
				DrainDeadline: *drain,
				Faults:        *chaos,
			}
			if *verbose {
				cfg.Logf = func(format string, args ...any) {
					fmt.Printf(format+"\n", args...)
				}
			}
			rep, err := soak.Run(cfg)
			if err != nil {
				return usageError{fmt.Errorf("seed %d: %v", seed, err)}
			}
			fmt.Println(rep.Summary())
			for _, v := range rep.Violations {
				fmt.Printf("  VIOLATION: %s\n", v)
			}
			if !rep.OK() {
				failed++
			}
		}
		if failed > 0 {
			fmt.Printf("%d of %d seeds FAILED\n", failed, len(seeds))
			return errFailed
		}
		fmt.Printf("all %d seeds clean\n", len(seeds))
		return nil
	}
}
