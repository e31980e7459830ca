// Command psp-server runs the live Perséphone runtime over UDP or TCP
// with one of three built-in applications:
//
//   - synthetic: requests spin for their type's service time (pick a
//     workload to define the types);
//   - kv: an in-memory ordered store with GET (point lookup) and SCAN
//     (5000-key range scan) — the RocksDB stand-in;
//   - tpcc: the five TPC-C transactions over the in-memory database.
//
// Requests carry their type in the first two payload bytes (little
// endian), matching cmd/psp-client. Stop with Ctrl-C or SIGTERM
// (handled identically): the transport closes, in-flight requests
// drain, and the shutdown ledger prints — the same sequence for UDP
// and TCP. With -reconfig-file, SIGHUP re-reads the file and applies
// it live (policy swap, worker resize, admission budgets) without
// dropping in-flight requests; -metrics-addr additionally exposes
// POST /admin/reconfig and GET /admin/config for the same specs over
// HTTP.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	persephone "repro"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/spin"
	"repro/internal/tpcc"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9940", "listen address (UDP shard i binds port+i)")
	transport := flag.String("transport", "udp", "listen transport: udp or tcp")
	shards := flag.Int("shards", 1, "ingress shards: UDP sockets (one net worker each) or TCP accept shards")
	burst := flag.Int("burst", 32, "max datagrams or frames drained per socket wakeup")
	workers := flag.Int("workers", 4, "application worker goroutines")
	app := flag.String("app", "synthetic", "application: synthetic, kv, tpcc")
	workloadName := flag.String("workload", "high-bimodal", "synthetic app: workload defining per-type service times")
	cfcfs := flag.Bool("cfcfs", false, "run the c-FCFS baseline instead of DARC")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (e.g. 127.0.0.1:9941)")
	faultSpec := flag.String("faults", "", `chaos profile, e.g. "seed=42,drop=0.1,dup=0.01,stall=0:5ms,slow=1:2,crash=0.001,respawn=10ms,resdelay=5ms"`)
	admSpec := flag.String("admission", "", `per-type queue-delay budgets enabling admission control, e.g. "3ms,50ms" (zero/missing entries auto-derive from the DARC profile; over-budget requests are NACKed with a retry-after hint)`)
	admTrim := flag.Duration("admission-trim", 0, "sustained-overload trim threshold for -admission (0 = auto: half the smallest budget)")
	traceOut := flag.String("trace-out", "", "dump completed-request lifecycle spans to this CSV file (replayable via psp-trace/psp-sim)")
	reconfigFile := flag.String("reconfig-file", "", `reconfiguration spec file re-read and applied on SIGHUP (key=value lines, e.g. "policy=cfcfs\nworkers=6"; see /admin/reconfig for the vocabulary)`)
	flag.Parse()

	cfg, err := buildApp(*app, *workloadName, *workers, *cfcfs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.NetShards = *shards
	cfg.RxBurst = *burst
	if *faultSpec != "" {
		profile, err := persephone.ParseFaultProfile(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Faults = &profile
	}
	if *admSpec != "" {
		pol, err := parseAdmission(*admSpec, *admTrim)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Admission = pol
	} else if *admTrim != 0 {
		fmt.Fprintln(os.Stderr, "-admission-trim needs -admission")
		os.Exit(2)
	}
	var traceFile *os.File
	var spanW *trace.SpanWriter
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spanW = trace.NewSpanWriter(traceFile)
		cfg.TraceSink = func(sp persephone.TraceSpan) {
			spanW.Write(sp) //nolint:errcheck // sticky, reported at Flush
		}
	}
	if *transport != "udp" && *transport != "tcp" {
		fmt.Fprintf(os.Stderr, "unknown -transport %q (want udp or tcp)\n", *transport)
		os.Exit(2)
	}
	ln, err := persephone.Listen(*transport, *addr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("psp-server: %s app on %s/%s (%d shard(s), burst %d), %d workers, policy %s\n",
		*app, *transport, ln.AddrStrings(), *shards, *burst, *workers, ln.Server().ConfigSnapshot().Policy)
	if cfg.Faults != nil {
		fmt.Printf("chaos profile active: %s\n", cfg.Faults)
	}
	if cfg.Admission != nil {
		fmt.Printf("admission control active: budgets %s\n", *admSpec)
	}
	if *metricsAddr != "" {
		bound, shutdown, err := ln.Server().ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown() //nolint:errcheck
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	var flushWG sync.WaitGroup
	stopFlush := make(chan struct{})
	if spanW != nil {
		fmt.Printf("tracing lifecycle spans to %s\n", *traceOut)
		// Drain worker trace rings to the CSV sink periodically, so
		// long runs don't overflow the fixed-capacity rings.
		flushWG.Add(1)
		go func() {
			defer flushWG.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					ln.Server().FlushTrace()
				case <-stopFlush:
					return
				}
			}
		}()
	}

	awaitShutdown(ln.Server(), *reconfigFile)

	// Close the transport BEFORE snapshotting: Close answers everything
	// already accepted (the TCP path drains connections gracefully), so
	// the ledger below includes requests that complete during the drain
	// — the same sequence, and the same printed summary, for UDP and
	// TCP.
	st := closeAndSnapshot(ln)
	close(stopFlush)
	flushWG.Wait()
	if spanW != nil {
		// Close() flushed the final spans through the sink; settle the
		// file.
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
}

// awaitShutdown blocks until SIGINT or SIGTERM — the two are handled
// identically. When reconfigFile is non-empty, SIGHUP re-reads it and
// applies the parsed spec to the live server without dropping
// in-flight requests.
func awaitShutdown(srv *persephone.LiveServer, reconfigFile string) {
	sig := make(chan os.Signal, 2)
	notify := []os.Signal{os.Interrupt, syscall.SIGTERM}
	if reconfigFile != "" {
		notify = append(notify, syscall.SIGHUP)
	}
	signal.Notify(sig, notify...)
	defer signal.Stop(sig)
	for s := range sig {
		if s != syscall.SIGHUP {
			return
		}
		applyReconfigFile(srv, reconfigFile, os.Stdout, os.Stderr)
	}
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
	spec, err := persephone.ParseReconfigSpec(string(text))
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
func closeAndSnapshot(ln *persephone.LiveListener) persephone.LiveStats {
	ln.Close()
	return ln.Server().StatsSnapshot()
}

// printShutdownSummary renders the shutdown ledger in the one format
// shared by the UDP and TCP transports.
func printShutdownSummary(w io.Writer, st persephone.LiveStats, rxDrops, rxSheds uint64) {
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

// parseAdmission turns a comma-separated budget list ("3ms,50ms")
// into an admission policy. A zero entry keeps that type on the
// auto-derived budget.
func parseAdmission(spec string, trim time.Duration) (*persephone.AdmissionPolicy, error) {
	parts := strings.Split(spec, ",")
	budgets := make([]time.Duration, len(parts))
	for i, p := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-admission entry %d: %v", i, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("-admission entry %d: negative budget %v", i, d)
		}
		budgets[i] = d
	}
	if trim < 0 {
		return nil, fmt.Errorf("-admission-trim: negative threshold %v", trim)
	}
	return &persephone.AdmissionPolicy{Budgets: budgets, OverloadDelay: trim}, nil
}

func buildApp(app, workloadName string, workers int, cfcfs bool) (persephone.LiveConfig, error) {
	base := persephone.LiveConfig{Workers: workers, UseCFCFS: cfcfs}
	switch strings.ToLower(app) {
	case "synthetic":
		mix, err := persephone.MixByName(workloadName)
		if err != nil {
			return base, err
		}
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
			d := seedA % db.Districts()
			c := seedB % db.Customers()
			var err error
			switch tpcc.Transaction(typ) {
			case tpcc.Payment:
				err = db.PaymentTxn(d, c, int64(seedB%10000+1))
			case tpcc.OrderStatus:
				_, err = db.OrderStatusTxn(d, c)
			case tpcc.NewOrder:
				_, err = db.NewOrderTxn(d, c)
			case tpcc.Delivery:
				db.DeliveryTxn()
			case tpcc.StockLevel:
				_, err = db.StockLevelTxn(d, 60)
			default:
				return 0, proto.StatusError
			}
			if err != nil {
				return 0, proto.StatusError
			}
			return 0, proto.StatusOK
		})
		return base, nil

	default:
		return base, fmt.Errorf("unknown app %q (synthetic, kv, tpcc)", app)
	}
}
