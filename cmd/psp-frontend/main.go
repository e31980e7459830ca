// Command psp-frontend runs the live fan-out tier in front of one or
// more psp-server backends: client queries arriving over UDP are split
// into sub-requests fanned out to -fanout backends, answered when the
// slowest shard completes, with optional hedged requests and
// health-based backend ejection.
//
// Usage:
//
//	psp-frontend -addr 127.0.0.1:9930 \
//	  -backends 127.0.0.1:9940,127.0.0.1:9950 -fanout 2 -hedge
//
// Point cmd/psp-client at -addr to measure query-level tail latency
// and count hedged queries. Stop with Ctrl-C; a stats summary prints
// on shutdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/frontend"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9930", "client-facing UDP listen address")
	backends := flag.String("backends", "127.0.0.1:9940", "comma-separated backend UDP addresses")
	fanOut := flag.Int("fanout", 2, "backends contacted per query (clamped to the backend count)")
	hedge := flag.Bool("hedge", false, "hedge sub-requests outstanding past the backend's moving p99")
	hedgeMin := flag.Duration("hedge-min", 2*time.Millisecond, "floor on the hedge trigger delay")
	timeout := flag.Duration("timeout", 250*time.Millisecond, "per-query deadline")
	ejectAfter := flag.Int("eject-after", 3, "consecutive timeouts that eject a backend")
	cooldown := flag.Duration("cooldown", time.Second, "ejected-backend cooldown")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (e.g. 127.0.0.1:9931)")
	flag.Parse()

	fe, err := frontend.Listen(*addr, frontend.Config{
		Backends:      strings.Split(*backends, ","),
		FanOut:        *fanOut,
		QueryTimeout:  *timeout,
		Hedge:         *hedge,
		HedgeAfterMin: *hedgeMin,
		EjectAfter:    *ejectAfter,
		EjectCooldown: *cooldown,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hedging := "off"
	if *hedge {
		hedging = fmt.Sprintf("on (floor %v)", *hedgeMin)
	}
	fmt.Printf("psp-frontend: %s -> %d backend(s), fan-out %d, hedging %s, query timeout %v\n",
		fe.Addr(), len(strings.Split(*backends, ",")), *fanOut, hedging, *timeout)
	if *metricsAddr != "" {
		bound, shutdown, err := fe.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown() //nolint:errcheck
		fmt.Printf("psp-frontend: metrics on http://%s/metrics\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

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
}
