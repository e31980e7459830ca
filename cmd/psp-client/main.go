// Command psp-client is the open-loop Poisson load generator for
// psp-server and psp-frontend: it offers a configured request rate
// over UDP or TCP, matches responses by request ID, and reports
// client-observed latency per request type, queries a frontend
// answered with a hedge, and how late the generator sent.
//
// Usage:
//
//	psp-client -addr 127.0.0.1:9940 -workload high-bimodal -rate 5000 -duration 10s
//	psp-client -transport tcp -conns 4 -depth 16 -addr 127.0.0.1:9940 -rate 5000
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	persephone "repro"
)

// expandShards turns "host:9940" with n=4 into
// "host:9940,host:9941,host:9942,host:9943" — the consecutive ports a
// sharded psp-server binds. An -addr already naming several shards
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

func main() {
	addr := flag.String("addr", "127.0.0.1:9940", "server address, or comma-separated UDP shard list")
	transport := flag.String("transport", "udp", "server transport: udp or tcp")
	shards := flag.Int("shards", 1, "expand -addr into this many consecutive-port shard addresses (UDP only)")
	conns := flag.Int("conns", 1, "TCP connections to open")
	depth := flag.Int("depth", 32, "max pipelined requests per TCP connection")
	workloadName := flag.String("workload", "high-bimodal", "workload mix (type ratios)")
	rate := flag.Float64("rate", 5000, "offered requests per second")
	duration := flag.Duration("duration", 5*time.Second, "generation duration")
	seed := flag.Uint64("seed", 1, "random seed")
	timeout := flag.Duration("timeout", 0, "per-request response timeout (0 disables retransmission)")
	retries := flag.Int("retries", 0, "max retransmissions per request (needs -timeout)")
	backoff := flag.Duration("backoff", time.Millisecond, "base retry backoff, doubled per attempt with jitter")
	backoffMax := flag.Duration("backoff-max", 0, "retry backoff cap (default 64x -backoff)")
	flag.Parse()

	mix, err := persephone.MixByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := persephone.LoadConfig{
		Mix:             mix,
		Rate:            *rate,
		Duration:        *duration,
		Seed:            *seed,
		RequestTimeout:  *timeout,
		MaxRetries:      *retries,
		RetryBackoff:    *backoff,
		RetryBackoffMax: *backoffMax,
		Conns:           *conns,
		Pipeline:        *depth,
		BuildPayload: func(typ int) []byte {
			// 2-byte type + 4 bytes of per-request entropy, matching
			// psp-server's applications.
			p := make([]byte, 8)
			binary.LittleEndian.PutUint16(p[0:2], uint16(typ))
			binary.LittleEndian.PutUint32(p[2:6], uint32(typ*2654435761))
			return p
		},
	}
	rc := persephone.LoadRunConfig{Config: cfg}
	switch *transport {
	case "udp":
		target, err := expandShards(*addr, *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rc.Transport = persephone.LoadTransportUDP
		rc.Addr = target
	case "tcp":
		rc.Transport = persephone.LoadTransportTCP
		rc.Addr = *addr
	default:
		fmt.Fprintf(os.Stderr, "unknown -transport %q (want udp or tcp)\n", *transport)
		os.Exit(2)
	}
	res, err := persephone.RunLoad(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
}
