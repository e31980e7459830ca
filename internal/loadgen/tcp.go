package loadgen

import (
	"time"

	"repro/internal/psp"
)

// RunTCP generates load against a TCP Perséphone server through the
// pipelined client: cfg.Conns connections, each carrying up to
// cfg.Pipeline concurrent requests matched back by RequestID in
// whatever order the server completes them. Arrivals follow the same
// Poisson process as RunUDP; a full pipeline gates the sender (the
// stream transport's flow control) rather than dropping sends, and the
// wait shows up in Result.Late.
//
// Outcome accounting matches RunInProcess: a response with a drop
// status is retried up to MaxRetries times (fresh request IDs — TCP
// never retransmits bytes, the stream already delivered them), then
// recorded as Dropped; a per-request timeout sweeps the call and
// records TimedOut.
func RunTCP(serverAddr string, cfg Config) (*Result, error) {
	next, led, err := poisson(&cfg)
	if err != nil {
		return nil, err
	}
	conns := cfg.Conns
	if conns <= 0 {
		conns = 1
	}
	pipeline := cfg.Pipeline
	if pipeline <= 0 {
		pipeline = 32
	}
	clients := make([]*psp.TCPClient, conns)
	for i := range clients {
		cli, err := psp.DialTCP(serverAddr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, err
		}
		cli.Timeout = cfg.RequestTimeout
		clients[i] = cli
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	sems := make([]chan struct{}, conns)
	for i := range sems {
		sems[i] = make(chan struct{}, pipeline)
	}

	start := pace(next, led, func(a arrival) (time.Time, error) {
		li := int(a.id % uint64(conns))
		sems[li] <- struct{}{} // pipeline cap: stream flow control
		t0 := time.Now()
		go func() {
			defer func() { <-sems[li] }()
			settle(&cfg, led, a.typ, t0, a.payload, clients[li].Call)
		}()
		return t0, nil
	})
	led.drain(cfg.Timeout)
	return led.close(start), nil
}
