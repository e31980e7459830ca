package persephone

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/psp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Classifier types incoming request payloads; see the constructors
// below and the paper's §4.2 request-classifier API.
type Classifier = classify.Classifier

// FieldClassifier reads the request type from a little-endian uint16
// at a fixed payload offset (the ≈100ns fast path the paper measures).
func FieldClassifier(offset, numTypes int) Classifier {
	return classify.Field{Offset: offset, Types: numTypes}
}

// CommandClassifier types text protocols by their first token
// (memcached-style); type IDs follow the argument order.
func CommandClassifier(commands ...string) Classifier {
	return classify.NewCommand(commands...)
}

// Handler executes application logic on worker cores.
type Handler = psp.Handler

// HandlerFunc adapts a function to Handler.
type HandlerFunc = psp.HandlerFunc

// AdmissionPolicy configures the live server's deadline-aware
// admission controller (see internal/admission): per-type queueing
// budgets — explicit, or auto-derived as a multiple of DARC's profiled
// service times — plus the sustained-overload shedding behavior.
// The zero value auto-derives everything.
type AdmissionPolicy = admission.Config

// LiveConfig assembles a live server. It is the one public
// configuration path for the live runtime: NewLiveServer and Listen
// both translate it through newLiveServer.
type LiveConfig struct {
	// Workers is the number of application worker goroutines.
	Workers int
	// Classifier types payloads (required).
	Classifier Classifier
	// Handler executes requests (required).
	Handler Handler
	// UseCFCFS disables DARC and runs plain centralized FCFS (the
	// baseline mode).
	UseCFCFS bool
	// MinWindowSamples tunes DARC's profiling window (default 512).
	MinWindowSamples uint64
	// QueueCap bounds each typed queue (default 4096); overflowing
	// requests are answered with proto.StatusDropped.
	QueueCap int
	// NetShards is the number of ingress shards when the server is
	// exposed with Listen. Over UDP each shard is a socket with its own
	// net worker, buffer pool and TX goroutine (a non-zero listen port
	// makes shard i bind port+i); over TCP each shard is an accept lane
	// with its own buffer pool (SO_REUSEPORT listeners on the same
	// address where the platform supports it). Default 1. Ignored by
	// the in-process transport.
	NetShards int
	// RxBurst caps how many frames a net worker hands to the
	// dispatcher in a single ring synchronization — datagrams drained
	// per wakeup on UDP, already-buffered stream frames decoded per
	// wakeup on TCP (default 32). Ignored by the in-process transport.
	RxBurst int
	// TCPMaxConns caps concurrently open connections on
	// Listen("tcp", ...); excess accepts are closed immediately.
	// 0 means unlimited. Ignored off the TCP path.
	TCPMaxConns int
	// TCPIdleTimeout evicts a Listen("tcp", ...) connection that has
	// neither delivered a byte nor had a response in flight for this
	// long; 0 disables idle eviction. Ignored off the TCP path.
	TCPIdleTimeout time.Duration
	// Admission optionally enables deadline-aware admission control
	// and overload management: requests whose queueing delay exceeds
	// their type's budget are answered with proto.StatusOverloaded
	// (plus a retry-after hint) instead of occupying workers, and
	// sustained overload sheds in reverse-reservation order so
	// short-request tails stay bounded. Nil disables admission control.
	Admission *AdmissionPolicy
	// Faults optionally enables the chaos layer with the given fault
	// profile (see internal/faults); nil injects nothing.
	Faults *FaultProfile
	// TraceCap sets each worker's lifecycle span ring capacity
	// (default 4096); negative disables lifecycle tracing.
	TraceCap int
	// TraceSink, when non-nil, receives every lifecycle span drained
	// by the stats path — e.g. a trace.SpanWriter dumping the live
	// run for simulator replay. Called under the drain lock; keep it
	// fast and do not call back into the server.
	TraceSink func(TraceSpan)
}

// TraceSpan is one completed request's lifecycle record (see
// internal/trace.Span).
type TraceSpan = trace.Span

// FaultProfile configures the deterministic fault injector; build one
// with faults.ParseProfile or a faults.Profile literal.
type FaultProfile = faults.Profile

// LiveServer is the running Perséphone pipeline.
type LiveServer = psp.Server

// newLiveServer translates a LiveConfig into a configured but not yet
// started pipeline: NewLiveServer starts it, and Listen hands it to a
// transport, which starts it.
func newLiveServer(cfg LiveConfig) (*LiveServer, error) {
	var spec sched.Spec
	if cfg.UseCFCFS {
		spec.Kind = sched.KindCFCFS
	}
	var dcfg darc.Config // zero: psp.NewServer's live default
	if cfg.MinWindowSamples > 0 {
		dcfg = darc.DefaultConfig(max(cfg.Workers, 1))
		dcfg.MinWindowSamples = cfg.MinWindowSamples
	}
	return psp.NewServer(psp.Config{
		Workers:    cfg.Workers,
		Classifier: cfg.Classifier,
		Handler:    cfg.Handler,
		Policy:     spec,
		DARC:       dcfg,
		QueueCap:   cfg.QueueCap,
		Admission:  cfg.Admission,
		Faults:     cfg.Faults,
		TraceCap:   cfg.TraceCap,
		TraceSink:  cfg.TraceSink,
	})
}

// NewLiveServer builds and starts the live runtime for in-process use
// (Submit/Call). To expose it on the network, use Listen instead.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) {
	srv, err := newLiveServer(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// LiveListener is a live server bound to a network transport — the
// unified result of Listen for both "udp" (the paper's sharded
// datagram datapath) and "tcp" (the stateful-dispatcher deployment §6
// sketches).
type LiveListener struct {
	srv *LiveServer
	// ingress is the transport: a *psp.UDPServer or a *psp.TCPServer.
	ingress interface {
		RxDrops() uint64
		RxSheds() uint64
		Close() error
	}
}

// Listen builds a live server from cfg and exposes it on network
// ("udp" or "tcp") at addr. The UDP transport runs cfg.NetShards
// ingress shards (port+i per shard when the port is non-zero) with
// cfg.RxBurst-datagram batched reads and zero-copy responses written
// by the completing worker. The TCP transport frames requests with a
// 4-byte length prefix and runs the same batched, pooled, sharded
// datapath on the byte stream: pipelined requests per connection, out-of-order
// responses matched by RequestID, cfg.NetShards accept shards,
// vectored per-connection egress, and the cfg.TCPMaxConns /
// cfg.TCPIdleTimeout lifecycle knobs. Close stops the transport and
// the server, answering everything already accepted (TCP drains
// gracefully).
func Listen(network, addr string, cfg LiveConfig) (*LiveListener, error) {
	srv, err := newLiveServer(cfg)
	if err != nil {
		return nil, err
	}
	l := &LiveListener{srv: srv}
	switch network {
	case "udp":
		l.ingress, err = psp.ListenUDPShards(addr, srv, psp.UDPOptions{
			Shards: cfg.NetShards,
			Burst:  cfg.RxBurst,
		})
	case "tcp":
		l.ingress, err = psp.ListenTCPShards(addr, srv, psp.TCPOptions{
			Shards:      cfg.NetShards,
			Burst:       cfg.RxBurst,
			MaxConns:    cfg.TCPMaxConns,
			IdleTimeout: cfg.TCPIdleTimeout,
		})
	default:
		return nil, fmt.Errorf("persephone: Listen network %q (want \"udp\" or \"tcp\")", network)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Server exposes the underlying live pipeline (stats, tracing,
// metrics endpoints).
func (l *LiveListener) Server() *LiveServer { return l.srv }

// Addr reports the primary bound address (the first UDP shard, or the
// TCP listener).
func (l *LiveListener) Addr() net.Addr {
	if u := l.UDP(); u != nil {
		return u.Addr()
	}
	return l.TCP().Addr()
}

// AddrStrings reports every bound address as a comma-separated list:
// one per UDP ingress shard, or one per TCP accept shard (all equal
// under SO_REUSEPORT sharding). It is the form RunLoad's udp transport
// and `psp client -addr` accept for client-side shard selection.
func (l *LiveListener) AddrStrings() string {
	var addrs []string
	if u := l.UDP(); u != nil {
		for _, a := range u.Addrs() {
			addrs = append(addrs, a.String())
		}
	} else {
		for _, a := range l.TCP().Addrs() {
			addrs = append(addrs, a.String())
		}
	}
	return strings.Join(addrs, ",")
}

// RxDrops reports ingress frames dropped unanswered: malformed ones,
// and over UDP those refused by a full ingress ring.
func (l *LiveListener) RxDrops() uint64 { return l.ingress.RxDrops() }

// RxSheds reports ingress frames refused under buffer-pool exhaustion,
// and over TCP also those refused by a full ingress ring. TCP answers
// each with an immediate proto.StatusDropped; UDP drops the datagram.
func (l *LiveListener) RxSheds() uint64 { return l.ingress.RxSheds() }

// UDP exposes the UDP transport when the listener was built with
// Listen("udp", ...); nil otherwise.
func (l *LiveListener) UDP() *psp.UDPServer {
	u, _ := l.ingress.(*psp.UDPServer)
	return u
}

// TCP exposes the TCP transport when the listener was built with
// Listen("tcp", ...); nil otherwise.
func (l *LiveListener) TCP() *psp.TCPServer {
	t, _ := l.ingress.(*psp.TCPServer)
	return t
}

// Close stops the transport and the server.
func (l *LiveListener) Close() error { return l.ingress.Close() }

// DialTCP connects a pipelined client to a Listen("tcp", ...) server:
// any number of goroutines may Call concurrently over the one
// connection, and responses are matched back by request ID in whatever
// order the server completes them.
func DialTCP(addr string) (*psp.TCPClient, error) { return psp.DialTCP(addr) }

// LoadConfig drives the open-loop load generator against a live
// server.
type LoadConfig = loadgen.Config

// LoadRunConfig is the unified load-generation entry point: a
// LoadConfig plus the transport selection ("inprocess", "udp" or
// "tcp") and its target (Server or Addr).
type LoadRunConfig = loadgen.RunConfig

// RunLoad runs the open-loop Poisson client against the target named
// by rc — the one load-generation entry point across all transports.
// Admission NACKs (proto.StatusOverloaded) are retried with the
// server's retry-after hint plus jittered backoff, up to rc.MaxRetries.
func RunLoad(rc LoadRunConfig) (*loadgen.Result, error) {
	return loadgen.Run(rc)
}
