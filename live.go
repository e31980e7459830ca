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
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/reconfig"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Live runtime facade ---------------------------------------------------

// Classifier types incoming request payloads; see the constructors
// below and the paper's §4.2 request-classifier API.
type Classifier = classify.Classifier

// UnknownType marks unclassifiable requests; they are served on
// spillway cores at low priority.
const UnknownType = classify.Unknown

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

// RESPClassifier types Redis-serialization-protocol requests by
// command name.
func RESPClassifier(commands ...string) Classifier {
	return classify.NewRESP(commands...)
}

// FuncClassifier wraps an arbitrary classification function producing
// types in [0, numTypes).
func FuncClassifier(name string, numTypes int, f func(payload []byte) int) Classifier {
	return classify.Func{F: f, Types: numTypes, Label: name}
}

// Handler executes application logic on worker cores.
type Handler = psp.Handler

// HandlerFunc adapts a function to Handler.
type HandlerFunc = psp.HandlerFunc

// Response is a completed request as seen by the submitter.
type Response = psp.Response

// Status values for responses.
const (
	StatusOK      = proto.StatusOK
	StatusDropped = proto.StatusDropped
	StatusError   = proto.StatusError
	// StatusOverloaded is the admission-control NACK: the server shed
	// the request before running it and the response carries a
	// retry-after hint (Response.RetryAfter).
	StatusOverloaded = proto.StatusOverloaded
)

// Sentinel errors of the live runtime's error contract; match with
// errors.Is. See the package documentation for when each is returned.
var (
	// ErrOverloaded: the server shed the request via admission control.
	// TCPClient.Call returns it alongside the NACK response, whose
	// RetryAfter field hints when to retry.
	ErrOverloaded = psp.ErrOverloaded
	// ErrDeadlineExceeded: a client-side wait elapsed before the
	// response arrived.
	ErrDeadlineExceeded = psp.ErrDeadlineExceeded
	// ErrPoolExhausted: a bounded resource (ingress ring, buffer pool)
	// had no capacity to accept the request.
	ErrPoolExhausted = psp.ErrPoolExhausted
)

// AdmissionPolicy configures the live server's deadline-aware
// admission controller (see internal/admission): per-type queueing
// budgets — explicit, or auto-derived as a multiple of DARC's profiled
// service times — plus the sustained-overload shedding behavior.
// The zero value auto-derives everything.
type AdmissionPolicy = admission.Config

// AdmissionStats is the admission controller's ledger snapshot,
// surfaced on LiveStats.Admission. Per slot (one per type plus one for
// unclassifiable requests) accepted == completed + shed exactly at any
// quiescent point.
type AdmissionStats = admission.Stats

// LiveConfig assembles a live server. It is the one public
// configuration path for the live runtime: NewLiveServerStopped
// translates it into a ready-to-start pipeline, and every constructor
// (NewLiveServer and Listen) goes through that translation.
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
	// requests are answered with StatusDropped.
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
	// their type's budget are answered with StatusOverloaded (plus a
	// retry-after hint) instead of occupying workers, and sustained
	// overload sheds in reverse-reservation order so short-request
	// tails stay bounded. Nil disables admission control.
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
// with ParseFaultProfile or a faults.Profile literal.
type FaultProfile = faults.Profile

// ParseFaultProfile decodes a chaos spec like
// "seed=42,drop=0.1,stall=0:5ms,crash=0.001,respawn=10ms".
func ParseFaultProfile(spec string) (FaultProfile, error) {
	return faults.ParseProfile(spec)
}

// LiveServer is the running Perséphone pipeline.
type LiveServer = psp.Server

// LiveStats is a snapshot of live-server metrics.
type LiveStats = psp.Stats

// ReconfigSpec is a declarative live-reconfiguration request for
// LiveServer.Reconfigure: swap the scheduling policy, resize the
// worker pool, retune admission budgets, or force a DARC reservation
// refresh — atomically and without dropping in-flight requests. Build
// one directly or decode the admin/HTTP form with ParseReconfigSpec.
type ReconfigSpec = reconfig.Spec

// ReconfigResult reports what a reconfiguration actually changed,
// including the drain wait for retired workers and the new
// configuration generation.
type ReconfigResult = reconfig.Result

// ReconfigSnapshot is the current runtime configuration as reported
// by LiveServer.ConfigSnapshot and the GET /admin/config endpoint.
type ReconfigSnapshot = reconfig.Snapshot

// ParseReconfigSpec decodes a reconfiguration spec from key=value
// lines (comments and blanks allowed) — the same format psp-server's
// -reconfig-file SIGHUP reload and the POST /admin/reconfig form
// accept (e.g. "policy=cfcfs\nworkers=6").
func ParseReconfigSpec(text string) (ReconfigSpec, error) {
	return reconfig.ParseSpecFile(text)
}

// NewLiveServerStopped translates a LiveConfig into a configured but
// not yet started pipeline — the single config path behind every live
// constructor. Use it when a transport takes ownership of startup
// (Listen starts the server itself) or when the caller wants to
// install sinks before the first request flows; otherwise
// NewLiveServer starts it for you.
func NewLiveServerStopped(cfg LiveConfig) (*LiveServer, error) {
	var spec PolicySpec
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
	srv, err := NewLiveServerStopped(cfg)
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
	udp *psp.UDPServer
	tcp *psp.TCPServer
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
	srv, err := NewLiveServerStopped(cfg)
	if err != nil {
		return nil, err
	}
	switch network {
	case "udp":
		u, err := psp.ListenUDPShards(addr, srv, psp.UDPOptions{
			Shards: cfg.NetShards,
			Burst:  cfg.RxBurst,
		})
		if err != nil {
			return nil, err
		}
		return &LiveListener{udp: u}, nil
	case "tcp":
		t, err := psp.ListenTCPShards(addr, srv, psp.TCPOptions{
			Shards:      cfg.NetShards,
			Burst:       cfg.RxBurst,
			MaxConns:    cfg.TCPMaxConns,
			IdleTimeout: cfg.TCPIdleTimeout,
		})
		if err != nil {
			return nil, err
		}
		return &LiveListener{tcp: t}, nil
	default:
		return nil, fmt.Errorf("persephone: Listen network %q (want \"udp\" or \"tcp\")", network)
	}
}

// Server exposes the underlying live pipeline (stats, tracing,
// metrics endpoints).
func (l *LiveListener) Server() *LiveServer {
	if l.udp != nil {
		return l.udp.Server
	}
	return l.tcp.Server
}

// Addr reports the primary bound address (the first UDP shard, or the
// TCP listener).
func (l *LiveListener) Addr() net.Addr {
	if l.udp != nil {
		return l.udp.Addr()
	}
	return l.tcp.Addr()
}

// Addrs reports every bound address — one per UDP ingress shard, or
// one per TCP accept shard (all equal under SO_REUSEPORT sharding).
func (l *LiveListener) Addrs() []net.Addr {
	if l.udp == nil {
		return l.tcp.Addrs()
	}
	shardAddrs := l.udp.Addrs()
	out := make([]net.Addr, len(shardAddrs))
	for i, a := range shardAddrs {
		out[i] = a
	}
	return out
}

// AddrStrings reports Addrs formatted as a comma-separated list — the
// form RunLoad's udp transport and psp-client accept for client-side
// shard selection.
func (l *LiveListener) AddrStrings() string {
	addrs := l.Addrs()
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// Received reports requests accepted into the pipeline at ingress.
func (l *LiveListener) Received() uint64 {
	if l.udp != nil {
		return l.udp.Received()
	}
	return l.tcp.Received()
}

// RxDrops reports ingress frames dropped unanswered: malformed ones,
// and over UDP those refused by a full ingress ring.
func (l *LiveListener) RxDrops() uint64 {
	if l.udp != nil {
		return l.udp.RxDrops()
	}
	return l.tcp.RxDrops()
}

// RxSheds reports ingress frames refused under buffer-pool exhaustion,
// and over TCP also those refused by a full ingress ring. TCP answers
// each with an immediate StatusDropped; UDP drops the datagram.
func (l *LiveListener) RxSheds() uint64 {
	if l.udp != nil {
		return l.udp.RxSheds()
	}
	return l.tcp.RxSheds()
}

// UDP exposes the UDP transport when the listener was built with
// Listen("udp", ...); nil otherwise.
func (l *LiveListener) UDP() *psp.UDPServer { return l.udp }

// TCP exposes the TCP transport when the listener was built with
// Listen("tcp", ...); nil otherwise.
func (l *LiveListener) TCP() *psp.TCPServer { return l.tcp }

// Close stops the transport and the server.
func (l *LiveListener) Close() error {
	if l.udp != nil {
		return l.udp.Close()
	}
	return l.tcp.Close()
}

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

// Transport names for LoadRunConfig.Transport.
const (
	LoadTransportInProcess = loadgen.TransportInProcess
	LoadTransportUDP       = loadgen.TransportUDP
	LoadTransportTCP       = loadgen.TransportTCP
)

// LoadResult summarises a load generation run.
type LoadResult = loadgen.Result

// RunLoad runs the open-loop Poisson client against the target named
// by rc — the one load-generation entry point across all transports.
// Admission NACKs (StatusOverloaded) are retried with the server's
// retry-after hint plus jittered backoff, up to rc.MaxRetries.
func RunLoad(rc LoadRunConfig) (*LoadResult, error) {
	return loadgen.Run(rc)
}

// Timeout helper so examples don't import time for one constant.
func Seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
