package psp

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/proto"
	"repro/internal/spsc"
)

// UDPServer wraps a Server with the paper's networking model, scaled
// out: N ingress shards, each a net worker on its own UDP socket,
// drain *bursts* of datagrams into pooled buffers and hand each burst
// to the dispatcher in a single ring synchronization (§4.3.1's
// amortized packet path). On egress, the completing worker encodes the
// response into the request's own ingress buffer (the zero-copy path)
// and sends it itself — the paper's workers own TX. A datagram is one
// sendto whoever makes the call, so a TX goroutine between worker and
// socket would add a hand-off and amortize nothing.
type UDPServer struct {
	Server *Server
	shards []*udpShard

	rxWG   sync.WaitGroup
	closed atomic.Bool
}

// UDPOptions tunes the sharded datapath. The zero value means one
// shard, 32-datagram bursts and 4096 pooled buffers per shard.
type UDPOptions struct {
	// Shards is the number of ingress sockets, each with its own net
	// worker and buffer pool. With a non-zero listen port, shard i binds
	// port+i; with port 0 every shard gets its own ephemeral port.
	// Clients pick a shard per request (see loadgen.RunUDP's
	// multi-address support).
	Shards int
	// Burst caps how many datagrams one net-worker wakeup drains
	// before the batch is handed to the dispatcher.
	Burst int
	// PoolSize is the number of pooled ingress buffers per shard.
	PoolSize int
}

func (o *UDPOptions) fill() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Burst <= 0 {
		o.Burst = 32
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4096
	}
}

// udpBufPayload is the largest request datagram a pooled buffer
// accepts; the buffer is sized with proto.ResponseOverhead headroom so
// the same buffer holds the response frame for any payload up to the
// default worker scratch size.
const udpBufPayload = 2048

// udpShard is one ingress/egress lane: socket, buffer pool, burst
// scratch, and counters.
type udpShard struct {
	srv  *Server
	conn *net.UDPConn
	raw  syscall.RawConn
	pool *spsc.Pool

	// Burst scratch, owned by the shard's net worker.
	bufs    []*spsc.Buffer
	addrs   []*net.UDPAddr
	scratch []byte // shed reads when the pool is exhausted

	// Source-address cache (net-worker-owned): consecutive datagrams
	// from one client reuse a single immutable *net.UDPAddr instead of
	// allocating per datagram.
	lastIP4  [4]byte
	lastPort int
	lastAddr *net.UDPAddr

	ingressLedger
}

// ListenUDP binds addr (e.g. "127.0.0.1:9940") with a single shard and
// default batching, and starts the datapath on top of an
// already-configured (but not yet started) Server.
func ListenUDP(addr string, srv *Server) (*UDPServer, error) {
	return ListenUDPShards(addr, srv, UDPOptions{})
}

// ListenUDPShards binds opts.Shards sockets starting at addr and
// starts the full sharded datapath. With a non-zero port in addr,
// shard i listens on port+i; with port 0 each shard takes an ephemeral
// port. Addrs reports the bound set.
func ListenUDPShards(addr string, srv *Server, opts UDPOptions) (*UDPServer, error) {
	opts.fill()
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("psp: resolve %q: %w", addr, err)
	}
	u := &UDPServer{Server: srv}
	for i := 0; i < opts.Shards; i++ {
		shardAddr := *udpAddr
		if udpAddr.Port != 0 {
			shardAddr.Port = udpAddr.Port + i
		}
		conn, err := net.ListenUDP("udp", &shardAddr)
		if err != nil {
			for _, sh := range u.shards {
				sh.conn.Close()
			}
			return nil, fmt.Errorf("psp: listen %q shard %d: %w", addr, i, err)
		}
		// Saturation bursts outrun the net worker briefly; ask for deep
		// kernel buffers (clamped to net.core.{r,w}mem_max) so those
		// bursts queue instead of dropping.
		conn.SetReadBuffer(4 << 20)  //nolint:errcheck // best effort
		conn.SetWriteBuffer(4 << 20) //nolint:errcheck // best effort
		raw, err := conn.SyscallConn()
		if err != nil {
			conn.Close()
			for _, sh := range u.shards {
				sh.conn.Close()
			}
			return nil, fmt.Errorf("psp: raw conn shard %d: %w", i, err)
		}
		u.shards = append(u.shards, &udpShard{
			srv:     srv,
			conn:    conn,
			raw:     raw,
			pool:    spsc.NewPool(opts.PoolSize, udpBufPayload+proto.ResponseOverhead),
			bufs:    make([]*spsc.Buffer, opts.Burst),
			addrs:   make([]*net.UDPAddr, opts.Burst),
			scratch: make([]byte, udpBufPayload+proto.ResponseOverhead),
		})
	}
	srv.Start()
	for _, sh := range u.shards {
		u.rxWG.Add(1)
		go u.netWorker(sh)
	}
	return u, nil
}

// Addr reports the first shard's bound address.
func (u *UDPServer) Addr() *net.UDPAddr { return u.shards[0].conn.LocalAddr().(*net.UDPAddr) }

// Addrs reports every shard's bound address, in shard order.
func (u *UDPServer) Addrs() []*net.UDPAddr {
	out := make([]*net.UDPAddr, len(u.shards))
	for i, sh := range u.shards {
		out[i] = sh.conn.LocalAddr().(*net.UDPAddr)
	}
	return out
}

// Shards reports the number of ingress shards.
func (u *UDPServer) Shards() int { return len(u.shards) }

// RxDrops reports datagrams dropped at ingress because they were
// malformed or the ingress ring was full. Pool-exhaustion sheds are
// counted separately in RxSheds.
func (u *UDPServer) RxDrops() uint64 { return ingressTotals(u.shards).drops }

// RxSheds reports datagrams shed at ingress because the shard's
// buffer pool was exhausted (sustained overload backpressure).
func (u *UDPServer) RxSheds() uint64 { return ingressTotals(u.shards).sheds }

// TxRingFull always reports 0: every UDP response is transmitted by
// the completing worker, so there is no TX ring to overflow. The method
// remains for callers that total it with TCPServer.TxRingFull.
func (u *UDPServer) TxRingFull() uint64 { return 0 }

// Received reports datagrams accepted into the pipeline across all
// shards.
func (u *UDPServer) Received() uint64 { return ingressTotals(u.shards).rx }

// ShardReceived reports datagrams accepted by one shard.
func (u *UDPServer) ShardReceived(i int) uint64 { return u.shards[i].rx.Load() }

// Close releases the sockets, waits for the net workers, and stops the
// server.
func (u *UDPServer) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	var err error
	for _, sh := range u.shards {
		if e := sh.conn.Close(); e != nil && err == nil {
			err = e // unblocks that shard's net worker
		}
	}
	u.rxWG.Wait()
	// Stop drains the queues; the drop responses fail harmlessly on the
	// closed sockets.
	u.Server.Stop()
	return err
}

// netWorker is the paper's net-worker analogue for one shard: drain a
// burst of datagrams and run each through the request path's ingest
// and burst steps, which hand the burst to the dispatcher in one ring
// synchronization.
func (u *UDPServer) netWorker(sh *udpShard) {
	defer u.rxWG.Done()
	// Room for a chaos duplicate of every datagram.
	batch := make([]*Request, 0, 2*len(sh.bufs))
	for {
		n, err := sh.readBurst()
		batch = batch[:0]
		for i := 0; i < n; i++ {
			buf, from := sh.bufs[i], sh.addrs[i]
			sh.bufs[i] = nil
			if from == nil {
				// A source recvfrom could not name: nowhere to answer.
				buf.Release()
				sh.rxDrops.Add(1)
				continue
			}
			batch = u.Server.ingest(batch, buf.Bytes(), buf, sh, from)
		}
		u.Server.burst(batch, sh)
		if err != nil {
			return // socket closed
		}
		if n == 0 {
			// A pure-shed round (pool exhausted): yield so workers can
			// run and return buffers instead of starving them with
			// back-to-back shed reads.
			runtime.Gosched()
		}
	}
}

// send is the datagram egress: encode the response (in the request's
// own ingress buffer when it fits) and send it from the settling
// goroutine, which releases the buffer afterwards.
func (sh *udpShard) send(r *Request, resp Response) {
	msg, _ := r.encode(resp, 0)
	sh.conn.WriteToUDP(msg, r.peer) //nolint:errcheck // fire-and-forget UDP
}

// shed is the datagram rule for a request the pipeline refused: drop
// it, counted in RxDrops. The client's timeout covers it, as it covers
// loss on the wire.
func (sh *udpShard) shed(r *Request) {
	if r.buf != nil { // a chaos duplicate has none
		r.buf.Release()
	}
	sh.rxDrops.Add(1)
}
