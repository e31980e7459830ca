package psp

// Conservation battery for the pipelined TCP datapath: every frame a
// client sends is accounted for exactly once — answered (any status),
// shed with StatusDropped, dropped at ingress, or eaten by the chaos
// layer — per connection and globally, under randomized connection
// counts, pipeline depths, and fault seeds. Run under -race in CI.

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sched"
)

// connTally is what one connection's reader observed.
type connTally struct {
	replies uint64
	foreign uint64 // responses to IDs this connection never sent
	perID   map[uint64]int
}

// runTCPConservation opens conns pipelined connections, pushes n
// requests per connection with at most depth outstanding (a reply of
// any status releases a slot; chaos-eaten requests are released by a
// straggler timeout so the window cannot wedge), waits for the server
// to go quiet, closes it — the graceful drain answers everything still
// inside the pipeline — and returns the per-connection tallies.
func runTCPConservation(t *testing.T, ts *TCPServer, conns, depth, n int) []*connTally {
	t.Helper()
	tallies := make([]*connTally, conns)
	var sendWG, readWG sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		tally := &connTally{perID: map[uint64]int{}}
		tallies[ci] = tally
		conn, err := net.Dial("tcp", ts.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		base := uint64(ci+1) << 32
		sem := make(chan struct{}, depth)
		readWG.Add(1)
		go func(ci int) {
			defer readWG.Done()
			rd := bufio.NewReaderSize(conn, 1<<16)
			var sc FrameScanner
			chunk := make([]byte, 32*1024)
			for {
				m, err := rd.Read(chunk)
				if m > 0 {
					perr := sc.Push(chunk[:m], func(frame []byte) error {
						hdr, _, derr := proto.DecodeHeader(frame)
						if derr != nil || hdr.Kind != proto.KindResponse {
							return fmt.Errorf("bad response frame: %v", derr)
						}
						if hdr.RequestID>>32 != uint64(ci+1) {
							tally.foreign++
						}
						tally.perID[hdr.RequestID]++
						tally.replies++
						select {
						case <-sem:
						default: // duplicate reply: no slot held
						}
						return nil
					})
					if perr != nil {
						t.Error(perr)
						return
					}
				}
				if err != nil {
					return // EOF after the server's drain
				}
			}
		}(ci)
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			var out []byte
			for i := 0; i < n; i++ {
				// A chaos-eaten request never replies; time out the
				// window slot so the sender cannot wedge.
				select {
				case sem <- struct{}{}:
				case <-time.After(200 * time.Millisecond):
				}
				out = appendRequestFrame(out[:0], base|uint64(i+1), 0, typedPayload(i%2, "conserve"))
				if _, err := conn.Write(out); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Senders finish, stragglers settle (no ingress-counter movement
	// for a while means every sent frame has been read and bucketed),
	// then the drain answers the backlog and the readers see EOF.
	sendWG.Wait()
	var last uint64
	for idle := 0; idle < 20; { // 20 * 10ms with no ingress movement
		time.Sleep(10 * time.Millisecond)
		now := ts.Received() + ts.RxDrops() + ts.RxSheds()
		if now == last {
			idle++
		} else {
			last, idle = now, 0
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	readWG.Wait()
	return tallies
}

func TestTCPPipelinedConservation(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			conns := 1 + int(r.Uint64()%4)
			depth := 1 + int(r.Uint64()%32)
			n := 100 + int(r.Uint64()%150)
			srv, err := NewServer(Config{
				Workers:    2,
				Classifier: classify.Field{Offset: 0, Types: 2},
				Handler: HandlerFunc(func(typ int, p, rr []byte) (int, proto.Status) {
					return copy(rr, p), proto.StatusOK
				}),
				Policy:   sched.Spec{Kind: sched.KindCFCFS},
				TraceCap: -1,
				Faults:   &faults.Profile{Seed: seed, DropRate: 0.05, DupRate: 0.05},
			})
			if err != nil {
				t.Fatal(err)
			}
			ts, err := ListenTCP("127.0.0.1:0", srv)
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()

			tallies := runTCPConservation(t, ts, conns, depth, n)

			var replies, foreign uint64
			for ci, tally := range tallies {
				replies += tally.replies
				foreign += tally.foreign
				for id, c := range tally.perID {
					// A request replies at most once, plus once more per
					// chaos duplicate sharing its ID; three dups of one
					// frame is implausible at a 5% rate and this scale.
					if c > 3 {
						t.Errorf("conn %d: request %#x answered %d times", ci, id, c)
					}
				}
				if tally.replies > uint64(n)*2 {
					t.Errorf("conn %d: %d replies for %d sends", ci, tally.replies, n)
				}
			}
			if foreign != 0 {
				t.Fatalf("%d responses crossed connections", foreign)
			}

			// Global conservation. Every accepted or shed frame produces
			// exactly one reply:
			//   replies == rx + sheds
			// and every sent frame (plus injected duplicates) lands in
			// exactly one bucket:
			//   sent + dups == rx + sheds + rxDrops + chaosDrops
			sent := uint64(conns * n)
			cnt := srv.inj.Counts()
			rx, sheds, drops := ts.Received(), ts.RxSheds(), ts.RxDrops()
			if replies != rx+sheds {
				t.Fatalf("replies %d != rx %d + sheds %d", replies, rx, sheds)
			}
			if sent+cnt.Dups != rx+sheds+drops+cnt.Drops {
				t.Fatalf("sent %d + dups %d != rx %d + sheds %d + rxDrops %d + chaosDrops %d",
					sent, cnt.Dups, rx, sheds, drops, cnt.Drops)
			}
			if ts.poolOutstanding() != 0 {
				t.Fatalf("%d pooled buffers leaked", ts.poolOutstanding())
			}
		})
	}
}

// TestTCPConservationNoFaults is the exact variant: with no chaos and
// a bounded window, every request is answered exactly once.
func TestTCPConservationNoFaults(t *testing.T) {
	ts := newTCPServerOpts(t, TCPOptions{}, nil)
	const conns, depth, n = 3, 16, 200
	tallies := runTCPConservation(t, ts, conns, depth, n)
	for ci, tally := range tallies {
		if tally.replies != n {
			t.Errorf("conn %d: %d replies, want %d", ci, tally.replies, n)
		}
		if tally.foreign != 0 {
			t.Errorf("conn %d: %d foreign responses", ci, tally.foreign)
		}
		for id, c := range tally.perID {
			if c != 1 {
				t.Errorf("conn %d: request %#x answered %d times", ci, id, c)
			}
		}
	}
}
