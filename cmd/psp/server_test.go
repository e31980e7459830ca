package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	persephone "repro"
	"repro/internal/proto"
)

// listenTest builds a small synthetic server on the given transport
// with a handler slow enough that requests are reliably in flight
// when the shutdown path runs.
func listenTest(t *testing.T, transport string) *persephone.LiveListener {
	t.Helper()
	ln, err := persephone.Listen(transport, "127.0.0.1:0", persephone.LiveConfig{
		Workers:    2,
		Classifier: persephone.FieldClassifier(0, 2),
		Handler: persephone.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			time.Sleep(500 * time.Microsecond)
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// received reports the requests ln's transport accepted at ingress.
func received(ln *persephone.LiveListener) uint64 {
	if u := ln.UDP(); u != nil {
		return u.Received()
	}
	return ln.TCP().Received()
}

// driveUDP fires typed requests at the listener until stop closes,
// draining responses so client-side buffers stay clear.
func driveUDP(t *testing.T, ln *persephone.LiveListener, stop chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	conn, err := net.Dial("udp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer conn.Close()
		payload := []byte{0, 0, 'd', 'r', 'a', 'i', 'n'}
		var id uint64
		var msg []byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			payload[0] = byte(id % 2)
			msg = proto.AppendMessage(msg[:0], proto.Header{
				Kind:      proto.KindRequest,
				RequestID: id,
			}, payload)
			if _, err := conn.Write(msg); err != nil {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
}

// driveTCP runs pipelined Calls over one connection until the server's
// drain closes it (Call then errors and the goroutines exit).
func driveTCP(t *testing.T, ln *persephone.LiveListener, stop chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	cl, err := persephone.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte{byte(g % 2), 0, 'd', 'r', 'a', 'i', 'n'}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Call(payload); err != nil {
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		cl.Close()
	}()
}

// TestShutdownDrainUnderLoad is the drain regression test for the
// unified SIGTERM/SIGINT path: with load actively in flight,
// closeAndSnapshot must answer everything already accepted (nothing
// silently lost: enqueued == dispatched + dropped) and the shutdown
// ledger must print in the identical format for UDP and TCP.
func TestShutdownDrainUnderLoad(t *testing.T) {
	ledgers := map[string]string{}
	digits := regexp.MustCompile(`[0-9][0-9.]*(µs|ms|s)?`)
	spaces := regexp.MustCompile(`[ \t]+`)
	for _, transport := range []string{"udp", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			ln := listenTest(t, transport)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if transport == "udp" {
				driveUDP(t, ln, stop, &wg)
			} else {
				driveTCP(t, ln, stop, &wg)
			}

			// Let load build so the close really races in-flight work.
			deadline := time.Now().Add(2 * time.Second)
			for received(ln) < 50 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if received(ln) == 0 {
				t.Fatal("no load reached the server")
			}

			st := closeAndSnapshot(ln)
			close(stop)
			wg.Wait()

			if st.Enqueued == 0 {
				t.Fatal("nothing enqueued")
			}
			if st.Enqueued != st.Dispatched+st.Dropped {
				t.Fatalf("drain lost requests: enqueued %d != dispatched %d + dropped %d",
					st.Enqueued, st.Dispatched, st.Dropped)
			}

			var b bytes.Buffer
			printShutdownSummary(&b, st, ln.RxDrops(), ln.RxSheds())
			out := b.String()
			if !strings.Contains(out, "enqueued") || !strings.Contains(out, "rx sheds") {
				t.Fatalf("unexpected ledger:\n%s", out)
			}
			// Numbers become N, then padding runs collapse: the summary
			// right-aligns columns, so the whitespace width itself
			// depends on the digit counts being erased.
			ledgers[transport] = spaces.ReplaceAllString(digits.ReplaceAllString(out, "N"), " ")
		})
	}
	if u, ok := ledgers["udp"]; ok {
		if c, ok := ledgers["tcp"]; ok && u != c {
			t.Errorf("shutdown ledgers diverge between transports:\nudp:\n%s\ntcp:\n%s", u, c)
		}
	}
}

// TestApplyReconfigFile covers the SIGHUP reload path: a good spec
// file applies live (generation bumps, policy and pool change), a bad
// one reports and leaves the server untouched.
func TestApplyReconfigFile(t *testing.T) {
	ln := listenTest(t, "udp")
	defer ln.Close()
	srv := ln.Server()

	path := filepath.Join(t.TempDir(), "reconfig.conf")
	spec := "# live reconfig\npolicy=cfcfs\nworkers=3\n"
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	applyReconfigFile(srv, path, &out, &errw)
	if errw.Len() != 0 {
		t.Fatalf("reload failed: %s", errw.String())
	}
	snap := srv.ConfigSnapshot()
	if snap.Policy != "c-FCFS" || snap.Workers != 3 || snap.Generation != 1 {
		t.Fatalf("snapshot after reload: %+v", snap)
	}
	if !strings.Contains(out.String(), "reconfig gen 1") {
		t.Fatalf("reload output: %q", out.String())
	}

	// A bad spec reports and changes nothing.
	if err := os.WriteFile(path, []byte("policy=quantum\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	applyReconfigFile(srv, path, &out, &errw)
	if errw.Len() == 0 {
		t.Fatal("bad spec applied silently")
	}
	if snap := srv.ConfigSnapshot(); snap.Generation != 1 {
		t.Fatalf("bad spec bumped generation: %+v", snap)
	}

	// A missing file reports and changes nothing.
	errw.Reset()
	applyReconfigFile(srv, filepath.Join(t.TempDir(), "gone"), &out, &errw)
	if errw.Len() == 0 {
		t.Fatal("missing file applied silently")
	}
}
