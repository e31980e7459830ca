// kvstore: the paper's RocksDB experiment (§5.4.4) on the live
// runtime, in-process.
//
// A from-scratch skiplist store serves GETs (point lookups) and SCANs
// (range scans over 5000 keys) — two service classes with two orders
// of magnitude of dispersion. A command classifier types each request
// by its first token on the dispatch path; DARC profiles both types and
// reserves cores for GETs so they stop queueing behind SCANs.
//
//	go run ./examples/kvstore
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	persephone "repro"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/rng"
)

func buildStore() *kvstore.Store {
	store := kvstore.New(7)
	for i := 0; i < 5000; i++ {
		store.Put([]byte(fmt.Sprintf("key%06d", i)), make([]byte, 64))
	}
	return store
}

func handler(store *kvstore.Store) persephone.Handler {
	return persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
		switch typ {
		case 0: // GET <key>
			if f := bytes.Fields(payload); len(f) == 2 {
				if v, ok := store.Get(f[1]); ok {
					return copy(resp, v), proto.StatusOK
				}
			}
			return 0, proto.StatusError
		case 1: // SCAN
			entries, total := store.ScanCount(nil, 5000)
			return copy(resp, fmt.Sprintf("%d entries, %d bytes", entries, total)), proto.StatusOK
		default:
			return 0, proto.StatusError
		}
	})
}

func run(useCFCFS bool) {
	store := buildStore()
	srv, err := persephone.NewLiveServer(persephone.LiveConfig{
		Workers:          4,
		Classifier:       persephone.CommandClassifier("GET", "SCAN"),
		Handler:          handler(store),
		UseCFCFS:         useCFCFS,
		MinWindowSamples: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	mix := persephone.RocksDB() // 50% GET / 50% SCAN ratios
	const seed = 1
	// One key per GET, drawn on the load generator's one pacing
	// goroutine from a stream apart from the arrivals'.
	keys := rng.NewStream(seed, 1)
	res, err := persephone.RunLoad(persephone.LoadRunConfig{
		Config: persephone.LoadConfig{
			Mix:      mix,
			Rate:     2000,
			Duration: 3 * time.Second,
			Seed:     seed,
			BuildPayload: func(typ int) []byte {
				if typ == 0 {
					return []byte(fmt.Sprintf("GET key%06d", keys.Intn(5000)))
				}
				return []byte("SCAN")
			},
		},
		Server: srv,
	})
	if err != nil {
		log.Fatal(err)
	}
	label := "DARC"
	if useCFCFS {
		label = "c-FCFS"
	}
	fmt.Printf("%-7s sent=%d recv=%d  GET p99.9=%-12v SCAN p99.9=%-12v\n",
		label, res.Sent, res.Received,
		res.Latency[0].QuantileDuration(0.999),
		res.Latency[1].QuantileDuration(0.999))
	st := srv.StatsSnapshot()
	fmt.Printf("        server: dispatched=%d dropped=%d reservation-updates=%d\n",
		st.Dispatched, st.Dropped, st.Updates)
}

func main() {
	fmt.Println("RocksDB-style KV service on the live Perséphone runtime")
	fmt.Println("(absolute latencies are Go-runtime-bound; compare the two rows)")
	fmt.Println()
	run(true)  // baseline
	run(false) // DARC
}
