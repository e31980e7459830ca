// memcached: a memcached-style cache served by the live Perséphone
// runtime over TCP — the paper's §1 example of a protocol whose
// request types live in the protocol itself ("Memcached request types
// are part of the protocol's header").
//
// A Command classifier types requests by their first token (GET, SET,
// DELETE, INCR, GETS); GETS (multi-key reads) is the expensive class,
// so DARC learns to protect the single-key operations from it.
//
//	go run ./examples/memcached
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	persephone "repro"
	"repro/internal/memcache"
	"repro/internal/proto"
)

func main() {
	cache := memcache.New()
	// Preload a working set; GETS requests will scan many keys.
	for i := 0; i < 2000; i++ {
		cache.Set(fmt.Sprintf("key%04d", i), []byte(fmt.Sprintf("value-%04d", i)), 0)
	}

	ln, err := persephone.Listen("tcp", "127.0.0.1:0", persephone.LiveConfig{
		Workers:          4,
		Classifier:       persephone.CommandClassifier(memcache.CommandNames()...),
		MinWindowSamples: 256,
		Handler: persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
			out := memcache.Execute(cache, payload, resp[:0])
			if len(out) > len(resp) {
				out = out[:len(resp)]
			}
			return copy(resp, out), proto.StatusOK
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("memcached-style server on %s (TCP, DARC dispatcher)\n\n", ln.Addr())

	cli, err := persephone.DialTCP(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// A quick interactive transcript.
	for _, req := range []string{
		"set greeting 0 hello world",
		"get greeting",
		"incr missing 1",
		"set counter 0 41",
		"incr counter 1",
		"gets key0001 key0002 greeting",
		"delete greeting",
		"get greeting",
	} {
		resp, err := cli.Call([]byte(req))
		if err != nil {
			log.Fatal(err)
		}
		line, _, _ := bytes.Cut(resp.Payload, []byte("\r\n"))
		fmt.Printf("> %-35s %q\n", req, line)
	}

	// Then a small concurrent workload mixing cheap GETs with heavy
	// multi-key GETS, and a look at what the dispatcher learned.
	fmt.Println("\nrunning 2000 mixed requests (90% GET / 10% GETS over 64 keys)...")
	var wg sync.WaitGroup
	r := rand.New(rand.NewSource(1))
	manyKeys := ""
	for i := 0; i < 64; i++ {
		manyKeys += fmt.Sprintf(" key%04d", i)
	}
	start := time.Now()
	for i := 0; i < 2000; i++ {
		req := fmt.Sprintf("get key%04d", r.Intn(2000))
		if i%10 == 0 {
			req = "gets" + manyKeys
		}
		wg.Add(1)
		go func(req string) {
			defer wg.Done()
			if _, err := cli.Call([]byte(req)); err != nil {
				log.Print(err)
			}
		}(req)
		if i%100 == 99 {
			wg.Wait() // bounded concurrency
		}
	}
	wg.Wait()
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	st := ln.Server().StatsSnapshot()
	fmt.Printf("dispatcher: %d requests, %d reservation updates\n", st.Dispatched, st.Updates)
	for _, row := range st.Summaries {
		if row.Completed == 0 {
			continue
		}
		fmt.Printf("  %-8s n=%-6d p50=%-12v p999=%v\n", row.Name, row.Completed, row.P50, row.P999)
	}
	cs := cache.Snapshot()
	fmt.Printf("cache: %d items, %d hits, %d misses\n", cs.Items, cs.Hits, cs.Misses)
}
