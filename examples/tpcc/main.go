// tpcc: the paper's TPC-C experiment (§5.4.3) on the live runtime.
//
// The five TPC-C transactions run against a from-scratch in-memory
// database. Requests carry the transaction ID in their first two
// payload bytes; DARC profiles the five service classes, groups
// similar ones (the paper's grouping: {Payment, OrderStatus},
// {NewOrder}, {Delivery, StockLevel}) and partitions the cores.
//
//	go run ./examples/tpcc
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	persephone "repro"
	"repro/internal/proto"
	"repro/internal/tpcc"
)

func main() {
	db := tpcc.New(tpcc.Default(), 1)
	srv, err := persephone.NewLiveServer(persephone.LiveConfig{
		Workers:    4,
		Classifier: persephone.FieldClassifier(0, tpcc.NumTransactions()),
		Handler:    handler(db),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	mix := persephone.TPCC()
	var seq uint32
	res, err := persephone.RunLoad(persephone.LoadRunConfig{
		Config: persephone.LoadConfig{
			Mix:      mix,
			Rate:     3000,
			Duration: 3 * time.Second,
			Seed:     2,
			BuildPayload: func(typ int) []byte {
				seq++
				p := make([]byte, 6)
				binary.LittleEndian.PutUint16(p[0:2], uint16(typ))
				binary.LittleEndian.PutUint16(p[2:4], uint16(seq%10))  // district
				binary.LittleEndian.PutUint16(p[4:6], uint16(seq%300)) // customer
				return p
			},
		},
		Server: srv,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-C on the live Perséphone runtime: sent=%d recv=%d drops=%d\n\n",
		res.Sent, res.Received, res.Dropped)
	fmt.Printf("%-12s %8s %14s %14s\n", "transaction", "count", "p99", "p99.9")
	for i, h := range res.Latency {
		fmt.Printf("%-12s %8d %14v %14v\n", mix.Types[i].Name, h.Count(),
			h.QuantileDuration(0.99), h.QuantileDuration(0.999))
	}
	counts := db.Counts()
	fmt.Printf("\ndatabase: executed %v transactions, warehouse YTD %d cents, %d pending deliveries\n",
		counts, db.WarehouseYTD(), db.PendingDeliveries())
	st := srv.StatsSnapshot()
	fmt.Printf("server: %d reservation updates applied\n", st.Updates)
}

func handler(db *tpcc.DB) persephone.Handler {
	return persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
		var d, c int
		if len(payload) >= 6 {
			d = int(binary.LittleEndian.Uint16(payload[2:4])) % db.Districts()
			c = int(binary.LittleEndian.Uint16(payload[4:6])) % db.Customers()
		}
		if err := db.Exec(tpcc.Transaction(typ), d, c, 100); err != nil {
			return 0, proto.StatusError
		}
		return 0, proto.StatusOK
	})
}
