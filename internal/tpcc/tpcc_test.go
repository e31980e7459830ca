package tpcc

import (
	"sync"
	"testing"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	cfg := Config{Districts: 3, CustomersPerDist: 20, Items: 500, InitialOrdersPerD: 30}
	return New(cfg, 7)
}

func TestTransactionNames(t *testing.T) {
	want := []string{"Payment", "OrderStatus", "NewOrder", "Delivery", "StockLevel"}
	for i, name := range want {
		if Transaction(i).String() != name {
			t.Fatalf("transaction %d named %q", i, Transaction(i))
		}
	}
	if NumTransactions() != 5 {
		t.Fatalf("NumTransactions %d", NumTransactions())
	}
	if Transaction(99).String() == "" {
		t.Fatal("out-of-range name empty")
	}
}

func TestPayment(t *testing.T) {
	db := newTestDB(t)
	before, _ := db.CustomerBalance(0, 5)
	if err := db.PaymentTxn(0, 5, 1234); err != nil {
		t.Fatal(err)
	}
	after, _ := db.CustomerBalance(0, 5)
	if after != before-1234 {
		t.Fatalf("balance %d -> %d", before, after)
	}
	if db.WarehouseYTD() != 1234 {
		t.Fatalf("warehouse YTD %d", db.WarehouseYTD())
	}
	if db.Counts()[Payment] != 1 {
		t.Fatal("payment count")
	}
}

func TestPaymentValidation(t *testing.T) {
	db := newTestDB(t)
	if err := db.PaymentTxn(99, 0, 1); err == nil {
		t.Fatal("bad district accepted")
	}
	if err := db.PaymentTxn(0, 9999, 1); err == nil {
		t.Fatal("bad customer accepted")
	}
}

func TestNewOrderAndOrderStatus(t *testing.T) {
	db := newTestDB(t)
	id1, err := db.NewOrderTxn(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := db.NewOrderTxn(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id1 {
		t.Fatalf("order ids not monotone: %d then %d", id1, id2)
	}
	lines, err := db.OrderStatusTxn(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lines < 5 || lines > 15 {
		t.Fatalf("last order has %d lines, want 5-15", lines)
	}
}

func TestOrderStatusNoOrders(t *testing.T) {
	db := New(Config{Districts: 1, CustomersPerDist: 5, Items: 100, InitialOrdersPerD: 0}, 1)
	lines, err := db.OrderStatusTxn(0, 0)
	if err != nil || lines != 0 {
		t.Fatalf("lines=%d err=%v", lines, err)
	}
}

func TestDelivery(t *testing.T) {
	db := newTestDB(t)
	// Initial orders are delivered; place fresh ones.
	for d := 0; d < 3; d++ {
		if _, err := db.NewOrderTxn(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	pendingBefore := db.PendingDeliveries()
	if pendingBefore != 3 {
		t.Fatalf("pending %d, want 3", pendingBefore)
	}
	balBefore, _ := db.CustomerBalance(0, 1)
	n := db.DeliveryTxn()
	if n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	if db.PendingDeliveries() != 0 {
		t.Fatal("orders still pending")
	}
	balAfter, _ := db.CustomerBalance(0, 1)
	if balAfter <= balBefore {
		t.Fatal("delivery did not credit the customer")
	}
	// Delivery with nothing pending is a cheap no-op.
	if db.DeliveryTxn() != 0 {
		t.Fatal("empty delivery delivered something")
	}
}

func TestStockLevel(t *testing.T) {
	db := newTestDB(t)
	low, err := db.StockLevelTxn(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if low == 0 {
		t.Fatal("threshold 1000 should count every touched item as low")
	}
	none, err := db.StockLevelTxn(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if none != 0 {
		t.Fatalf("threshold -1 counted %d items", none)
	}
	if _, err := db.StockLevelTxn(42, 10); err == nil {
		t.Fatal("bad district accepted")
	}
}

func TestCountsAccumulate(t *testing.T) {
	db := newTestDB(t)
	db.PaymentTxn(0, 0, 1)
	db.PaymentTxn(0, 0, 1)
	db.OrderStatusTxn(0, 0)
	db.NewOrderTxn(0, 0)
	db.DeliveryTxn()
	db.StockLevelTxn(0, 50)
	got := db.Counts()
	want := [5]uint64{2, 1, 1, 1, 1}
	if got != want {
		t.Fatalf("counts %v, want %v", got, want)
	}
}

// TestExec checks the one transaction switch the live server's tpcc
// app and examples/tpcc share: each type runs its transaction once,
// Payment with the given amount, and errors pass through.
func TestExec(t *testing.T) {
	db := newTestDB(t)
	for typ := Payment; typ < numTransactions; typ++ {
		if err := db.Exec(typ, 1, 2, 250); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
	}
	if got := db.Counts(); got != [5]uint64{1, 1, 1, 1, 1} {
		t.Fatalf("counts %v, want one of each", got)
	}
	if ytd := db.WarehouseYTD(); ytd != 250 {
		t.Fatalf("warehouse YTD %d, want the one payment of 250", ytd)
	}
	if err := db.Exec(numTransactions, 0, 0, 1); err == nil {
		t.Fatal("unknown transaction accepted")
	}
	if err := db.Exec(Payment, db.Districts(), 0, 1); err == nil {
		t.Fatal("out-of-range district accepted")
	}
}

func TestDefaultConfigConstruction(t *testing.T) {
	db := New(Config{}, 1) // falls back to Default()
	if db.Districts() != 10 || db.Customers() != 300 {
		t.Fatalf("districts %d customers %d", db.Districts(), db.Customers())
	}
}

func TestConcurrentTransactions(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					db.PaymentTxn(g%3, i%20, 10)
				case 1:
					db.OrderStatusTxn(g%3, i%20)
				case 2:
					db.NewOrderTxn(g%3, i%20)
				case 3:
					db.DeliveryTxn()
				case 4:
					db.StockLevelTxn(g%3, 40)
				}
			}
		}(g)
	}
	wg.Wait()
	counts := db.Counts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 800 {
		t.Fatalf("executed %d transactions, want 800", total)
	}
}

// TestServiceTimeOrdering checks the substrate preserves Table 4's
// cost ordering: Payment/OrderStatus are the cheapest transactions,
// StockLevel the most expensive.
func TestServiceTimeOrdering(t *testing.T) {
	db := New(Default(), 3)
	meas := func(f func()) int64 {
		const reps = 200
		best := int64(1 << 62)
		for trial := 0; trial < 3; trial++ {
			start := nanotime()
			for i := 0; i < reps; i++ {
				f()
			}
			if d := (nanotime() - start) / reps; d < best {
				best = d
			}
		}
		return best
	}
	pay := meas(func() { db.PaymentTxn(0, 1, 5) })
	stock := meas(func() { db.StockLevelTxn(0, 60) })
	if stock < pay*3 {
		t.Fatalf("StockLevel (%dns) not clearly heavier than Payment (%dns)", stock, pay)
	}
}

func BenchmarkPayment(b *testing.B) {
	db := New(Default(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.PaymentTxn(i%10, i%300, 10)
	}
}

func BenchmarkOrderStatus(b *testing.B) {
	db := New(Default(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.OrderStatusTxn(i%10, i%300)
	}
}

func BenchmarkNewOrder(b *testing.B) {
	db := New(Default(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.NewOrderTxn(i%10, i%300)
	}
}

func BenchmarkDelivery(b *testing.B) {
	db := New(Default(), 1)
	for i := 0; i < 1000; i++ {
		db.NewOrderTxn(i%10, i%300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 0 {
			b.StopTimer()
			for j := 0; j < 100; j++ {
				db.NewOrderTxn(j%10, j%300)
			}
			b.StartTimer()
		}
		db.DeliveryTxn()
	}
}

func BenchmarkStockLevel(b *testing.B) {
	db := New(Default(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.StockLevelTxn(i%10, 60)
	}
}
