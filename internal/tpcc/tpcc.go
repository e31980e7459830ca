// Package tpcc is a from-scratch in-memory implementation of the five
// TPC-C transactions the paper's Table 4 workload models: Payment,
// OrderStatus, NewOrder, Delivery and StockLevel over a single
// warehouse. It is not a compliant TPC-C kit — it reproduces the
// *service-time structure* (cheap payments, mid-weight order entry,
// expensive deliveries and stock scans) that makes the workload
// n-modal.
package tpcc

import (
	"fmt"
	"sync"

	"repro/internal/rng"
)

// Transaction identifies one of the five TPC-C transaction types, in
// the paper's Table 4 order.
type Transaction int

// The five transactions, ordered by ascending mean service time as in
// Table 4.
const (
	Payment Transaction = iota
	OrderStatus
	NewOrder
	Delivery
	StockLevel
	numTransactions
)

// String implements fmt.Stringer.
func (t Transaction) String() string {
	switch t {
	case Payment:
		return "Payment"
	case OrderStatus:
		return "OrderStatus"
	case NewOrder:
		return "NewOrder"
	case Delivery:
		return "Delivery"
	case StockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("Transaction(%d)", int(t))
	}
}

// NumTransactions reports how many transaction types exist.
func NumTransactions() int { return int(numTransactions) }

// Config sizes the database. The defaults (Default) scale a single
// warehouse down so construction stays fast in tests while preserving
// each transaction's relative cost.
type Config struct {
	Districts         int // districts per warehouse (TPC-C: 10)
	CustomersPerDist  int // customers per district (TPC-C: 3000)
	Items             int // catalog size (TPC-C: 100000)
	InitialOrdersPerD int // preloaded orders per district
}

// Default returns the scaled-down single-warehouse configuration.
func Default() Config {
	return Config{
		Districts:         10,
		CustomersPerDist:  300,
		Items:             10000,
		InitialOrdersPerD: 100,
	}
}

type customer struct {
	id        int
	balance   int64 // cents
	ytdPay    int64
	payCount  int
	lastOrder int // order id, -1 if none
}

type orderLine struct {
	itemID   int
	quantity int
	amount   int64
}

type order struct {
	id        int
	customer  int
	delivered bool
	lines     []orderLine
}

type district struct {
	id         int
	ytd        int64
	nextOrder  int
	customers  []customer
	orders     map[int]*order
	newOrders  []int // undelivered order ids, FIFO
	lastOrders []int // ring of the most recent order ids (for StockLevel)
}

// DB is the in-memory single-warehouse database. All five transactions
// take the database lock; the workload generator in the paper treats
// transactions as independent, and so do we (one coarse lock keeps the
// implementation obviously correct; the scheduling experiments measure
// the *dispatch* layer, not lock scalability).
type DB struct {
	mu        sync.Mutex
	cfg       Config
	wYTD      int64
	districts []*district
	stock     []int // stock[itemID] = quantity
	itemPrice []int64
	r         *rng.RNG

	counts [numTransactions]uint64
}

// New builds and populates a database.
func New(cfg Config, seed uint64) *DB {
	if cfg.Districts <= 0 {
		cfg = Default()
	}
	db := &DB{
		cfg:       cfg,
		stock:     make([]int, cfg.Items),
		itemPrice: make([]int64, cfg.Items),
		r:         rng.New(seed),
	}
	for i := range db.stock {
		db.stock[i] = 50 + db.r.Intn(50)
		db.itemPrice[i] = int64(100 + db.r.Intn(9900))
	}
	for d := 0; d < cfg.Districts; d++ {
		dist := &district{id: d, orders: make(map[int]*order)}
		for c := 0; c < cfg.CustomersPerDist; c++ {
			dist.customers = append(dist.customers, customer{id: c, lastOrder: -1})
		}
		db.districts = append(db.districts, dist)
		for o := 0; o < cfg.InitialOrdersPerD; o++ {
			db.insertOrder(dist, db.r.Intn(cfg.CustomersPerDist), true)
		}
	}
	return db
}

// insertOrder creates an order with 5-15 random lines. Caller holds
// the lock (or is the constructor).
func (db *DB) insertOrder(dist *district, custID int, delivered bool) *order {
	o := &order{id: dist.nextOrder, customer: custID, delivered: delivered}
	dist.nextOrder++
	nLines := 5 + db.r.Intn(11)
	for i := 0; i < nLines; i++ {
		item := db.r.Intn(db.cfg.Items)
		qty := 1 + db.r.Intn(10)
		o.lines = append(o.lines, orderLine{
			itemID:   item,
			quantity: qty,
			amount:   int64(qty) * db.itemPrice[item],
		})
		db.stock[item] -= qty
		if db.stock[item] < 10 {
			db.stock[item] += 91 // TPC-C style restock
		}
	}
	dist.orders[o.id] = o
	dist.customers[custID].lastOrder = o.id
	if !delivered {
		dist.newOrders = append(dist.newOrders, o.id)
	}
	dist.lastOrders = append(dist.lastOrders, o.id)
	if len(dist.lastOrders) > 20 {
		dist.lastOrders = dist.lastOrders[1:]
	}
	return o
}

// Counts reports how many transactions of each type have executed.
func (db *DB) Counts() [5]uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [5]uint64
	copy(out[:], db.counts[:])
	return out
}

// PaymentTxn records a customer payment: warehouse and district YTD
// totals and the customer's balance move.
func (db *DB) PaymentTxn(districtID, customerID int, amountCents int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	dist, cust, err := db.lookup(districtID, customerID)
	if err != nil {
		return err
	}
	db.wYTD += amountCents
	dist.ytd += amountCents
	cust.balance -= amountCents
	cust.ytdPay += amountCents
	cust.payCount++
	db.counts[Payment]++
	return nil
}

// OrderStatusTxn reads a customer's balance and most recent order.
// It returns the number of lines in that order (0 if none).
func (db *DB) OrderStatusTxn(districtID, customerID int) (lines int, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	dist, cust, err := db.lookup(districtID, customerID)
	if err != nil {
		return 0, err
	}
	db.counts[OrderStatus]++
	if cust.lastOrder < 0 {
		return 0, nil
	}
	o := dist.orders[cust.lastOrder]
	if o == nil {
		return 0, nil
	}
	// Touch every line, as the real transaction reads them.
	total := int64(0)
	for _, l := range o.lines {
		total += l.amount
	}
	_ = total
	return len(o.lines), nil
}

// NewOrderTxn places an order with 5-15 lines for a random item
// basket, updating stock. It returns the order id.
func (db *DB) NewOrderTxn(districtID, customerID int) (orderID int, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	dist, _, err := db.lookup(districtID, customerID)
	if err != nil {
		return 0, err
	}
	o := db.insertOrder(dist, customerID, false)
	db.counts[NewOrder]++
	return o.id, nil
}

// DeliveryTxn delivers the oldest undelivered order in every district
// (the TPC-C deferred delivery batch), crediting each customer's
// balance. It returns how many orders were delivered.
func (db *DB) DeliveryTxn() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	delivered := 0
	for _, dist := range db.districts {
		if len(dist.newOrders) == 0 {
			continue
		}
		id := dist.newOrders[0]
		dist.newOrders = dist.newOrders[1:]
		o := dist.orders[id]
		if o == nil || o.delivered {
			continue
		}
		o.delivered = true
		var total int64
		for _, l := range o.lines {
			total += l.amount
		}
		dist.customers[o.customer].balance += total
		delivered++
	}
	db.counts[Delivery]++
	return delivered
}

// StockLevelTxn counts distinct items with stock below threshold among
// the last 20 orders of a district — the heaviest read transaction.
func (db *DB) StockLevelTxn(districtID, threshold int) (low int, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if districtID < 0 || districtID >= len(db.districts) {
		return 0, fmt.Errorf("tpcc: district %d out of range", districtID)
	}
	dist := db.districts[districtID]
	seen := make(map[int]struct{}, 128)
	for _, oid := range dist.lastOrders {
		o := dist.orders[oid]
		if o == nil {
			continue
		}
		for _, l := range o.lines {
			if _, dup := seen[l.itemID]; dup {
				continue
			}
			seen[l.itemID] = struct{}{}
			if db.stock[l.itemID] < threshold {
				low++
			}
		}
	}
	db.counts[StockLevel]++
	return low, nil
}

// Exec runs one transaction of type t: Payment pays amountCents,
// StockLevel counts items below a stock of 60, and Delivery takes no
// district or customer. An unknown type is an error.
func (db *DB) Exec(t Transaction, districtID, customerID int, amountCents int64) error {
	var err error
	switch t {
	case Payment:
		err = db.PaymentTxn(districtID, customerID, amountCents)
	case OrderStatus:
		_, err = db.OrderStatusTxn(districtID, customerID)
	case NewOrder:
		_, err = db.NewOrderTxn(districtID, customerID)
	case Delivery:
		db.DeliveryTxn()
	case StockLevel:
		_, err = db.StockLevelTxn(districtID, 60)
	default:
		err = fmt.Errorf("tpcc: unknown transaction %d", int(t))
	}
	return err
}

func (db *DB) lookup(districtID, customerID int) (*district, *customer, error) {
	if districtID < 0 || districtID >= len(db.districts) {
		return nil, nil, fmt.Errorf("tpcc: district %d out of range", districtID)
	}
	dist := db.districts[districtID]
	if customerID < 0 || customerID >= len(dist.customers) {
		return nil, nil, fmt.Errorf("tpcc: customer %d out of range", customerID)
	}
	return dist, &dist.customers[customerID], nil
}

// CustomerBalance reads a customer's balance (test helper).
func (db *DB) CustomerBalance(districtID, customerID int) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, cust, err := db.lookup(districtID, customerID)
	if err != nil {
		return 0, err
	}
	return cust.balance, nil
}

// PendingDeliveries reports undelivered orders across districts (test
// helper).
func (db *DB) PendingDeliveries() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, d := range db.districts {
		n += len(d.newOrders)
	}
	return n
}

// WarehouseYTD reports the warehouse year-to-date payment total.
func (db *DB) WarehouseYTD() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.wYTD
}

// Districts reports the configured district count.
func (db *DB) Districts() int { return db.cfg.Districts }

// Customers reports customers per district.
func (db *DB) Customers() int { return db.cfg.CustomersPerDist }
