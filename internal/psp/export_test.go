package psp

import (
	"testing"
	"time"
)

// IngressCap is the ingress ring's capacity.
const IngressCap = ingressCap

// WaitSpansSettled blocks until every dispatched request's lifecycle
// span has been drained (or counted lost). A worker publishes its span
// after it replies, so a test that reads spans, summaries or span
// counts from a running server as soon as the last reply arrives must
// wait for this first; servers that were stopped are already settled.
// Not for servers with injected crashes, whose victims leave no span.
func WaitSpansSettled(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.StatsSnapshot()
		if st.TraceSpans+st.TraceLost == st.Dispatched {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("spans %d + lost %d never reached dispatched %d", st.TraceSpans, st.TraceLost, st.Dispatched)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
