package persephone_test

import (
	"fmt"
	"time"

	persephone "repro"
	"repro/internal/proto"
)

// ExampleSimulate runs the paper's High Bimodal workload under DARC
// and prints whether the short class met a 10x slowdown SLO.
func ExampleSimulate() {
	res, err := persephone.Simulate(persephone.SimConfig{
		Workers:      14,
		Mix:          persephone.HighBimodal(),
		Policy:       "darc",
		LoadFraction: 0.7,
		Duration:     200 * time.Millisecond,
		Seed:         1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("short SLO met:", res.Types[0].SlowdownP999 < 10)
	// Output:
	// policy: DARC
	// short SLO met: true
}

// ExampleNewLiveServer starts the live runtime with a one-command
// classifier and calls it in-process.
func ExampleNewLiveServer() {
	srv, err := persephone.NewLiveServer(persephone.LiveConfig{
		Workers:    2,
		Classifier: persephone.CommandClassifier("PING"),
		Handler: persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
			return copy(resp, "PONG"), proto.StatusOK
		}),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer srv.Stop()
	r, _ := srv.Call([]byte("PING"))
	fmt.Println(string(r.Payload))
	// Output:
	// PONG
}

// ExampleMix shows building a custom workload.
func ExampleMix() {
	mix := persephone.Mix{
		Name: "custom",
		Types: []persephone.TypeSpec{
			{Name: "lookup", Ratio: 0.9, Service: persephone.FixedService(2 * time.Microsecond)},
			{Name: "report", Ratio: 0.1, Service: persephone.ExpService(300 * time.Microsecond)},
		},
	}
	fmt.Println("mean:", mix.MeanService())
	fmt.Printf("dispersion: %.0fx\n", mix.Dispersion())
	// Output:
	// mean: 31.8µs
	// dispersion: 150x
}
