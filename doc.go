// Package persephone is a from-scratch Go reproduction of
// "When Idling is Ideal: Optimizing Tail-Latency for Heavy-Tailed
// Datacenter Workloads with Perséphone" (SOSP 2021).
//
// The package is the public facade over the repository's internals:
//
//   - Simulate runs the discrete-event simulator that regenerates the
//     paper's quantitative results: pick a workload (HighBimodal,
//     ExtremeBimodal, TPCC, RocksDB or a custom Mix), a scheduling
//     policy by name (DARC, c-FCFS, d-FCFS, shenango, shinjuku-sq,
//     shinjuku-mq, ts-ideal, fp, sjf, darc-static:N) and a load.
//
//   - NewLiveServer runs the live runtime: a real dispatcher/worker
//     pipeline over lock-free rings, driven by DARC, with user-defined
//     request classifiers and handlers, in-process or over UDP.
//
//   - RunExperiment regenerates any of the paper's tables and figures
//     by name ("figure1" ... "figure10", "table1" ...).
//
// The command-line tool over the same pieces is cmd/psp: one binary
// whose subcommands run the simulator, the experiments, the live
// server, client and frontend, and the trace, plot, conformance and
// soak tools.
//
// # Error contract
//
// The live runtime reports failures through three sentinel errors of
// internal/psp; match them with errors.Is, not string comparison:
//
//   - psp.ErrOverloaded — the server shed the request via deadline-aware
//     admission control (LiveConfig.Admission). The request did not
//     run. TCPClient.Call returns the NACK response alongside this
//     error; Response.RetryAfter carries the server's hint for when a
//     retry is likely to be admitted. RunLoad honours the hint
//     automatically with jittered backoff.
//
//   - psp.ErrDeadlineExceeded — a client-side wait (request timeout,
//     drain deadline) elapsed before the response arrived. The
//     request may still complete on the server.
//
//   - psp.ErrPoolExhausted — a bounded resource (ingress ring, pipeline
//     window, buffer pool) had no free capacity. Distinct from
//     psp.ErrOverloaded: this is backpressure at a fixed-size structure,
//     not a scheduling decision.
//
// On the wire the same contract appears as psp.Response.Status
// (internal/proto's Status values): StatusOverloaded corresponds to
// ErrOverloaded; StatusDropped and StatusError report server-side
// handler outcomes and are not retryable by default.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package persephone
