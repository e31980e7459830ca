// Command psp is the reproduction's command-line tool: the simulator,
// the paper's experiments, the live server, its open-loop client and
// fan-out frontend, and the trace, plot, conformance and soak tools,
// each one subcommand.
//
// Usage:
//
//	psp sim -workload extreme-bimodal -policy darc -workers 16 -load 0.9
//	psp sim -trace spans.csv -policy cfcfs -workers 3
//	psp experiments -artifact figure1 -duration 2s -csv results
//	psp plot -in results/figure1.csv -out figure1.svg
//	psp server -app kv -workers 4 -shards 2 -metrics-addr 127.0.0.1:9941
//	psp client -workload rocksdb -rate 2000 -duration 5s -shards 2
//	psp frontend -backends 127.0.0.1:9940,127.0.0.1:9950 -fanout 2 -hedge
//	psp trace record -workload high-bimodal -bursty -out bursty.csv
//	psp trace info -in bursty.csv
//	psp trace scale -in bursty.csv -factor 0.5 -out faster.csv
//	psp trace spans -in spans.csv
//	psp conform -traces bimodal -policies darc,cfcfs
//	psp soak -seeds 1,2,3 -reconfigs 100 -workers 4
//
// `psp <subcommand> -h` lists a subcommand's flags. A flag that several
// subcommands take (-workload, -workers, -seed, -duration, -addr,
// -transport, -metrics-addr) is declared once below and means the same
// in each; only its default differs. Usage errors exit 2, failed runs 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	persephone "repro"
)

// A command declares its flags on fs and returns what runs once fs has
// parsed the arguments, so every command line can be parsed without
// running anything.
type command func(fs *flag.FlagSet) func() error

var commands = map[string]command{
	"sim":          simCmd,
	"experiments":  experimentsCmd,
	"plot":         plotCmd,
	"server":       serverCmd,
	"client":       clientCmd,
	"frontend":     frontendCmd,
	"trace record": traceRecordCmd,
	"trace info":   traceInfoCmd,
	"trace scale":  traceScaleCmd,
	"trace spans":  traceSpansCmd,
	"conform":      conformCmd,
	"soak":         soakCmd,
}

// lookup finds the command that args name, one word ("sim") or two ("trace
// info"), and returns its name and the arguments after it.
func lookup(args []string) (string, command, []string) {
	for n := min(len(args), 2); n > 0; n-- {
		name := strings.Join(args[:n], " ")
		if cmd, ok := commands[name]; ok {
			return name, cmd, args[n:]
		}
	}
	return "", nil, nil
}

func main() {
	name, cmd, args := lookup(os.Args[1:])
	if cmd == nil {
		fmt.Fprintln(os.Stderr, "usage: psp {sim|experiments|plot|server|client|frontend|trace {record|info|scale|spans}|conform|soak} [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("psp "+name, flag.ExitOnError)
	run := cmd(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	err := run()
	var usage usageError
	switch {
	case err == nil:
	case errors.Is(err, errFailed):
		os.Exit(1)
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usageError marks an error in the command line itself: main exits 2
// for it, as the flag package does for a malformed flag.
type usageError struct{ error }

// errFailed reports a run that printed its own failures: main exits 1
// without adding a message.
var errFailed = errors.New("failed")

// The flags several subcommands share.

// workloadFlag declares -workload: one of the paper's mixes, resolved
// when the flag is parsed.
func workloadFlag(fs *flag.FlagSet) *persephone.Mix {
	mix := persephone.HighBimodal()
	fs.Func("workload", "workload mix: high-bimodal, extreme-bimodal, tpcc or rocksdb (default high-bimodal)",
		func(name string) (err error) {
			mix, err = persephone.MixByName(name)
			return err
		})
	return &mix
}

func workersFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("workers", def, "worker cores (soak: the pool's initial size)")
}

func seedFlag(fs *flag.FlagSet, def uint64) *uint64 {
	return fs.Uint64("seed", def, "random seed (conform: 0 keeps each trace's pinned seed)")
}

func durationFlag(fs *flag.FlagSet, def time.Duration) *time.Duration {
	return fs.Duration("duration", def, "run length: simulated time per load point (sim, experiments), trace length (trace record) or generation time (client)")
}

func addrFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("addr", def, "address the server or frontend listens on and the client sends to; UDP shard i uses port+i, and the client also takes a comma-separated shard list")
}

// transportFlag declares -transport, udp or tcp.
func transportFlag(fs *flag.FlagSet) *string {
	transport := "udp"
	fs.Func("transport", "transport: udp or tcp (default udp)", func(s string) error {
		if s != "udp" && s != "tcp" {
			return errors.New("want udp or tcp")
		}
		transport = s
		return nil
	})
	return &transport
}

func metricsAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (e.g. 127.0.0.1:9941)")
}

// awaitSignal blocks until SIGINT or SIGTERM, which are handled alike.
// Until then each SIGHUP calls onHUP, and every 100 ms calls onTick,
// when they are non-nil.
func awaitSignal(onHUP, onTick func()) {
	sig := make(chan os.Signal, 2)
	notify := []os.Signal{os.Interrupt, syscall.SIGTERM}
	if onHUP != nil {
		notify = append(notify, syscall.SIGHUP)
	}
	signal.Notify(sig, notify...)
	defer signal.Stop(sig)
	var tick <-chan time.Time
	if onTick != nil {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			onTick()
		case s := <-sig:
			if s != syscall.SIGHUP {
				return
			}
			onHUP()
		}
	}
}

// writeOut calls write on the file at path, or on stdout when path is
// "".
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseList parses each comma-separated item of s, with surrounding
// spaces trimmed and empty items skipped.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := parse(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
