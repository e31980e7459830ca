package loadgen

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/psp"
)

// Transport names for RunConfig.Transport.
const (
	TransportInProcess = "inprocess"
	TransportUDP       = "udp"
	TransportTCP       = "tcp"
)

// RunConfig is the unified load-generation entry point: one Config plus
// a transport selector, replacing the three divergent RunInProcess /
// RunUDP / RunTCP signatures.
type RunConfig struct {
	Config

	// Transport selects the datapath: "inprocess" (the default when a
	// Server is set), "udp" (a backend or a fan-out frontend), or
	// "tcp".
	Transport string

	// Addr is the target address for the network transports. The UDP
	// transport accepts a comma-separated shard list
	// ("host:9940,host:9941").
	Addr string

	// Server is the in-process target; required for (and only used by)
	// the inprocess transport.
	Server *psp.Server
}

// Run generates load according to rc. It validates the
// transport/target pairing up front so misconfigurations fail fast
// instead of timing out.
func Run(rc RunConfig) (*Result, error) {
	transport := strings.ToLower(strings.TrimSpace(rc.Transport))
	if transport == "" {
		if rc.Server != nil {
			transport = TransportInProcess
		} else {
			return nil, errors.New("loadgen: RunConfig needs a Transport (or a Server for the in-process default)")
		}
	}
	switch transport {
	case TransportInProcess:
		if rc.Server == nil {
			return nil, errors.New("loadgen: inprocess transport needs RunConfig.Server")
		}
		if rc.Addr != "" {
			return nil, errors.New("loadgen: inprocess transport takes no Addr")
		}
		return RunInProcess(rc.Server, rc.Config)
	case TransportUDP:
		if rc.Addr == "" {
			return nil, errors.New("loadgen: udp transport needs RunConfig.Addr")
		}
		if rc.Server != nil {
			return nil, errors.New("loadgen: udp transport takes no Server")
		}
		return RunUDP(rc.Addr, rc.Config)
	case TransportTCP:
		if rc.Addr == "" {
			return nil, errors.New("loadgen: tcp transport needs RunConfig.Addr")
		}
		if rc.Server != nil {
			return nil, errors.New("loadgen: tcp transport takes no Server")
		}
		return RunTCP(rc.Addr, rc.Config)
	default:
		return nil, fmt.Errorf("loadgen: unknown transport %q (want inprocess, udp, or tcp)", rc.Transport)
	}
}
