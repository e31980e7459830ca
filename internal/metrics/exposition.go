package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Page renders one Prometheus text exposition (format 0.0.4). It hides
// the text format and nothing else: there is no registration, no
// collector interface and no global state. Lines come out in call
// order, so a caller keeps each family's samples right after the
// family's header.
type Page struct {
	b strings.Builder
}

// Family writes a family's # HELP and # TYPE lines. typ is counter,
// gauge, summary or histogram.
func (p *Page) Family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. labels alternate key and value; the
// values are quoted and escaped here. Floats render with %g and
// integers with %d; any other value type panics.
func (p *Page) Sample(name string, v any, labels ...string) {
	if len(labels)%2 != 0 {
		panic("metrics: sample " + name + " has an odd number of label strings")
	}
	p.b.WriteString(name)
	sep := "{"
	for i := 0; i < len(labels); i += 2 {
		p.b.WriteString(sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`)
		sep = ","
	}
	if len(labels) > 0 {
		p.b.WriteByte('}')
	}
	switch v.(type) {
	case float64:
		fmt.Fprintf(&p.b, " %g\n", v)
	case int, int32, int64, uint, uint32, uint64:
		fmt.Fprintf(&p.b, " %d\n", v)
	default:
		panic(fmt.Sprintf("metrics: sample %s has non-numeric value type %T", name, v))
	}
}

// Counter writes a counter family holding one unlabelled sample.
func (p *Page) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(name, v)
}

// Gauge writes a gauge family holding one unlabelled sample.
func (p *Page) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(name, v)
}

// WriteTo writes the page out.
func (p *Page) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, p.b.String())
	return int64(n), err
}

// labelEscaper applies the text format's label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// SanitizeLabel maps every rune outside [A-Za-z0-9_-] to '_', so a
// user-chosen request-type name is a safe, stable label value.
func SanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// Serve is the one metrics listener of a live server. On a fresh mux
// (no global handler registration) it serves /metrics from write,
// /healthz ("ok", or 503 "stopped" once stopped reports true) and, when
// admin is non-nil, admin under /admin/. It returns the bound address
// and a shutdown function.
func Serve(addr string, write func(io.Writer) error, stopped func() bool, admin http.Handler) (bound string, shutdown func() error, err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = write(w) // a failed write means the scraper left; nobody to tell
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if stopped() {
			http.Error(w, "stopped", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if admin != nil {
		mux.Handle("/admin/", admin)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck
	return ln.Addr().String(), srv.Close, nil
}
