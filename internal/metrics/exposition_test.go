package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// checkGrouping enforces the text format's grouping rule on one
// exposition: every sample belongs to the family most recently
// declared by # TYPE (the family's own name, or that name plus _count,
// _sum or _bucket), each # TYPE follows its family's # HELP, and no
// family is declared twice. It returns one message per violation.
func checkGrouping(text string) []string {
	var bad []string
	declared := map[string]bool{}
	family, help := "", ""
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help = fields[2]
		case strings.HasPrefix(line, "# TYPE "):
			family = fields[2]
			if declared[family] {
				bad = append(bad, fmt.Sprintf("line %d: family %s declared twice", n, family))
			}
			declared[family] = true
			if help != family {
				bad = append(bad, fmt.Sprintf("line %d: # TYPE %s without its # HELP", n, family))
			}
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			owned := false
			for _, suffix := range []string{"", "_count", "_sum", "_bucket"} {
				owned = owned || (family != "" && name == family+suffix)
			}
			if !owned {
				bad = append(bad, fmt.Sprintf("line %d: sample %s outside family %q", n, name, family))
			}
		}
	}
	return bad
}

func TestGoldenExpositionsAreGrouped(t *testing.T) {
	for _, golden := range []string{
		"../psp/testdata/metrics_golden.txt",
		"../frontend/testdata/metrics_golden.txt",
	} {
		text, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range checkGrouping(string(text)) {
			t.Errorf("%s: %s", golden, msg)
		}
	}
}

func TestCheckGroupingCatchesStraySamples(t *testing.T) {
	interleaved := "# HELP a_seconds A.\n# TYPE a_seconds summary\n" +
		"a_seconds{quantile=\"0.5\"} 1\nb_ratio 2\na_seconds_count 3\n" +
		"# HELP a_seconds A.\n# TYPE a_seconds summary\n"
	if got := checkGrouping(interleaved); len(got) != 2 {
		t.Fatalf("want the stray sample and the redeclaration flagged, got %q", got)
	}
}

func TestPageSample(t *testing.T) {
	var p Page
	p.Family("x_seconds", "summary", "Some help.")
	p.Sample("x_seconds", 0.001007616, "type", "a", "quantile", "0.5")
	p.Sample("x_seconds_count", uint64(3), "type", "a")
	p.Sample("x_bucket", int64(7), "le", "+Inf")
	p.Sample("x_float", 4.0)
	p.Sample("x_int", 4)
	p.Sample("x_esc", int32(1), "v", "q\"b\\n\n")
	p.Counter("c_total", "Counter.", uint32(2))
	p.Gauge("g", "Gauge.", -1.5e-9)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_seconds Some help.
# TYPE x_seconds summary
x_seconds{type="a",quantile="0.5"} 0.001007616
x_seconds_count{type="a"} 3
x_bucket{le="+Inf"} 7
x_float 4
x_int 4
x_esc{v="q\"b\\n\n"} 1
# HELP c_total Counter.
# TYPE c_total counter
c_total 2
# HELP g Gauge.
# TYPE g gauge
g -1.5e-09
`
	if got := buf.String(); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
}

func TestPageSamplePanics(t *testing.T) {
	for name, f := range map[string]func(p *Page){
		"odd labels":  func(p *Page) { p.Sample("x", 1, "type") },
		"duration":    func(p *Page) { p.Sample("x", time.Second) },
		"non-numeric": func(p *Page) { p.Sample("x", "1") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want a panic", name)
				}
			}()
			f(new(Page))
		}()
	}
}

func TestSanitizeLabel(t *testing.T) {
	cases := map[string]string{
		`we"ird la/bel`:   "we_ird_la_bel",
		"line\nbreak":     "line_break",    // newline would corrupt the exposition format
		`esc\ape"quote`:   "esc_ape_quote", // backslash and quote need no escaping once mapped
		"ünïcode":         "_n_code",       // non-ASCII runes collapse to underscores
		"":                "",              // empty stays empty
		"ok_name-1":       "ok_name-1",     // allowed characters pass through
		"tab\theader\r\n": "tab_header__",
	}
	for in, want := range cases {
		if got := SanitizeLabel(in); got != want {
			t.Errorf("SanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestServe(t *testing.T) {
	var stopped atomic.Bool
	admin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "admin "+r.URL.Path) //nolint:errcheck
	})
	write := func(w io.Writer) error {
		var p Page
		p.Counter("up_total", "Up.", 1)
		_, err := p.WriteTo(w)
		return err
	}
	get := func(base, path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	addr, shutdown, err := Serve("127.0.0.1:0", write, stopped.Load, admin)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck
	if code, ctype, body := get(addr, "/metrics"); code != 200 || ctype != "text/plain; version=0.0.4" || !strings.Contains(body, "up_total 1\n") {
		t.Fatalf("/metrics = %d %q %q", code, ctype, body)
	}
	if code, _, body := get(addr, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _, body := get(addr, "/admin/config"); code != 200 || body != "admin /admin/config" {
		t.Fatalf("/admin/config = %d %q", code, body)
	}
	stopped.Store(true)
	if code, _, body := get(addr, "/healthz"); code != http.StatusServiceUnavailable || body != "stopped\n" {
		t.Fatalf("/healthz after stop = %d %q", code, body)
	}

	bare, shutdownBare, err := Serve("127.0.0.1:0", write, stopped.Load, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownBare() //nolint:errcheck
	if code, _, _ := get(bare, "/admin/config"); code != http.StatusNotFound {
		t.Fatalf("/admin/ without an admin handler = %d, want 404", code)
	}
	if _, _, err := Serve(addr, write, stopped.Load, nil); err == nil {
		t.Fatal("Serve on a bound address must fail")
	}
}
