package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestAdmissionFlagsGrammar pins, input by input, what -admission and
// -admission-trim accept: comma-separated non-negative durations, "0"
// (or any zero) for an auto-derived budget, spaces around entries, a
// non-negative trim, and no trim without budgets. The flags are parsed
// by the reconfiguration plane's admission= and admission-trim= keys,
// so the table keeps a change to that grammar from silently changing
// what the server accepts at start-up.
func TestAdmissionFlagsGrammar(t *testing.T) {
	cases := []struct {
		budgets string
		trim    time.Duration
		want    string // fmt of the policy's budgets and trim, or "error"
	}{
		{"", 0, "none"},
		{"3ms,50ms", 0, "[3ms 50ms] 0s"},
		{"3ms, 0 ,50ms", time.Millisecond, "[3ms 0s 50ms] 1ms"},
		{" 3ms ", 0, "[3ms] 0s"},
		{"0", 0, "[0s] 0s"},
		{"0,0", 0, "[0s 0s] 0s"},
		{"0s,-0", 0, "[0s 0s] 0s"},
		{"+3ms,1h", 0, "[3ms 1h0m0s] 0s"},
		{"1.5ms", 2 * time.Second, "[1.5ms] 2s"},
		// Negative entries.
		{"-1ms", 0, "error"},
		{"3ms,-1ms", 0, "error"},
		// Malformed durations and lists.
		{"3", 0, "error"},
		{"3xs", 0, "error"},
		{"abc", 0, "error"},
		{"3ms;50ms", 0, "error"},
		{"3ms,,50ms", 0, "error"},
		{",", 0, "error"},
		{" ", 0, "error"},
		// The trim: never negative, never without budgets.
		{"3ms", -time.Millisecond, "error"},
		{"", time.Millisecond, "error"},
		{"", -time.Millisecond, "error"},
	}
	for _, tc := range cases {
		pol, err := admissionPolicy(tc.budgets, tc.trim)
		got := "none"
		switch {
		case err != nil:
			got = "error"
		case pol != nil:
			got = fmt.Sprintf("%v %v", pol.Budgets, pol.OverloadDelay)
		}
		if got != tc.want {
			t.Errorf("-admission %q -admission-trim %v: got %s (err %v), want %s", tc.budgets, tc.trim, got, err, tc.want)
		}
	}
}

// docFiles are the documents whose `psp …` command lines
// TestDocCommandLines parses.
var docFiles = []string{
	"README.md",
	"EXPERIMENTS.md",
	"DESIGN.md",
	"PAPER.md",
	".claude/skills/verify/SKILL.md",
}

var (
	// pspCall finds "psp <word> ..." after a start, a space or a slash
	// (go run ./cmd/psp sim, /tmp/psp server, psp trace info).
	pspCall = regexp.MustCompile(`(?:^|[\s/])psp\s+([a-z][a-z-]*)(?:\s|$)`)
	// retired names the binaries cmd/psp replaced.
	retired = regexp.MustCompile(`\bpsp-(sim|experiments|server|client|frontend|trace|plot|conform|soak)\b`)
	// inlineCode is one markdown code span; spans may wrap lines.
	inlineCode = regexp.MustCompile("`([^`]+)`")
)

// docCommands returns every psp command line in a markdown document:
// those in fenced blocks (with backslash continuations joined) and
// those in inline code spans.
func docCommands(text string) []string {
	var pieces, para []string
	flush := func() {
		for _, m := range inlineCode.FindAllStringSubmatch(strings.Join(para, " "), -1) {
			pieces = append(pieces, m[1])
		}
		para = para[:0]
	}
	fenced, cont := false, ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			flush()
			fenced = !fenced
			continue
		}
		if !fenced {
			if strings.TrimSpace(line) == "" {
				flush()
			} else {
				para = append(para, line)
			}
			continue
		}
		if strings.HasSuffix(line, `\`) {
			cont += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		pieces = append(pieces, cont+line)
		cont = ""
	}
	flush()
	var cmds []string
	for _, p := range pieces {
		loc := pspCall.FindStringIndex(p)
		if loc == nil {
			continue
		}
		cmd := strings.TrimLeft(p[loc[0]:], " \t/")
		// A shell line ends the command at a comment, pipe, redirect or
		// background marker.
		for _, stop := range []string{" #", " |", " >", " &", ";"} {
			if i := strings.Index(cmd, stop); i >= 0 {
				cmd = cmd[:i]
			}
		}
		cmds = append(cmds, strings.TrimSpace(cmd))
	}
	return cmds
}

// shellWords splits a command line on spaces, honouring single and
// double quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// TestDocCommandLines runs every psp command line the documents show
// through its subcommand's flag parsing, and nothing more: no server
// starts and no simulation runs. A documented subcommand or flag that
// does not exist, a malformed flag value, a stray argument, or a
// mention of a retired psp-* binary fails it.
func TestDocCommandLines(t *testing.T) {
	total := 0
	for _, doc := range docFiles {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range retired.FindAllString(string(text), -1) {
			t.Errorf("%s names the retired binary %s", doc, m)
		}
		cmds := docCommands(string(text))
		if len(cmds) == 0 {
			t.Errorf("%s shows no psp command line", doc)
		}
		total += len(cmds)
		for _, line := range cmds {
			words := shellWords(line)
			name, cmd, args := lookup(words[1:])
			if cmd == nil {
				t.Errorf("%s: %q: no such subcommand", doc, line)
				continue
			}
			fs := flag.NewFlagSet("psp "+name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cmd(fs)
			if err := fs.Parse(args); err != nil && !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%s: %q: %v", doc, line, err)
			} else if fs.NArg() > 0 {
				t.Errorf("%s: %q: stray arguments %q", doc, line, fs.Args())
			}
		}
	}
	if total < 40 {
		t.Errorf("found only %d documented command lines; is the extractor broken?", total)
	}
	t.Logf("parsed %d documented command lines", total)
}

// TestDocCommandsExtractor pins docCommands on the forms the documents
// use.
func TestDocCommandsExtractor(t *testing.T) {
	text := "Run `psp sim -policies`, or\n`psp server -admission\n3ms,50ms`; `cmd/psp` builds it.\n\n" +
		"```sh\n" +
		"go run ./cmd/psp server -app kv -workers 2 & # backend\n" +
		"/tmp/psp client -addr 127.0.0.1:9930 \\\n    -rate 500 | tee out\n" +
		"go build -o /tmp/psp ./cmd/psp\n" +
		"psp experiments -artifact $a -csv $tmp > /dev/null\n" +
		"```\n"
	want := []string{
		"psp sim -policies",
		"psp server -admission 3ms,50ms",
		"psp server -app kv -workers 2",
		"psp client -addr 127.0.0.1:9930      -rate 500",
		"psp experiments -artifact $a -csv $tmp",
	}
	got := docCommands(text)
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Fatalf("docCommands:\n got %q\nwant %q", got, want)
	}
	if got := shellWords(`psp server -faults 'seed=42,drop=0.1' -x "a b"`); fmt.Sprintf("%q", got) !=
		`["psp" "server" "-faults" "seed=42,drop=0.1" "-x" "a b"]` {
		t.Fatalf("shellWords: %q", got)
	}
}
