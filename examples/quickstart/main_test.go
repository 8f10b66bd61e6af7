package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runMain runs the example in process and returns what it printed.
func runMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	return <-out
}

// TestQuickstart runs the documented entry point end to end and checks its
// closing claim: the session saw no read-your-writes or monotonic-read
// regressions.
func TestQuickstart(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`session read "hello, adaptive world" (token-checked)`,
		"session observed no regressions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
