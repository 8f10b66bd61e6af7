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

// TestWebshop runs the example and checks its closing claims: the SESSION
// tier sees no session violations, Harmony's measured stale-read rate stays
// within the shop's 5% tolerance, and checkout reads its own write.
func TestWebshop(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"session tier: 0 session violations",
		"is within the 5% tolerance",
		`checkout sees its own write: "item-17 x1"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
