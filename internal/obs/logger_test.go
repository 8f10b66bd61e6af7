package obs

import (
	"strings"
	"testing"
)

func TestParseLogLevel(t *testing.T) {
	cases := map[string]LogLevel{
		"debug": logDebug, "INFO": logInfo, "": logInfo,
		"warn": logWarn, "Warning": logWarn, "error": logError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("ParseLogLevel(loud) accepted")
	}
}

func TestLoggerLevelFilterAndPrefix(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, "node-3", logWarn)
	l.emit(logDebug, "dropped %d", 1)
	l.Infof("dropped %d", 2)
	l.emit(logWarn, "kept %d", 3)
	l.Errorf("kept %d", 4)

	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("below-level lines emitted:\n%s", out)
	}
	if !strings.Contains(out, "[node-3] warn: kept 3") ||
		!strings.Contains(out, "[node-3] error: kept 4") {
		t.Fatalf("missing prefixed lines:\n%s", out)
	}

	l.setLevel(logDebug)
	if !l.Enabled(logDebug) {
		t.Fatal("setLevel(debug) not applied")
	}
	l.emit(logDebug, "now visible")
	if !strings.Contains(buf.String(), "[node-3] debug: now visible") {
		t.Fatalf("debug line missing after setLevel:\n%s", buf.String())
	}

	var nl *Logger
	nl.Infof("no panic")    // nil-safe
	nl.Logf()("still fine") // adapter nil-safe
}
