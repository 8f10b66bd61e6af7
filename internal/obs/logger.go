package obs

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"
)

// LogLevel orders diagnostic severity. Messages below the logger's level are
// dropped before formatting.
type LogLevel int32

const (
	logDebug LogLevel = iota
	logInfo
	logWarn
	logError
)

func (l LogLevel) String() string {
	switch l {
	case logDebug:
		return "debug"
	case logInfo:
		return "info"
	case logWarn:
		return "warn"
	case logError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLogLevel parses a -log-level flag value (case-insensitive; "warning"
// is accepted for "warn").
func ParseLogLevel(s string) (LogLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return logDebug, nil
	case "info", "":
		return logInfo, nil
	case "warn", "warning":
		return logWarn, nil
	case "error":
		return logError, nil
	}
	return logInfo, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// Logger is a leveled, prefix-stamped diagnostic logger. Every line carries
// the process's node id and the message severity, so interleaved output from
// a multi-process live cluster stays attributable. The level can be changed
// at runtime; a nil Logger drops everything (all methods are nil-safe).
type Logger struct {
	out   *log.Logger
	name  string
	level atomic.Int32
}

// NewLogger returns a logger writing to w (os.Stderr when nil), stamping
// every line with name, and emitting messages at or above level.
func NewLogger(w io.Writer, name string, level LogLevel) *Logger {
	if w == nil {
		w = os.Stderr
	}
	l := &Logger{
		out:  log.New(w, "", log.LstdFlags|log.Lmicroseconds),
		name: name,
	}
	l.level.Store(int32(level))
	return l
}

// setLevel changes the minimum emitted severity.
func (l *Logger) setLevel(level LogLevel) {
	if l != nil {
		l.level.Store(int32(level))
	}
}

// Level returns the current minimum severity.
func (l *Logger) Level() LogLevel {
	if l == nil {
		return logError + 1
	}
	return LogLevel(l.level.Load())
}

// Enabled reports whether a message at level would be emitted — callers
// guard expensive argument construction with it.
func (l *Logger) Enabled(level LogLevel) bool {
	return l != nil && level >= LogLevel(l.level.Load())
}

func (l *Logger) emit(level LogLevel, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	l.out.Printf("[%s] %s: %s", l.name, level, fmt.Sprintf(format, args...))
}

func (l *Logger) Infof(format string, args ...any)  { l.emit(logInfo, format, args...) }
func (l *Logger) Errorf(format string, args ...any) { l.emit(logError, format, args...) }

// Logf adapts the logger to the plain func(string, ...any) hooks older
// config structs expose; messages arrive at info level. A nil logger yields
// a non-nil no-op function.
func (l *Logger) Logf() func(string, ...any) {
	return func(format string, args ...any) { l.Infof(format, args...) }
}
