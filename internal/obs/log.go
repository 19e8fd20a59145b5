package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is the stderr logging verbosity. The default (LevelNormal)
// prints warnings and the CLI's informational lines but nothing from
// Progressf, so library instrumentation may log freely without changing
// any default output byte; -v / -log-level raise it and -quiet lowers it.
type Level int32

// Verbosity levels, most to least quiet.
const (
	// LevelQuiet suppresses all stderr logging, including warnings.
	LevelQuiet Level = iota
	// LevelNormal (the default) prints warnings and info lines.
	LevelNormal
	// LevelVerbose adds per-phase progress lines.
	LevelVerbose
	// LevelDebug adds high-volume diagnostics.
	LevelDebug
)

// levelNames maps levels to their -log-level spellings and JSON tags.
var levelNames = map[Level]string{
	LevelQuiet:   "quiet",
	LevelNormal:  "info",
	LevelVerbose: "progress",
	LevelDebug:   "debug",
}

// ParseLevel resolves a -log-level flag value. It accepts the canonical
// names (quiet, info, progress, debug) plus common aliases.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "quiet", "none", "off":
		return LevelQuiet, nil
	case "info", "normal", "warn", "warning":
		return LevelNormal, nil
	case "progress", "verbose":
		return LevelVerbose, nil
	case "debug":
		return LevelDebug, nil
	}
	return LevelNormal, fmt.Errorf("obs: unknown log level %q (want quiet|info|progress|debug)", s)
}

var logLevel atomic.Int32

func init() { logLevel.Store(int32(LevelNormal)) }

// SetLogLevel sets the global stderr verbosity.
func SetLogLevel(l Level) { logLevel.Store(int32(l)) }

// LogLevel returns the global stderr verbosity.
func LogLevel() Level { return Level(logLevel.Load()) }

// logJSON switches the sink format from plain lines to one JSON object
// per line: {"ts","level","msg"}.
var logJSON atomic.Bool

// SetLogJSON selects JSON-lines output (the -log-json flag).
func SetLogJSON(on bool) { logJSON.Store(on) }

// logMu serializes writes; logW is the sink (stderr by default, never
// stdout — stdout carries the deterministic machine-diffable output).
var (
	logMu sync.Mutex
	logW  io.Writer = os.Stderr
)

// SetLogWriter redirects log output (tests). Returns the previous
// writer.
func SetLogWriter(w io.Writer) io.Writer {
	logMu.Lock()
	defer logMu.Unlock()
	prev := logW
	logW = w
	return prev
}

// Progressf prints a progress line at LevelVerbose and above.
func Progressf(format string, args ...any) { logf(LevelVerbose, "progress", format, args...) }

// Warnf prints a warning line at LevelNormal and above.
func Warnf(format string, args ...any) { logf(LevelNormal, "warn", format, args...) }

// Infof prints an informational line at LevelNormal and above. The CLI
// routes its former ad-hoc stderr prints here, so -quiet and -log-json
// govern them uniformly.
func Infof(format string, args ...any) { logf(LevelNormal, "info", format, args...) }

// Debugf prints a diagnostic line at LevelDebug.
func Debugf(format string, args ...any) { logf(LevelDebug, "debug", format, args...) }

func logf(min Level, tag, format string, args ...any) {
	if LogLevel() < min {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	if logJSON.Load() {
		msg := fmt.Sprintf(format, args...)
		line := struct {
			TS    string `json:"ts"`
			Level string `json:"level"`
			Msg   string `json:"msg"`
		}{time.Now().UTC().Format(time.RFC3339Nano), tag, strings.TrimRight(msg, "\n")}
		b, err := json.Marshal(line)
		if err == nil {
			logW.Write(append(b, '\n'))
		}
		return
	}
	fmt.Fprintf(logW, format, args...)
	if len(format) == 0 || format[len(format)-1] != '\n' {
		fmt.Fprintln(logW)
	}
}
