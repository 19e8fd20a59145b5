package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Level is the stderr logging verbosity. The default (LevelNormal)
// prints warnings and the CLI's informational lines but nothing from
// Progressf, so library instrumentation may log freely without changing
// any default output byte; -v raises it and -quiet lowers it.
type Level int32

// Verbosity levels, most to least quiet.
const (
	// LevelQuiet suppresses all stderr logging, including warnings.
	LevelQuiet Level = iota
	// LevelNormal (the default) prints warnings and info lines.
	LevelNormal
	// LevelVerbose adds per-phase progress lines.
	LevelVerbose
)

var logLevel atomic.Int32

func init() { logLevel.Store(int32(LevelNormal)) }

// SetLogLevel sets the global stderr verbosity.
func SetLogLevel(l Level) { logLevel.Store(int32(l)) }

// LogLevel returns the global stderr verbosity.
func LogLevel() Level { return Level(logLevel.Load()) }

// logMu serializes writes; logW is the sink (stderr by default, never
// stdout — stdout carries the deterministic machine-diffable output).
var (
	logMu sync.Mutex
	logW  io.Writer = os.Stderr
)

// Progressf prints a progress line at LevelVerbose and above.
func Progressf(format string, args ...any) { logf(LevelVerbose, format, args...) }

// Warnf prints a warning line at LevelNormal and above.
func Warnf(format string, args ...any) { logf(LevelNormal, format, args...) }

// Infof prints an informational line at LevelNormal and above. The CLI
// routes its former ad-hoc stderr prints here, so -quiet governs them
// uniformly.
func Infof(format string, args ...any) { logf(LevelNormal, format, args...) }

func logf(min Level, format string, args ...any) {
	if LogLevel() < min {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(logW, format, args...)
	if len(format) == 0 || format[len(format)-1] != '\n' {
		fmt.Fprintln(logW)
	}
}
