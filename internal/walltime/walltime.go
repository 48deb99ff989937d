// Package walltime is the single sanctioned wall-clock entry point for
// harness code. Simulator packages must take time from the event-loop
// clock (serve/cluster virtual milliseconds) — the noclock analyzer bans
// time.Now/time.Since everywhere except here and the live HTTP server —
// but benchmark and CLI harnesses legitimately measure how long a run
// took on the machine. Routing those reads through this package keeps the
// allowlist one package wide instead of exempting every cmd/ directory:
// a stray time.Now() in a new command is still a lint error, and the
// reviewer sees an explicit walltime.Start() when timing is intended.
package walltime

import "time"

// A Stopwatch measures elapsed wall-clock time for harness reporting. The
// zero value is not meaningful; obtain one from Start.
type Stopwatch struct {
	start time.Time
}

// Start begins timing.
func Start() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall-clock time since Start.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}

// ElapsedRounded returns the elapsed time rounded to unit, for
// human-facing progress lines.
func (s Stopwatch) ElapsedRounded(unit time.Duration) time.Duration {
	return s.Elapsed().Round(unit)
}
