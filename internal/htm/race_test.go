//go:build race

package htm

// raceEnabled reports a -race build, whose instrumentation heap-allocates
// variables that closures capture, so allocation counts do not apply.
const raceEnabled = true
