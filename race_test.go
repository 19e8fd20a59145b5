//go:build race

package meissa

func init() { raceEnabled = true }
