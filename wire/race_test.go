//go:build race

package wire

func init() { raceEnabled = true }
