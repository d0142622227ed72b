//go:build race

package campaign

func init() { raceEnabled = true }
