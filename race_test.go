//go:build race

package gpuleak

func init() { raceEnabled = true }
