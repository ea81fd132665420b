//go:build race

package tetrisjoin_test

func init() { raceDetector = true }
