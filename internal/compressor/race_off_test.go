//go:build !race

package compressor_test

const raceEnabled = false
