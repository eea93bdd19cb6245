//go:build !race

package predictors

const raceEnabled = false
