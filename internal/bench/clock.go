package bench

import "time"

// now is the package clock for measured phases (collection, evaluation,
// ablation timing). It is a variable, not a call to time.Now, so tests
// that replay recorded fault schedules can substitute a deterministic
// clock.
var now = time.Now
