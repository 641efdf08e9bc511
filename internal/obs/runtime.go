package obs

import "runtime"

// The one runtime gauge, sampled at scrape time: the goroutine count,
// the leak signal a scrape can read without stopping the world.
func init() {
	Default.GaugeFunc("qbs_goroutines", "", func() float64 {
		return float64(runtime.NumGoroutine())
	})
}
