package sim

import (
	"strings"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/tracker"
	"tppsim/internal/workload"
)

// TestBadInputsRejected pins the input boundary: values a CLI flag can
// pass straight through fail with an error naming the bad field or
// region, instead of panicking mid-setup or silently taking a default.
func TestBadInputsRejected(t *testing.T) {
	base := func() Config {
		return Config{Policy: core.TPP(), Workload: workload.Catalog["Cache1"](4096), Minutes: 1}
	}
	cases := []struct {
		name string
		cfg  func() (Config, error)
		want string
	}{
		{"working set too small for a region", func() (Config, error) {
			c := base()
			c.Workload = workload.Catalog["Cache1"](16)
			return c, nil
		}, "has 0 pages"},
		{"negative sample cadence", func() (Config, error) {
			c := base()
			c.SampleEveryTicks = -5
			return c, nil
		}, "SampleEveryTicks"},
		{"negative run length", func() (Config, error) {
			c := base()
			c.Minutes = -1
			return c, nil
		}, "Minutes"},
		{"zero damon regions", func() (Config, error) {
			c := base()
			var err error
			c.Tracker, err = tracker.ParseSpec("damon:regions=0")
			return c, err
		}, `"regions=0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg()
			if err == nil {
				_, err = New(cfg)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one naming %s", err, tc.want)
			}
		})
	}
}
