package lint

import "testing"

func TestUnusedMonitorHook(t *testing.T) {
	runCases(t, UnusedMonitorHook, []fixtureCase{
		{"empty hook flagged", []string{"emptyHook.WarpExit"}, 1},
		{"consuming hook clean", []string{"counting.WarpExit"}, 0},
		{"documented no-op clean", []string{"documented.WarpExit"}, 0},
		{"non-hook empty method clean", []string{"emptyHook.Flush"}, 0},
		{"free function with hook name clean", []string{"WarpExit"}, 0},
		{"several empty hooks all flagged", []string{"several.CallEnd", "several.BlockRetire"}, 2},
	})
}
