package main

import (
	"testing"

	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/rng"
)

// Adding trials never changes the first one: trial 0 of any run is the
// benchmark on the -seed stream itself, and later trials draw their own
// streams.
func TestTrialsFirstMatchesSingleRun(t *testing.T) {
	f, err := machine.Scaled(6, 8, 4).NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 400
	want, err := network.RunGPCNeT(f, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	one, err := runTrials(f, cfg, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := runTrials(f, cfg, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(three) != 3 {
		t.Fatalf("want 1 and 3 trials, got %d and %d", len(one), len(three))
	}
	if one[0] != want || three[0] != want {
		t.Fatalf("trial 0 is not the run on the seed stream:\n%+v\n%+v\n%+v", one[0], three[0], want)
	}
	if three[1] == three[0] || three[2] == three[1] {
		t.Error("distinct trials returned identical results; seeds look shared")
	}
	if _, err := runTrials(f, cfg, 11, 0); err == nil {
		t.Error("zero trials should error")
	}
}
