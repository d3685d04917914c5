package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// The two Start tests keep the names they had when Start delegated to a
// StartConfig/Config pair that also armed mutex and block profiles.

func TestStartConfigWritesAllProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile", filepath.Base(path))
		}
	}
}

func TestStartDelegatesToConfig(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start("", mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}

func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), ""); err == nil {
		t.Fatal("expected error for unwritable CPU profile path")
	}
}
