package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"vf2boost/internal/dataset"
)

// buildCLI compiles the vf2boost binary once into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vf2boost")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
}

// End-to-end byte parity: `local` with and without -ooc (serial and
// parallel store builds) must write identical model files.
func TestLocalOOCModelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI")
	}
	bin := buildCLI(t)

	d, err := dataset.Generate(dataset.GenOptions{Rows: 400, Cols: 10, Density: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "train.libsvm")
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteLibSVM(f, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	common := []string{"local", "-data", data, "-trees", "5", "-depth", "4", "-workers", "2"}
	memOut := filepath.Join(dir, "mem.json")
	runCLI(t, bin, append(common, "-out", memOut)...)

	oocOut := filepath.Join(dir, "ooc.json")
	runCLI(t, bin, append(common, "-out", oocOut,
		"-ooc", filepath.Join(dir, "store"), "-chunk-rows", "64", "-mem-budget", "16KiB")...)

	parOut := filepath.Join(dir, "par.json")
	runCLI(t, bin, append(common, "-out", parOut,
		"-ooc", filepath.Join(dir, "store-par"), "-chunk-rows", "64", "-mem-budget", "16KiB",
		"-build-workers", "4")...)

	want, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{oocOut, parOut} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from in-memory model %s", path, memOut)
		}
	}
}

// TestParseBytes: every suffix is a binary multiple, and a count that is
// negative, malformed or whose multiple overflows int64 is refused instead
// of wrapping to 0 (an unlimited budget) or a negative one.
func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"4096", 4096, true},
		{"64K", 64 << 10, true},
		{"64KB", 64 << 10, true},
		{"64KiB", 64 << 10, true},
		{" 3 MiB ", 3 << 20, true},
		{"2mb", 2 << 20, true},
		{"1G", 1 << 30, true},
		{"2GiB", 2 << 30, true},
		{"8589934591G", 8589934591 << 30, true},
		{"9223372036854775807", 9223372036854775807, true},
		{"17179869184GiB", 0, false},
		{"8589934592G", 0, false},
		{"9007199254740992MB", 0, false},
		{"-1", 0, false},
		{"-64KiB", 0, false},
		{"KiB", 0, false},
		{"lots", 0, false},
	} {
		got, err := parseBytes(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
