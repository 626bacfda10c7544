package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// End-to-end byte parity: `local` with and without -ooc must write
// identical model files.
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

	sameFile(t, memOut, oocOut)
}

// sameFile fails the test unless the two files hold the same bytes.
func sameFile(t *testing.T, want, got string) {
	t.Helper()
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s differs from %s", got, want)
	}
}

// -ooc trains a multi-output objective to the in-memory model's bytes,
// locally and federated, and still refuses a ranking objective: a LibSVM
// store source carries no query groups.
func TestOOCObjectiveByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI")
	}
	bin := buildCLI(t)

	d, err := dataset.GenerateMulticlass(dataset.MultiGenOptions{Rows: 300, Cols: 8, Classes: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "mc.libsvm")
	if err := dataset.SaveLibSVMFile(data, d); err != nil {
		t.Fatal(err)
	}
	oocArgs := func(store string) []string {
		return []string{"-ooc", filepath.Join(dir, store), "-chunk-rows", "64", "-mem-budget", "16KiB"}
	}

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"local", []string{"local", "-data", data}},
		{"sim", []string{"sim", "-data", data, "-split", "4,4", "-scheme", "mock"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common := append(tc.args, "-objective", "multiclass:3", "-trees", "2", "-depth", "3")
			memOut := filepath.Join(dir, tc.name+"-mem.json")
			runCLI(t, bin, append(common, "-out", memOut)...)
			oocOut := filepath.Join(dir, tc.name+"-ooc.json")
			runCLI(t, bin, append(append(common, "-out", oocOut), oocArgs(tc.name+"-store")...)...)
			sameFile(t, memOut, oocOut)
		})
	}

	cmd := exec.Command(bin, append([]string{"local", "-data", data, "-objective", "ranking:5",
		"-out", filepath.Join(dir, "rank.json")}, oocArgs("rank-store")...)...)
	out, err := cmd.CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("query groups")) {
		t.Fatalf("local -ooc -objective ranking:5 was not refused: %v\n%s", err, out)
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

// TestLatencyFlag: sim and gateway take the shaped link's one-way latency
// (the harness's 25 Mbps / 20 ms WAN is -wan 25 -latency 20ms). A negative
// value is refused; a positive one delays every hop — a depth-2 tree
// cannot finish in under four one-way trips — and moves no model byte.
func TestLatencyFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI")
	}
	bin := buildCLI(t)
	d, err := dataset.Generate(dataset.GenOptions{Rows: 300, Cols: 8, Density: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "d.libsvm")
	if err := dataset.SaveLibSVMFile(data, d); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"sim", "-data", data, "-split", "4,4", "-scheme", "mock", "-latency", "-1ms"},
		{"gateway", "-addr", "127.0.0.1:0", "-latency", "-1ms"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte("-latency must not be negative")) {
			t.Errorf("%s -latency -1ms was not refused: %v\n%s", args[0], err, out)
		}
	}

	const latency = 50 * time.Millisecond
	sim := func(out string, extra ...string) time.Duration {
		start := time.Now()
		runCLI(t, bin, append([]string{"sim", "-data", data, "-split", "4,4", "-scheme", "mock",
			"-trees", "1", "-depth", "2", "-out", filepath.Join(dir, out)}, extra...)...)
		return time.Since(start)
	}
	sim("plain.json")
	if took := sim("wan.json", "-wan", "25", "-latency", latency.String()); took < 4*latency {
		t.Errorf("sim -latency %v finished in %v, under four one-way trips", latency, took)
	}
	sameFile(t, filepath.Join(dir, "plain.json"), filepath.Join(dir, "wan.json"))

	gw := exec.Command(bin, "gateway", "-addr", "127.0.0.1:0", "-wan", "25", "-latency", "20ms")
	stdout, err := gw.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if !strings.Contains(line, "gateway listening") {
		gw.Process.Kill()
		t.Fatalf("gateway -latency 20ms did not start: %q, %v", line, err)
	}
	gw.Process.Signal(os.Interrupt)
	if err := gw.Wait(); err != nil {
		t.Errorf("gateway exit: %v", err)
	}
}
