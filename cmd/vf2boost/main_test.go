package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
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

// runRefused runs a command the CLI should refuse, and gives up after 30 s
// on one that runs instead (a gateway or a dial that waits for a peer).
func runRefused(bin string, args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return exec.CommandContext(ctx, bin, args...).CombinedOutput()
}

func runCLI(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
}

// End-to-end byte parity: `local` with and without -ooc must write
// identical model files, and the in-memory file is pinned.
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
	pinnedFile(t, memOut, "5b96a1ea0e49f7b352139a93a1941e3e5a504acc0d053350199415095002657c")

	oocOut := filepath.Join(dir, "ooc.json")
	runCLI(t, bin, append(common, "-out", oocOut,
		"-ooc", filepath.Join(dir, "store"), "-chunk-rows", "64", "-mem-budget", "16KiB")...)

	sameFile(t, memOut, oocOut)
}

// pinnedFile fails the test unless the file's SHA-256 is want (hex).
func pinnedFile(t *testing.T, path, want string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("%s hashes to %s, want %s", path, got, want)
	}
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

// -ooc trains a multi-output objective to the in-memory model's bytes
// (pinned), locally and federated, and still refuses a ranking objective:
// a LibSVM store source carries no query groups.
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
		pin  string
	}{
		{"local", []string{"local", "-data", data}, "9448585b1e3b7bc6bd518f02277dc62269266f30a4d02e1d78a23ed4547852b9"},
		{"sim", []string{"sim", "-data", data, "-split", "4,4", "-scheme", "mock"}, "7a202f32e28317aaf3ca1f6328182274ce9a13a31525a01c7a9d85c560dd9868"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common := append(tc.args, "-objective", "multiclass:3", "-trees", "2", "-depth", "3")
			memOut := filepath.Join(dir, tc.name+"-mem.json")
			runCLI(t, bin, append(common, "-out", memOut)...)
			pinnedFile(t, memOut, tc.pin)
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

	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-latency", []string{"sim", "-data", data, "-split", "4,4", "-scheme", "mock", "-latency", "-1ms"}},
		{"-latency", []string{"gateway", "-addr", "127.0.0.1:0", "-latency", "-1ms"}},
		{"-wan", []string{"sim", "-data", data, "-split", "4,4", "-scheme", "mock", "-wan", "-5"}},
		{"-wan", []string{"gateway", "-addr", "127.0.0.1:0", "-wan", "-5"}},
	} {
		out, err := runRefused(bin, tc.args...)
		if err == nil || !bytes.Contains(out, []byte(tc.flag+" must not be negative")) {
			t.Errorf("%v was not refused: %v\n%s", tc.args, err, out)
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

// TestLinkFlagRefusals: an -index below 0 or fewer than one -peers is
// refused by every subcommand that takes the flag, before any data loads
// (the shard paths below do not exist) or any dial (no gateway runs).
func TestLinkFlagRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI")
	}
	bin := buildCLI(t)
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-peers must be at least 1", []string{"party", "-role", "b", "-peers", "-1", "-data", missing}},
		{"-peers must be at least 1", []string{"party", "-role", "b", "-peers", "0", "-data", missing}},
		{"-peers must be at least 1", []string{"predict", "-role", "b", "-peers", "0", "-data", missing, "-model", missing}},
		{"-peers must be at least 1", []string{"serve", "-peers", "-1", "-data", missing, "-models", missing}},
		{"-index must not be negative", []string{"party", "-role", "a", "-index", "-1", "-data", missing}},
		{"-index must not be negative", []string{"predict", "-role", "a", "-index", "-1", "-data", missing, "-model", missing}},
		{"-index must not be negative", []string{"sidecar", "-index", "-1", "-data", missing, "-models", missing}},
	} {
		out, err := runRefused(bin, tc.args...)
		if err == nil || !bytes.Contains(out, []byte(tc.args[0]+": "+tc.want)) {
			t.Errorf("%v was not refused with %q: %v\n%s", tc.args, tc.want, err, out)
		}
	}
}
