package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
)

// splitFiles writes d as the joined file sim reads and as the two party
// shards party reads (passive features first, Party B's labeled last) and
// returns their paths.
func splitFiles(t *testing.T, dir string, d *dataset.Dataset, counts []int) (joined, a, b string) {
	t.Helper()
	parts, err := d.VerticalSplit(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	joined, a, b = filepath.Join(dir, "joined.libsvm"), filepath.Join(dir, "a.libsvm"), filepath.Join(dir, "b.libsvm")
	for path, ds := range map[string]*dataset.Dataset{joined: d, a: parts[0], b: parts[1]} {
		if err := dataset.SaveLibSVMFile(path, ds, nil); err != nil {
			t.Fatal(err)
		}
	}
	return joined, a, b
}

// TestPartyPairEqualsSim: a `party` pair over a gateway and `sim` run the
// same role entries, so at the same flags the glued fragments score every
// row exactly as the sim model does — with and without -checkpoint-dir,
// which lays out one store per role (active/, passive0/) in both, and with
// both parties' links in the -resilient layer. Each party reports its own
// task-seconds line.
func TestPartyPairEqualsSim(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI over a gateway")
	}
	bin := buildCLI(t)
	d, err := dataset.Generate(dataset.GenOptions{Rows: 300, Cols: 10, Density: 0.6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	joined, aData, bData := splitFiles(t, dir, d, []int{6, 4})
	loaded := []*dataset.Dataset{loadData(aData), loadData(bData)}
	common := []string{"-trees", "3", "-depth", "3", "-scheme", "mock", "-eta", "0.3", "-seed", "7"}

	for _, name := range []string{"plain", "checkpoints", "resilient"} {
		ckpt := name == "checkpoints"
		t.Run(name, func(t *testing.T) {
			var simArgs, partyArgs []string
			switch name {
			case "checkpoints":
				simArgs = []string{"-checkpoint-dir", file(name + "-sim")}
				partyArgs = []string{"-checkpoint-dir", file(name + "-party")}
			case "resilient":
				partyArgs = []string{"-resilient"}
			}
			simOut := file(name + "-sim.json")
			runCLI(t, bin, append(append([]string{"sim", "-data", joined, "-split", "6,4", "-out", simOut}, common...), simArgs...)...)

			train := append(append([]string{"-gateway", startGateway(t, bin)}, common...), partyArgs...)
			fragA, fragB := file(name+"-a.json"), file(name+"-b.json")
			aOut, bOut := runPair(t, bin,
				append([]string{"party", "-role", "a", "-data", aData, "-out", fragA}, train...),
				append([]string{"party", "-role", "b", "-data", bData, "-out", fragB}, train...))
			for role, out := range map[string][]byte{"a": aOut, "b": bOut} {
				if !bytes.Contains(out, []byte("task-seconds:")) {
					t.Errorf("party -role %s printed no task-seconds line:\n%s", role, out)
				}
			}

			a, b := loadModelFile(fragA).Parties[0], loadModelFile(fragB)
			for len(a.Trees) < len(b.Parties[0].Trees) {
				a.Trees = append(a.Trees, core.NewFedTree(b.Parties[0].Trees[len(a.Trees)].Root))
			}
			glued := &core.FederatedModel{Parties: []*core.PartyModel{a, b.Parties[0]}, LearningRate: b.LearningRate}
			got, err := glued.PredictAll(loaded)
			if err != nil {
				t.Fatal(err)
			}
			want, err := loadModelFile(simOut).PredictAll(loaded)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: the party pair scores %v, sim %v", i, got[i], want[i])
				}
			}
			if ckpt {
				for _, run := range []string{"-sim", "-party"} {
					for _, role := range []string{"active", "passive0"} {
						if ents, err := os.ReadDir(filepath.Join(file(name+run), role)); err != nil || len(ents) != 3 {
							t.Errorf("%s%s checkpoints under %s: %d files, %v; want one per tree", name, run, role, len(ents), err)
						}
					}
				}
			}
		})
	}
}

// TestMultiOutputFragmentRefused: `party -role b -out` records the output
// count and objective of a multi-output model, and predict and serve,
// which score one margin per row, refuse that fragment by file and k
// instead of summing the k class trees into one number.
func TestMultiOutputFragmentRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI over a gateway")
	}
	bin := buildCLI(t)
	d, err := dataset.GenerateMulticlass(dataset.MultiGenOptions{Rows: 200, Cols: 8, Classes: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, aData, bData := splitFiles(t, dir, d, []int{4, 4})
	addr := startGateway(t, bin)
	train := []string{"-gateway", addr, "-trees", "2", "-depth", "3", "-scheme", "mock", "-objective", "multiclass:3"}
	fragA, fragB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	runPair(t, bin,
		append([]string{"party", "-role", "a", "-data", aData, "-out", fragA}, train...),
		append([]string{"party", "-role", "b", "-data", bData, "-out", fragB}, train...))
	if m := loadModelFile(fragB); m.NumOutputs != 3 || m.Objective != "multiclass:3" {
		t.Fatalf("Party B's fragment records num_outputs %d, objective %q", m.NumOutputs, m.Objective)
	}

	for _, args := range [][]string{
		{"predict", "-role", "b", "-data", bData, "-model", fragB, "-gateway", addr},
		{"serve", "-addr", "127.0.0.1:0", "-data", bData, "-models", fragB, "-gateway", addr},
	} {
		out, err := runRefused(bin, args...)
		if err == nil || !bytes.Contains(out, []byte(fragB+" is a 3-output fragment")) {
			t.Errorf("%s took a 3-output fragment: %v\n%s", args[0], err, out)
		}
	}
}

// TestClosedStdoutKeepsModel: `local` and `sim` write -out before they
// report, so a reader that has gone away (`| head`) costs the report, not
// the model: the file a run with a closed stdout leaves is byte-identical
// to a normal run's.
func TestClosedStdoutKeepsModel(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI")
	}
	bin := buildCLI(t)
	d, err := dataset.Generate(dataset.GenOptions{Rows: 200, Cols: 8, Density: 0.6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "d.libsvm")
	if err := dataset.SaveLibSVMFile(data, d, nil); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][]string{
		{"local", "-data", data, "-trees", "2", "-depth", "3"},
		{"sim", "-data", data, "-split", "4,4", "-scheme", "mock", "-trees", "2", "-depth", "3"},
	} {
		normal := filepath.Join(dir, cmd[0]+"-normal.json")
		runCLI(t, bin, append(cmd, "-out", normal)...)

		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		r.Close() // every write to stdout now fails with EPIPE
		closed := filepath.Join(dir, cmd[0]+"-closed.json")
		c := exec.Command(bin, append(cmd, "-out", closed)...)
		c.Stdout = w
		c.Run() // dies of SIGPIPE at its first report line
		w.Close()
		if _, err := os.Stat(closed); err != nil {
			t.Errorf("%s with a closed stdout left no model: %v", cmd[0], err)
			continue
		}
		sameFile(t, normal, closed)
	}
}
