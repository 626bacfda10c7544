// Command vf2boost trains and serves vertical federated GBDT models. The
// subcommands cover the deployment shapes:
//
//	vf2boost local   -data d.libsvm -out model.json        # non-federated baseline
//	vf2boost sim     -data d.libsvm -split 30,20 ...       # all parties in-process
//	vf2boost gateway -addr :7001 -secret s                 # message-queue gateway
//	vf2boost party   -role b -gateway host:7001 ...        # one training party per process
//	vf2boost predict -role a|b ...                         # batch scoring: one federated scoring session
//	vf2boost serve   -addr :8080 -peers 1 ...              # Party B online scoring server
//	vf2boost sidecar -index 0 ...                          # passive-party scoring sidecar
//	vf2boost inspect -model fedmodel.json -trees           # human-readable model dump
//
// The gateway/party mode mirrors the paper's deployment: each enterprise
// runs its own process (or host), and the only connectivity between them
// is the authenticated message queue on the gateway machines. serve and
// sidecar keep that shape for online inference: persistent scoring
// sessions over the gateway, micro-batched so one WAN round-trip serves
// many HTTP requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/fault"
	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/metrics"
	"vf2boost/internal/mq"
	"vf2boost/internal/objective"
	"vf2boost/internal/ooc"
	"vf2boost/internal/serve"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "local":
		cmdLocal(os.Args[2:])
	case "sim":
		cmdSim(os.Args[2:])
	case "gateway":
		cmdGateway(os.Args[2:])
	case "party":
		cmdParty(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "sidecar":
		cmdSidecar(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vf2boost <local|sim|gateway|party|predict|serve|sidecar|inspect> [flags]")
	os.Exit(2)
}

// trainFlags registers the hyper-parameter flags shared by the training
// subcommands and returns a loader.
func trainFlags(fs *flag.FlagSet) func() core.Config {
	trees := fs.Int("trees", 20, "boosting rounds T")
	eta := fs.Float64("eta", 0.1, "learning rate")
	depth := fs.Int("depth", 6, "split levels per tree")
	bins := fs.Int("bins", 20, "histogram bins per feature s")
	lambda := fs.Float64("lambda", 1, "L2 leaf regularizer")
	gamma := fs.Float64("gamma", 0, "split complexity penalty")
	workers := fs.Int("workers", 0, "per-party workers (0 = GOMAXPROCS); parallelism only, the model is the same at every value")
	scheme := fs.String("scheme", "paillier", "crypto scheme: paillier or mock")
	keyBits := fs.Int("keybits", 1024, "Paillier modulus size S")
	baseline := fs.Bool("baseline", false, "disable all VF2Boost optimizations (VF-GBDT)")
	fastObf := fs.Bool("fastobf", true, "DJN fast obfuscation: h^x obfuscators from fixed-base tables (off under -baseline)")
	seed := fs.Int64("seed", 1, "seed for exponent obfuscation")
	objSpec := fs.String("objective", "binary", "training objective: "+strings.Join(objective.Names(), ", ")+" (e.g. multiclass:3, ranking:10)")
	return func() core.Config {
		cfg := core.DefaultConfig()
		if *baseline {
			cfg = core.BaselineConfig()
		}
		cfg.FastObfuscation = *fastObf && !*baseline
		cfg.Trees = *trees
		cfg.LearningRate = *eta
		cfg.MaxDepth = *depth
		cfg.MaxBins = *bins
		cfg.Split.Lambda = *lambda
		cfg.Split.Gamma = *gamma
		cfg.Workers = *workers
		cfg.Scheme = *scheme
		cfg.KeyBits = *keyBits
		cfg.Seed = *seed
		if *objSpec != "" && *objSpec != "binary" {
			// Fail fast: an unknown objective dies before any data loads,
			// listing what this build registers.
			o, err := objective.New(*objSpec)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Objective = o
		}
		return cfg
	}
}

// loadLabeledData reads the labeled training shard. An objective that
// couples gradients across query groups (ranking) gets the file's qid:N
// groups; a file without them has none, which it refuses.
func loadLabeledData(path string, cfg core.Config) *dataset.Dataset {
	d, groups, err := dataset.LoadLibSVMFile(path, 0)
	if err != nil {
		log.Fatalf("loading %s: %v", path, err)
	}
	if ga, ok := cfg.Objective.(objective.GroupAware); ok {
		if err := ga.SetGroups(groups); err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
	}
	return d
}

// reportTrainMetric prints the train metric over a k×n margin matrix:
// AUC and logloss under the binary default, else the objective's headline
// metric (mlogloss, ndcg@k, ...) plus accuracy for multiclass.
func reportTrainMetric(cfg core.Config, labels []float64, margins [][]float64) {
	if cfg.Objective == nil {
		auc, _ := metrics.AUC(margins[0], labels)
		ll, _ := metrics.LogLoss(margins[0], labels)
		fmt.Printf("  train AUC %.4f, logloss %.4f\n", auc, ll)
		return
	}
	score, err := cfg.Objective.Eval(labels, margins)
	if err != nil {
		log.Fatal(err)
	}
	line := fmt.Sprintf("  train %s %.4f", cfg.Objective.EvalName(), score)
	if cfg.Objective.NumOutputs() > 1 {
		if acc, aerr := metrics.MulticlassAccuracy(margins, labels); aerr == nil {
			line += fmt.Sprintf(", accuracy %.4f", acc)
		}
	}
	fmt.Println(line)
}

// oocFlags registers the out-of-core flags shared by the training
// subcommands. Its loader refuses -ooc under a group-aware objective: a
// LibSVM store source carries no query groups to install.
func oocFlags(fs *flag.FlagSet) func(core.Config) oocSettings {
	dir := fs.String("ooc", "", "train out-of-core: build (if absent) and use a binned shard store under this directory")
	budget := fs.String("mem-budget", "256MiB", "resident shard-cache cap for -ooc (bytes, or with K/M/G[iB] suffix; 0 = unlimited)")
	chunkRows := fs.Int("chunk-rows", 1<<16, "shard height in rows for -ooc store builds")
	prefetch := fs.Bool("prefetch", true, "readahead of the next shard in the sweep plan (-ooc)")
	chaos := fs.String("fschaos", "", "seeded storage fault injection for stores and checkpoints, e.g. seed=7,flip=0.02,readerr=0.05,shortwrite=0.1,tornrename=0.2,enospc=1MiB,crash=40")
	return func(cfg core.Config) oocSettings {
		if _, ok := cfg.Objective.(objective.GroupAware); ok && *dir != "" {
			log.Fatalf("%s: -objective %s is not supported with -ooc (the LibSVM store source carries no query groups)", fs.Name(), cfg.Objective.Name())
		}
		b, err := parseBytes(*budget)
		if err != nil {
			log.Fatalf("bad -mem-budget: %v", err)
		}
		s := oocSettings{dir: *dir, budget: b, chunkRows: *chunkRows, prefetch: *prefetch}
		if *chaos != "" {
			cfg, err := fsfault.ParseSpec(*chaos)
			if err != nil {
				log.Fatalf("bad -fschaos: %v", err)
			}
			s.fsys = fsfault.Wrap(nil, cfg)
		}
		return s
	}
}

// checkpointFlags registers the checkpoint flags of sim and party. Its
// loader refuses -resume without -checkpoint-dir and returns the options:
// every role keeps its store under the directory (active, passive<i>),
// written through the -fschaos injector when one is set.
func checkpointFlags(fs *flag.FlagSet) func(fsfault.FS) []core.SessionOption {
	dir := fs.String("checkpoint-dir", "", "snapshot each party's training state after each tree, under active/ and passive<i>/ here")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint under -checkpoint-dir")
	return func(fsys fsfault.FS) []core.SessionOption {
		if *dir == "" {
			if *resume {
				log.Fatalf("%s: -resume requires -checkpoint-dir", fs.Name())
			}
			return nil
		}
		opts := []core.SessionOption{core.WithCheckpoints(*dir), core.WithCheckpointFS(fsys)}
		if *resume {
			opts = append(opts, core.WithResume())
		}
		return opts
	}
}

type oocSettings struct {
	dir       string
	budget    int64
	chunkRows int
	prefetch  bool
	fsys      fsfault.FS // nil = real filesystem; set by -fschaos
}

// openStore builds the store from src if dir has no manifest yet, opens
// it under the budget and reads its labels when labeled. An existing store
// is reused as-is (delete the directory to force a rebuild).
func (s oocSettings) openStore(src ooc.Source, maxBins int, labeled bool) (st *ooc.Store, labels []float64) {
	opt := ooc.Options{MemBudget: s.budget, Prefetch: s.prefetch, Source: src, FS: s.fsys}
	st, err := ooc.Open(s.dir, opt)
	if err == nil {
		fmt.Printf("ooc: reusing store %s (%d rows, %d shards)\n", s.dir, st.Rows(), st.NumShards())
	} else {
		start := time.Now()
		if err := ooc.Build(s.dir, src, ooc.BuildOptions{MaxBins: maxBins, ChunkRows: s.chunkRows, FS: s.fsys}); err != nil {
			log.Fatalf("ooc: building %s: %v", s.dir, err)
		}
		if st, err = ooc.Open(s.dir, opt); err != nil {
			log.Fatalf("ooc: opening %s: %v", s.dir, err)
		}
		fmt.Printf("ooc: built store %s in %v (%d rows, %d shards, budget %d bytes)\n",
			s.dir, time.Since(start).Round(time.Millisecond), st.Rows(), st.NumShards(), s.budget)
	}
	if labeled {
		if labels, err = st.Labels(); err != nil {
			log.Fatal(err)
		}
	}
	return st, labels
}

// loadView loads a party's shard as the binned view it trains on: the
// in-memory binned matrix, or the -ooc shard store. d is the raw dataset,
// nil under -ooc, where raw feature values never load.
func (s oocSettings) loadView(path string, labeled bool, cfg core.Config) (view gbdt.BinView, labels []float64, d *dataset.Dataset) {
	if s.dir != "" {
		src, err := ooc.NewLibSVMSource(path, 0)
		if err != nil {
			log.Fatal(err)
		}
		view, labels = s.openStore(src, cfg.MaxBins, labeled)
		return view, labels, nil
	}
	if labeled {
		d = loadLabeledData(path, cfg)
	} else {
		d = loadData(path)
		d.Labels = nil
	}
	mapper, err := gbdt.NewBinMapper(d, cfg.MaxBins)
	if err != nil {
		log.Fatal(err)
	}
	return gbdt.NewBinnedMatrix(d, mapper), d.Labels, d
}

// parseBytes parses a byte count with an optional K/M/G, KB/MB/GB or
// KiB/MiB/GiB suffix (all binary multiples). A count whose multiple
// overflows int64 is refused: it would wrap to 0 (no budget) or below.
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	shift := 0
	upper := strings.ToUpper(t)
	for suf, sh := range map[string]int{"KIB": 10, "MIB": 20, "GIB": 30, "KB": 10, "MB": 20, "GB": 30, "K": 10, "M": 20, "G": 30} {
		if strings.HasSuffix(upper, suf) && len(upper) > len(suf) {
			if sh > shift {
				shift = sh
				t = strings.TrimSpace(t[:len(t)-len(suf)])
			}
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a byte count", s)
	}
	if n > math.MaxInt64>>shift {
		return 0, fmt.Errorf("%q overflows a 64-bit byte count", s)
	}
	return n << shift, nil
}

func loadData(path string) *dataset.Dataset {
	d, _, err := dataset.LoadLibSVMFile(path, 0)
	if err != nil {
		log.Fatalf("loading %s: %v", path, err)
	}
	return d
}

func parseSplit(s string) []int {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c <= 0 {
			log.Fatalf("bad -split %q", s)
		}
		counts = append(counts, c)
	}
	return counts
}

func cmdLocal(args []string) {
	fs := flag.NewFlagSet("local", flag.ExitOnError)
	data := fs.String("data", "", "labeled LibSVM training file")
	out := fs.String("out", "model.json", "model output path")
	oocFn := oocFlags(fs)
	cfgFn := trainFlags(fs)
	fs.Parse(args)
	if *data == "" {
		log.Fatal("local: -data is required")
	}
	cfg := cfgFn()
	view, labels, d := oocFn(cfg).loadView(*data, true, cfg)
	p := gbdt.DefaultParams()
	p.NumTrees = cfg.Trees
	p.LearningRate = cfg.LearningRate
	p.MaxDepth = cfg.MaxDepth
	p.MaxBins = cfg.MaxBins
	p.Split = cfg.Split
	p.Workers = cfg.Workers

	start := time.Now()
	m, err := gbdt.TrainBinned(view, labels, cfg.Objective, p)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := m.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d trees in %v\n", len(m.Trees), elapsed.Round(time.Millisecond))
	if st, ok := view.(*ooc.Store); ok {
		// Out-of-core: the raw rows never materialize, so the train metric
		// (which needs raw feature values) gives way to the cache stats.
		cs := st.Stats()
		fmt.Printf("  cache: %d loads, %d prefetches, %d evictions, peak %d bytes\n",
			cs.Loads, cs.Prefetches, cs.Evictions, cs.PeakBytes)
		if cs.RetriedLoads > 0 || cs.Quarantined > 0 || cs.Rebuilds > 0 {
			fmt.Printf("self-heal: %d retried loads, %d quarantined shards, %d rebuilds (generation %d)\n",
				cs.RetriedLoads, cs.Quarantined, cs.Rebuilds, st.Generation())
		}
	} else {
		reportTrainMetric(cfg, labels, m.PredictAllOutputs(d))
	}
	fmt.Printf("model written to %s\n", *out)
}

func cmdSim(args []string) {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	data := fs.String("data", "", "labeled joined LibSVM file (will be split vertically)")
	split := fs.String("split", "", "per-party feature counts, e.g. 30,20 (last party keeps labels)")
	out := fs.String("out", "fedmodel.json", "model output path")
	wanFn := wanFlags(fs)
	chaos := fs.String("chaos", "", "seeded fault injection spec, e.g. seed=7,drop=0.05,dup=0.02,reorder=0.02,delay=0.1,delayfor=2ms,cut=500")
	ckptFn := checkpointFlags(fs)
	oocFn := oocFlags(fs)
	cfgFn := trainFlags(fs)
	fs.Parse(args)
	if *data == "" || *split == "" {
		log.Fatal("sim: -data and -split are required")
	}
	cfg := cfgFn()
	oc := oocFn(cfg)
	opts := ckptFn(oc.fsys)
	if mbps, latency, shaped := wanFn(); shaped {
		opts = append(opts, core.WithWAN(mbps, latency))
	}
	if *chaos != "" {
		fc, err := fault.ParseSpec(*chaos)
		if err != nil {
			log.Fatalf("sim: %v", err)
		}
		opts = append(opts, core.WithChaos(fc))
	}

	counts := parseSplit(*split)
	var sess *core.Session
	var err error
	var trainLabels []float64
	var parts []*dataset.Dataset
	if oc.dir != "" {
		// Out-of-core sim: every party trains against its own disk-backed
		// store, built from a column slice of the joined row stream — the
		// joined dataset is never materialized.
		base, serr := ooc.NewLibSVMSource(*data, 0)
		if serr != nil {
			log.Fatal(serr)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != base.Cols() {
			log.Fatalf("sim: -split %v covers %d features, %s has %d", counts, total, *data, base.Cols())
		}
		views := make([]gbdt.BinView, len(counts))
		lo := 0
		for i, c := range counts {
			labeled := i == len(counts)-1
			slice, serr := ooc.NewColumnSlice(base, lo, lo+c, labeled)
			if serr != nil {
				log.Fatal(serr)
			}
			ps := oc
			ps.dir = filepath.Join(oc.dir, fmt.Sprintf("party%d", i))
			// Only the last (labeled) party's store yields labels.
			views[i], trainLabels = ps.openStore(slice, cfg.MaxBins, labeled)
			lo += c
		}
		sess, err = core.NewViewSession(views, trainLabels, cfg, opts...)
	} else {
		d := loadLabeledData(*data, cfg)
		parts, err = d.VerticalSplit(counts, len(counts)-1)
		if err != nil {
			log.Fatal(err)
		}
		trainLabels = d.Labels
		sess, err = core.NewSession(parts, cfg, opts...)
	}
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	m, err := sess.Train()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	saveModel(*out, m)
	st := sess.Stats()
	fmt.Printf("federated training: %v (%v/tree)\n", elapsed.Round(time.Millisecond), perTree(elapsed, st))
	if parts != nil {
		// The train metric needs raw feature values, which the out-of-core
		// path never materializes.
		margins, perr := m.PredictAllOutputs(parts)
		if perr != nil {
			log.Fatal(perr)
		}
		reportTrainMetric(cfg, trainLabels, margins)
	}
	fmt.Printf("  task-seconds: encrypt %v, decrypt %v, build-hist %v, pack %v (%.1f slots/ct); wall: %v/tree, idle(B) %v\n",
		st.EncryptTime().Round(time.Millisecond), st.DecryptTime().Round(time.Millisecond),
		st.BuildHistTime().Round(time.Millisecond), st.PackTime().Round(time.Millisecond),
		st.PackFill(), perTree(elapsed, st), st.BIdleTime().Round(time.Millisecond))
	fmt.Printf("  splits: passive %d, B %d; dirty %d; traffic %.1f MiB\n",
		st.SplitsByA(), st.SplitsByB(), st.DirtyNodes(),
		float64(sess.Broker().BytesSent())/(1<<20))
	fmt.Println(st)
	if *chaos != "" {
		for i, ls := range sess.LinkStats() {
			fmt.Printf("  %s %d: %s\n", map[int]string{0: "B-side link", 1: "A-side link"}[i%2], i/2, ls)
		}
	}
	fmt.Printf("model written to %s\n", *out)
}

// perTree is the wall time per tree this run built: a k-class round
// builds k trees, and a resumed run builds only the remaining ones.
func perTree(elapsed time.Duration, st *core.Stats) time.Duration {
	n := st.TreesFinished()
	if n == 0 {
		return 0
	}
	return (elapsed / time.Duration(n)).Round(time.Millisecond)
}

// wanFlags registers the shaped-link flags of sim and gateway. Its loader
// refuses negative values and reports whether the link is shaped.
func wanFlags(fs *flag.FlagSet) func() (mbps float64, latency time.Duration, shaped bool) {
	wan := fs.Float64("wan", 0, "simulated WAN bandwidth in Mbps (0 = unshaped)")
	lat := fs.Duration("latency", 0, "simulated WAN one-way latency, e.g. 20ms (0 = none)")
	return func() (float64, time.Duration, bool) {
		if !(*wan >= 0) {
			log.Fatalf("%s: -wan must not be negative", fs.Name())
		}
		if *lat < 0 {
			log.Fatalf("%s: -latency must not be negative", fs.Name())
		}
		return *wan, *lat, *wan > 0 || *lat > 0
	}
}

func cmdGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", ":7001", "listen address")
	secret := fs.String("secret", "", "shared token secret (empty disables auth)")
	wanFn := wanFlags(fs)
	fs.Parse(args)
	mbps, latency, shaped := wanFn()
	var opts []mq.Option
	if *secret != "" {
		opts = append(opts, mq.WithAuth([]byte(*secret)))
	}
	if shaped {
		sh := mq.NewShaper(mbps, latency)
		sh.SetPerMessageOverhead(mq.FrameOverhead)
		opts = append(opts, mq.WithShaper(sh))
	}
	broker := mq.NewBroker(opts...)
	g := mq.NewGateway(broker)
	// Catch the interrupt before announcing the address, so a caller that
	// stops the gateway as soon as it reads the line gets a clean shutdown.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	bound, err := g.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway listening on %s (auth: %v)\n", bound, *secret != "")
	<-sig
	g.Close()
	broker.Close()
}

// gatewayLink is the link-flag group: the gateway, its token secret, and
// -index (a passive party's) or -peers (Party B's passive party count).
type gatewayLink struct {
	addr, secret string
	index, peers int
}

// linkFlags registers the link flags, -index and -peers only where asked.
// Its loader refuses -index < 0 and -peers < 1 before any load or dial.
func linkFlags(fs *flag.FlagSet, index, peers bool) func() gatewayLink {
	l := gatewayLink{peers: 1}
	fs.StringVar(&l.addr, "gateway", "127.0.0.1:7001", "gateway address")
	fs.StringVar(&l.secret, "secret", "", "shared token secret")
	if index {
		fs.IntVar(&l.index, "index", 0, "passive party index (role a)")
	}
	if peers {
		fs.IntVar(&l.peers, "peers", 1, "number of passive parties (role b)")
	}
	return func() gatewayLink {
		if l.index < 0 {
			log.Fatalf("%s: -index must not be negative", fs.Name())
		}
		if l.peers < 1 {
			log.Fatalf("%s: -peers must be at least 1", fs.Name())
		}
		return l
	}
}

// Topic prefixes of the session kinds, so they can share one gateway.
const (
	trainTopics   = ""
	predictTopics = "p"
	serveTopics   = "s"
)

// dialer dials one end of passive party i's link in a session of the
// given kind: Party B's end when active, else the passive party's.
func (l gatewayLink) dialer(kind string, i int, active bool) func() (core.Transport, error) {
	send, recv := fmt.Sprintf("%sa%d2b", kind, i), fmt.Sprintf("%sb2a%d", kind, i)
	if active {
		send, recv = recv, send
	}
	return func() (core.Transport, error) {
		end, err := mq.DialEndpoint(l.addr, send, recv, []byte(l.secret))
		if err != nil {
			return nil, err
		}
		return end, nil
	}
}

// dialPeers connects Party B to every passive party in party order and
// returns the transports and their dialers.
func (l gatewayLink) dialPeers(kind string, rc *core.ResilientConfig) ([]core.Transport, []func() (core.Transport, error)) {
	trs := make([]core.Transport, l.peers)
	dialers := make([]func() (core.Transport, error), l.peers)
	for i := range trs {
		dialers[i] = l.dialer(kind, i, true)
		trs[i] = connect(dialers[i], rc)
	}
	return trs, dialers
}

// connect dials once, exiting on failure; with rc set it wraps the link
// in the retry/heartbeat layer, which redials on its own.
func connect(dial func() (core.Transport, error), rc *core.ResilientConfig) core.Transport {
	var tr core.Transport
	var err error
	if rc == nil {
		tr, err = dial()
	} else {
		tr, err = core.NewResilientTransport(nil, dial, *rc)
	}
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func cmdParty(args []string) {
	fs := flag.NewFlagSet("party", flag.ExitOnError)
	role := fs.String("role", "", "a (passive) or b (active, holds labels)")
	linkFn := linkFlags(fs, true, true)
	data := fs.String("data", "", "this party's LibSVM shard")
	out := fs.String("out", "", "model fragment output path (optional)")
	resilient := fs.Bool("resilient", false, "wrap the gateway link in the retry/heartbeat layer (survives drops and reconnects)")
	heartbeat := fs.Duration("heartbeat", time.Second, "idle-link keepalive interval (with -resilient)")
	peerTimeout := fs.Duration("peer-timeout", 30*time.Second, "declare the peer dead after this silence (with -resilient)")
	ckptFn := checkpointFlags(fs)
	oocFn := oocFlags(fs)
	cfgFn := trainFlags(fs)
	fs.Parse(args)
	if *role != "a" && *role != "b" {
		log.Fatal("party: -role must be a or b")
	}
	if *data == "" {
		log.Fatal("party: -data is required")
	}
	if *heartbeat <= 0 || *peerTimeout <= 0 {
		log.Fatal("party: -heartbeat and -peer-timeout must be positive")
	}
	if *heartbeat >= *peerTimeout {
		log.Fatal("party: -heartbeat must be shorter than -peer-timeout")
	}
	l := linkFn()
	cfg := cfgFn()
	oc := oocFn(cfg)
	opts := ckptFn(oc.fsys)
	// Party B holds the labels; under a ranking objective its shard
	// carries qid:N group markers that must reach the objective.
	view, labels, _ := oc.loadView(*data, *role == "b", cfg)

	// Both ends of a link must speak the same framing: enable -resilient
	// on every party or on none.
	var rc *core.ResilientConfig
	if *resilient {
		rc = &core.ResilientConfig{Heartbeat: *heartbeat, PeerTimeout: *peerTimeout}
	}
	if *out != "" {
		// Reported last: either role writes its fragment before its report.
		defer fmt.Printf("fragment written to %s\n", *out)
	}

	if *role == "a" {
		tr := connect(l.dialer(trainTopics, l.index, false), rc)
		pm, st, err := core.RunPassiveParty(l.index, view, cfg, tr, opts...)
		if err != nil {
			log.Fatal(err)
		}
		saveFragment(*out, &core.FederatedModel{Parties: []*core.PartyModel{pm}})
		fmt.Printf("passive party %d finished; %d trees contain local splits\n", l.index, len(pm.Trees))
		fmt.Printf("  task-seconds: build-hist %v, pack %v (%.1f slots/ct); wall: idle(A) %v\n",
			st.BuildHistTime().Round(time.Millisecond), st.PackTime().Round(time.Millisecond),
			st.PackFill(), st.AIdleTime().Round(time.Millisecond))
		return
	}
	trs, _ := l.dialPeers(trainTopics, rc)
	start := time.Now()
	pm, st, err := core.RunActiveParty(view, labels, cfg, trs, opts...)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	// Party B's fragment records what predict and serve score with: the
	// learning rate, and the objective and output count, which they check.
	frag := &core.FederatedModel{Parties: []*core.PartyModel{pm}, LearningRate: cfg.LearningRate}
	if o := cfg.Objective; o != nil {
		frag.Objective = o.Name()
		if k := o.NumOutputs(); k > 1 {
			frag.NumOutputs = k
		}
	}
	saveFragment(*out, frag)
	fmt.Printf("party B finished %d trees in %v (%v/tree)\n", st.TreesFinished(), elapsed.Round(time.Millisecond),
		perTree(elapsed, st))
	fmt.Printf("  task-seconds: encrypt %v, decrypt %v; wall: idle(B) %v; splits passive %d / B %d; dirty %d\n",
		st.EncryptTime().Round(time.Millisecond), st.DecryptTime().Round(time.Millisecond),
		st.BIdleTime().Round(time.Millisecond), st.SplitsByA(), st.SplitsByB(), st.DirtyNodes())
}

// predictRoundRows bounds one scoring round of `predict`. A passive
// party answers a round with one bitmap of ceil(rows/8) bytes per split it
// owns, so a whole large shard in one round would outgrow the gateway's
// frame limit. Routing is per row, so the round size moves no margin.
const predictRoundRows = 1 << 14

// cmdPredict scores aligned instances in one federated scoring session:
// each passive party serves its fragment through the sidecar's worker,
// and Party B scores its whole shard in rounds of predictRoundRows rows
// and writes margins.
func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	role := fs.String("role", "", "a (serves placements) or b (routes and writes margins)")
	linkFn := linkFlags(fs, true, true)
	data := fs.String("data", "", "this party's LibSVM shard of the instances to score")
	model := fs.String("model", "", "this party's model fragment (from party -out)")
	out := fs.String("out", "predictions.txt", "margin output path (role b)")
	fs.Parse(args)
	if *data == "" || *model == "" {
		log.Fatal("predict: -data and -model are required")
	}
	l := linkFn()

	switch *role {
	case "a":
		w, rows := runPassiveWorker(l, predictTopics, *data, []string{*model}, false)
		// Party B closes the session early when it refuses it (a misaligned
		// shard) or a round fails; either way this shard was not scored.
		want := (rows + predictRoundRows - 1) / predictRoundRows
		if w.Rounds() < int64(want) || w.RoundErrors() > 0 {
			log.Fatalf("predict: session ended after %d of %d scoring rounds (%d refused)",
				w.Rounds(), want, w.RoundErrors())
		}
		fmt.Println("placements served")
	case "b":
		d := loadData(*data)
		reg := buildServeRegistry([]string{*model}, true)
		trs, _ := l.dialPeers(predictTopics, nil)
		margins, err := predictSession(d, reg, trs)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		for _, m := range margins {
			fmt.Fprintf(f, "%g\n", m)
		}
		fmt.Printf("wrote %d margins to %s\n", len(margins), *out)
	default:
		log.Fatal("predict: -role must be a or b")
	}
}

// predictSession is Party B's side of `predict`: it opens one scoring
// session over trs (one transport per passive party, in party order),
// scores every row of B's shard d in rounds of predictRoundRows rows
// against reg's current version, closes the session and returns the
// margins in row order.
func predictSession(d *dataset.Dataset, reg *serve.Registry, trs []core.Transport) ([]float64, error) {
	srv, err := serve.NewServer(serve.ServerConfig{Data: d, Registry: reg, Workers: trs, Session: "vf2boost-predict"})
	if err != nil {
		return nil, err
	}
	if err := srv.Open(); err != nil {
		return nil, err
	}
	n := d.Rows()
	margins := make([]float64, 0, n)
	rows := make([]int32, 0, min(n, predictRoundRows))
	for lo := 0; lo < n; lo += predictRoundRows {
		rows = rows[:0]
		for r := lo; r < min(lo+predictRoundRows, n); r++ {
			rows = append(rows, int32(r))
		}
		m, _, err := srv.ScoreRows(rows)
		if err != nil {
			srv.Close() // release the workers; the round's error is the one to report
			return nil, err
		}
		margins = append(margins, m...)
	}
	return margins, srv.Close()
}

// buildServeRegistry publishes the fragment files as versions 1..N (the
// last one current). Party B's (active) scores each version with the
// learning rate and base score its fragment records; a passive one routes.
func buildServeRegistry(paths []string, active bool) *serve.Registry {
	reg := serve.NewRegistry()
	version := uint64(0)
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		version++
		m := loadModelFile(path)
		if k := m.Outputs(); k > 1 {
			log.Fatalf("%s is a %d-output fragment (%s): predict and serve score one margin per row", path, k, m.Objective)
		}
		sm := serve.Model{Version: version, Fragment: m.Parties[0]}
		if active {
			if !(m.LearningRate > 0) {
				log.Fatalf("%s records no learning rate: re-run `party -role b -out` to write a Party B fragment that does", path)
			}
			sm.LearningRate, sm.BaseScore = m.LearningRate, m.BaseScore
		}
		if err := reg.Publish(sm); err != nil {
			log.Fatal(err)
		}
	}
	if version == 0 {
		log.Fatal("-models lists no fragment files")
	}
	return reg
}

// runPassiveWorker answers Party B's scoring rounds for `predict -role a`
// and `sidecar` until B closes the session (with redial, session after
// session). It returns the worker and the shard's row count.
func runPassiveWorker(l gatewayLink, kind, data string, models []string, redial bool) (*serve.PassiveWorker, int) {
	d := loadData(data)
	d.Labels = nil
	reg := buildServeRegistry(models, false)
	w := serve.NewPassiveWorker(l.index, d, reg)
	fmt.Printf("passive worker %d up: %d rows, model versions %v\n", l.index, d.Rows(), reg.Versions())
	dial := l.dialer(kind, l.index, false)
	var err error
	if redial {
		err = w.RunLoop(dial)
	} else {
		err = w.Run(connect(dial, nil))
	}
	if err != nil {
		log.Fatal(err)
	}
	return w, d.Rows()
}

// cmdSidecar runs a passive party's online scoring sidecar: it holds the
// party's feature shard and fragment registry and answers scoring rounds
// on one persistent session until Party B closes it.
func cmdSidecar(args []string) {
	fs := flag.NewFlagSet("sidecar", flag.ExitOnError)
	linkFn := linkFlags(fs, true, false)
	data := fs.String("data", "", "this party's LibSVM shard of the scoring universe")
	models := fs.String("models", "", "comma-separated fragment files, published as versions 1..N")
	redial := fs.Bool("redial", false, "re-dial and serve the next session when a session ends (survives Party B restarts)")
	fs.Parse(args)
	if *data == "" || *models == "" {
		log.Fatal("sidecar: -data and -models are required")
	}
	l := linkFn()
	w, _ := runPassiveWorker(l, serveTopics, *data, strings.Split(*models, ","), *redial)
	fmt.Printf("sidecar %d: session closed after %d rounds (%d round errors)\n",
		l.index, w.Rounds(), w.RoundErrors())
}

// cmdServe runs Party B's online scoring server: persistent sessions to
// every passive sidecar, a micro-batcher coalescing HTTP requests into
// federated rounds, and graceful shutdown that drains in-flight batches.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	linkFn := linkFlags(fs, false, true)
	data := fs.String("data", "", "Party B's LibSVM shard of the scoring universe")
	models := fs.String("models", "", "comma-separated fragment files, published as versions 1..N")
	maxBatch := fs.Int("max-batch", 64, "flush a micro-batch at this many requests")
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "longest a request waits for company: a partial micro-batch flushes at this wait, or once no request has joined it for an eighth of it (and only when a pipeline slot is free)")
	maxQueue := fs.Int("max-queue", 1024, "shed requests beyond this many queued (HTTP 429)")
	maxInflight := fs.Int("max-inflight", 4, "pipeline depth: federated rounds in flight on the session links at once (excess rounds wait under their deadline; shedding is -max-queue)")
	deadline := fs.Duration("score-deadline", 2*time.Second, "default per-request scoring budget (X-Score-Deadline overrides)")
	policy := fs.String("degraded-policy", "failclosed", "when a party is unreachable: failclosed or partial")
	cooldown := fs.Duration("breaker-cooldown", 2*time.Second, "circuit-breaker open time before a half-open probe")
	session := fs.String("session", "vf2boost-serve", "session label sent to sidecars")
	fs.Parse(args)
	if *data == "" || *models == "" {
		log.Fatal("serve: -data and -models are required")
	}
	l := linkFn()
	pol, err := serve.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	d := loadData(*data)
	reg := buildServeRegistry(strings.Split(*models, ","), true)
	trs, dialers := l.dialPeers(serveTopics, nil)
	srv, err := serve.NewServer(serve.ServerConfig{
		Data:        d,
		Registry:    reg,
		Workers:     trs,
		Dialers:     dialers,
		Batch:       serve.BatcherConfig{MaxBatch: *maxBatch, MaxWait: *maxWait, MaxQueue: *maxQueue},
		Deadline:    *deadline,
		Policy:      pol,
		MaxInflight: *maxInflight,
		Breaker:     serve.BreakerConfig{Cooldown: *cooldown},
		Session:     *session,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("serving on http://%s (model v%d, %d sidecars, batch<=%d, wait<=%v, deadline %v, policy %s)\n",
		lis.Addr(), reg.CurrentVersion(), l.peers, *maxBatch, *maxWait, *deadline, pol)
	go func() {
		if err := hs.Serve(lis); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("serve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("serve: http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("serve: session close: %v", err)
	}
	m := srv.Metrics()
	fmt.Printf("serve: %d requests in %d batches (%d errors); latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		m.Requests(), m.Batches(), m.Errors(),
		m.Latency().Quantile(0.50), m.Latency().Quantile(0.95), m.Latency().Quantile(0.99))
}

// cmdInspect prints a federated model (or fragment) in human-readable
// form: per-party split counts and gains, and optionally the tree
// structure as seen by the fragment's owner.
func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	model := fs.String("model", "", "model or fragment JSON (from sim/party -out)")
	trees := fs.Bool("trees", false, "print tree structures")
	fs.Parse(args)
	if *model == "" {
		log.Fatal("inspect: -model is required")
	}
	m := loadModelFile(*model)
	fmt.Printf("parties: %d\n", m.NumParties())
	if len(m.SplitsByParty) > 0 {
		fmt.Printf("splits by party: %v\n", m.SplitsByParty)
	}
	gains := m.GainByParty()
	fmt.Printf("gain by party:  %v\n", gains)
	bTrees := m.Parties[m.NumParties()-1].Trees
	fmt.Printf("trees: %d\n", len(bTrees))
	if !*trees {
		return
	}
	for ti, tr := range bTrees {
		fmt.Printf("tree %d (%d nodes):\n", ti, len(tr.Nodes))
		printFedTree(m, ti, tr.Root, 1)
	}
}

// printFedTree prints node id of tree ti, as Party B's fragment holds it,
// and the subtree below it.
func printFedTree(m *core.FederatedModel, ti int, id int32, depth int) {
	n, ok := m.Parties[m.NumParties()-1].Trees[ti].Nodes[id]
	if !ok {
		fmt.Printf("%*s<missing node %d>\n", 2*depth, "", id)
		return
	}
	indent := fmt.Sprintf("%*s", 2*depth, "")
	if n.Owner == core.OwnerLeaf {
		fmt.Printf("%sleaf w=%.5f\n", indent, n.Weight)
		return
	}
	// Feature/threshold are only present in the owner's fragment.
	if own, ok := m.Parties[n.Owner].Trees[ti].Nodes[id]; ok && (own.Feature != 0 || own.Threshold != 0) {
		fmt.Printf("%sparty%d f%d <= %.5f (gain %.4f)\n", indent, n.Owner, own.Feature, own.Threshold, n.Gain)
	} else {
		fmt.Printf("%sparty%d <private split> (gain %.4f)\n", indent, n.Owner, n.Gain)
	}
	printFedTree(m, ti, n.Left, depth+1)
	printFedTree(m, ti, n.Right, depth+1)
}

func loadModelFile(path string) *core.FederatedModel {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// saveModel writes m to path. Every subcommand writes its model before it
// prints its report, so a reader that stops early (`| head`) cannot cost
// the model.
func saveModel(path string, m *core.FederatedModel) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// saveFragment writes a party's fragment if path is set.
func saveFragment(path string, frag *core.FederatedModel) {
	if path != "" {
		saveModel(path, frag)
	}
}
