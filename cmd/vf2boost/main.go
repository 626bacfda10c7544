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

	"vf2boost/internal/checkpoint"
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

// isRanking reports whether the configured objective couples gradients
// across query groups, which changes how the labeled shard is read
// (qid:N tokens) and which metric headlines the run.
func isRanking(cfg core.Config) bool {
	return cfg.Objective != nil && strings.HasPrefix(cfg.Objective.Name(), "ranking")
}

// loadLabeledData reads the labeled training shard under the configured
// objective: ranking reads qid:N query groups and installs them on the
// objective; everything else is a plain LibSVM load.
func loadLabeledData(path string, cfg core.Config) *dataset.Dataset {
	if !isRanking(cfg) {
		return loadData(path)
	}
	d, groups, err := dataset.LoadLibSVMRankingFile(path, 0)
	if err != nil {
		log.Fatalf("loading %s: %v", path, err)
	}
	if err := cfg.Objective.(objective.GroupAware).SetGroups(groups); err != nil {
		log.Fatalf("loading %s: %v", path, err)
	}
	return d
}

// refuseGroupAwareOOC stops an -ooc run whose objective couples
// gradients across query groups: a LibSVM store source carries no
// qid:N groups to install on it.
func refuseGroupAwareOOC(cmd string, cfg core.Config) {
	if _, ok := cfg.Objective.(objective.GroupAware); ok {
		log.Fatalf("%s: -objective %s is not supported with -ooc (the LibSVM store source carries no query groups)", cmd, cfg.Objective.Name())
	}
}

// reportObjectiveMetric prints the objective's headline metric (mlogloss,
// ndcg@k, ...) plus accuracy for multiclass, over a k×n margin matrix.
func reportObjectiveMetric(cfg core.Config, labels []float64, margins [][]float64) {
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
// subcommands and returns a loader for the resolved settings.
func oocFlags(fs *flag.FlagSet) func() oocSettings {
	dir := fs.String("ooc", "", "train out-of-core: build (if absent) and use a binned shard store under this directory")
	budget := fs.String("mem-budget", "256MiB", "resident shard-cache cap for -ooc (bytes, or with K/M/G[iB] suffix; 0 = unlimited)")
	chunkRows := fs.Int("chunk-rows", 1<<16, "shard height in rows for -ooc store builds")
	prefetch := fs.Bool("prefetch", true, "readahead of the next shard in the sweep plan (-ooc)")
	chaos := fs.String("fschaos", "", "seeded storage fault injection for stores and checkpoints, e.g. seed=7,flip=0.02,readerr=0.05,shortwrite=0.1,tornrename=0.2,enospc=1MiB,crash=40")
	return func() oocSettings {
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

type oocSettings struct {
	dir       string
	budget    int64
	chunkRows int
	prefetch  bool
	fsys      fsfault.FS // nil = real filesystem; set by -fschaos
}

// openStore builds the store from src if dir has no manifest yet, then
// opens it under the configured budget. An existing store is reused
// as-is (delete the directory to force a rebuild).
func (s oocSettings) openStore(src ooc.Source, maxBins int) *ooc.Store {
	opt := ooc.Options{MemBudget: s.budget, Prefetch: s.prefetch, Source: src, FS: s.fsys}
	st, err := ooc.Open(s.dir, opt)
	if err == nil {
		fmt.Printf("ooc: reusing store %s (%d rows, %d shards)\n", s.dir, st.Rows(), st.NumShards())
		return st
	}
	start := time.Now()
	if err := ooc.Build(s.dir, src, ooc.BuildOptions{MaxBins: maxBins, ChunkRows: s.chunkRows, FS: s.fsys}); err != nil {
		log.Fatalf("ooc: building %s: %v", s.dir, err)
	}
	st, err = ooc.Open(s.dir, opt)
	if err != nil {
		log.Fatalf("ooc: opening %s: %v", s.dir, err)
	}
	fmt.Printf("ooc: built store %s in %v (%d rows, %d shards, budget %d bytes)\n",
		s.dir, time.Since(start).Round(time.Millisecond), st.Rows(), st.NumShards(), s.budget)
	return st
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
	d, err := dataset.LoadLibSVMFile(path, 0)
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
	p := gbdt.DefaultParams()
	p.NumTrees = cfg.Trees
	p.LearningRate = cfg.LearningRate
	p.MaxDepth = cfg.MaxDepth
	p.MaxBins = cfg.MaxBins
	p.Split = cfg.Split
	p.Workers = cfg.Workers

	if oc := oocFn(); oc.dir != "" {
		refuseGroupAwareOOC("local", cfg)
		// Out-of-core: the raw rows never materialize, so the train-metric
		// report (which needs raw feature values) is skipped.
		src, err := ooc.NewLibSVMSource(*data, 0)
		if err != nil {
			log.Fatal(err)
		}
		st := oc.openStore(src, p.MaxBins)
		labels, err := st.Labels()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		var m *gbdt.Model
		if cfg.Objective != nil {
			m, err = gbdt.TrainMultiBinned(st, labels, cfg.Objective, p)
		} else {
			m, err = gbdt.TrainBinned(st, labels, p)
		}
		if err != nil {
			log.Fatal(err)
		}
		cs := st.Stats()
		fmt.Printf("trained %d trees out-of-core in %v; cache: %d loads, %d prefetches, %d evictions, peak %d bytes\n",
			len(m.Trees), time.Since(start).Round(time.Millisecond), cs.Loads, cs.Prefetches, cs.Evictions, cs.PeakBytes)
		if cs.RetriedLoads > 0 || cs.Quarantined > 0 || cs.Rebuilds > 0 {
			fmt.Printf("self-heal: %d retried loads, %d quarantined shards, %d rebuilds (generation %d)\n",
				cs.RetriedLoads, cs.Quarantined, cs.Rebuilds, st.Generation())
		}
		if err := m.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model written to %s\n", *out)
		return
	}

	d := loadLabeledData(*data, cfg)
	start := time.Now()
	if cfg.Objective != nil {
		m, err := gbdt.TrainMulti(d, cfg.Objective, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained %d rounds (%d trees) in %v\n",
			cfg.Trees, len(m.Trees), time.Since(start).Round(time.Millisecond))
		reportObjectiveMetric(cfg, d.Labels, m.PredictAllOutputs(d))
		if err := m.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model written to %s\n", *out)
		return
	}
	m, err := gbdt.Train(d, p)
	if err != nil {
		log.Fatal(err)
	}
	margins := m.PredictAll(d)
	auc, _ := metrics.AUC(margins, d.Labels)
	ll, _ := metrics.LogLoss(margins, d.Labels)
	fmt.Printf("trained %d trees in %v; train AUC %.4f, logloss %.4f\n",
		cfg.Trees, time.Since(start).Round(time.Millisecond), auc, ll)
	if err := m.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model written to %s\n", *out)
}

func cmdSim(args []string) {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	data := fs.String("data", "", "labeled joined LibSVM file (will be split vertically)")
	split := fs.String("split", "", "per-party feature counts, e.g. 30,20 (last party keeps labels)")
	out := fs.String("out", "fedmodel.json", "model output path")
	wan := fs.Float64("wan", 0, "simulated WAN bandwidth in Mbps (0 = unshaped)")
	latency := fs.Duration("latency", 0, "simulated WAN one-way latency, e.g. 20ms (0 = none)")
	chaos := fs.String("chaos", "", "seeded fault injection spec, e.g. seed=7,drop=0.05,dup=0.02,reorder=0.02,delay=0.1,delayfor=2ms,cut=500")
	ckptDir := fs.String("checkpoint-dir", "", "snapshot every party's training state here after each tree")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint under -checkpoint-dir")
	oocFn := oocFlags(fs)
	cfgFn := trainFlags(fs)
	fs.Parse(args)
	if *data == "" || *split == "" {
		log.Fatal("sim: -data and -split are required")
	}
	if *resume && *ckptDir == "" {
		log.Fatal("sim: -resume requires -checkpoint-dir")
	}
	if *latency < 0 {
		log.Fatal("sim: -latency must not be negative")
	}
	cfg := cfgFn()
	var opts []core.SessionOption
	if *wan > 0 || *latency > 0 {
		opts = append(opts, core.WithWAN(*wan, *latency))
	}
	if *chaos != "" {
		fc, err := fault.ParseSpec(*chaos)
		if err != nil {
			log.Fatalf("sim: %v", err)
		}
		opts = append(opts, core.WithChaos(fc))
	}
	if *ckptDir != "" {
		opts = append(opts, core.WithCheckpoints(*ckptDir))
	}
	if *resume {
		opts = append(opts, core.WithResume())
	}

	var sess *core.Session
	var err error
	var trainLabels []float64
	var parts []*dataset.Dataset
	if oc := oocFn(); oc.dir != "" {
		refuseGroupAwareOOC("sim", cfg)
		// Out-of-core sim: every party trains against its own disk-backed
		// store, built from a column slice of the joined row stream — the
		// joined dataset is never materialized.
		counts := parseSplit(*split)
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
		if oc.fsys != nil {
			// The same injector that hits the shard stores also hits any
			// checkpoint stores the session opens.
			opts = append(opts, core.WithCheckpointFS(oc.fsys))
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
			st := ps.openStore(slice, cfg.MaxBins)
			views[i] = st
			if labeled {
				if trainLabels, serr = st.Labels(); serr != nil {
					log.Fatal(serr)
				}
			}
			lo += c
		}
		sess, err = core.NewViewSession(views, trainLabels, cfg, opts...)
	} else {
		d := loadLabeledData(*data, cfg)
		parts, err = d.VerticalSplit(parseSplit(*split), len(parseSplit(*split))-1)
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
	st := sess.Stats()
	fmt.Printf("federated training: %v (%v/tree)\n", elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(cfg.Trees)).Round(time.Millisecond))
	if parts != nil && cfg.Objective != nil {
		margins, perr := m.PredictAllOutputs(parts)
		if perr != nil {
			log.Fatal(perr)
		}
		reportObjectiveMetric(cfg, trainLabels, margins)
	} else if parts != nil {
		// Train-AUC needs raw feature values, which the out-of-core path
		// never materializes — only reported for the in-memory path.
		margins, perr := m.PredictAll(parts)
		if perr != nil {
			log.Fatal(perr)
		}
		auc, _ := metrics.AUC(margins, trainLabels)
		ll, _ := metrics.LogLoss(margins, trainLabels)
		fmt.Printf("  train AUC %.4f, logloss %.4f\n", auc, ll)
	}
	fmt.Printf("  task-seconds: encrypt %v, decrypt %v, build-hist %v, pack %v (%.1f slots/ct); wall: %v/tree, idle(B) %v\n",
		st.EncryptTime().Round(time.Millisecond), st.DecryptTime().Round(time.Millisecond),
		st.BuildHistTime().Round(time.Millisecond), st.PackTime().Round(time.Millisecond),
		st.PackFill(), (elapsed / time.Duration(cfg.Trees)).Round(time.Millisecond), st.BIdleTime().Round(time.Millisecond))
	fmt.Printf("  splits: passive %d, B %d; dirty %d; traffic %.1f MiB\n",
		st.SplitsByA(), st.SplitsByB(), st.DirtyNodes(),
		float64(sess.Broker().BytesSent())/(1<<20))
	fmt.Println(st)
	if *chaos != "" {
		for i, ls := range sess.LinkStats() {
			fmt.Printf("  %s %d: %s\n", map[int]string{0: "B-side link", 1: "A-side link"}[i%2], i/2, ls)
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model written to %s\n", *out)
}

func cmdGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", ":7001", "listen address")
	secret := fs.String("secret", "", "shared token secret (empty disables auth)")
	wan := fs.Float64("wan", 0, "simulated WAN bandwidth in Mbps (0 = unshaped)")
	latency := fs.Duration("latency", 0, "simulated WAN one-way latency, e.g. 20ms (0 = none)")
	fs.Parse(args)
	if *latency < 0 {
		log.Fatal("gateway: -latency must not be negative")
	}
	var opts []mq.Option
	if *secret != "" {
		opts = append(opts, mq.WithAuth([]byte(*secret)))
	}
	if *wan > 0 || *latency > 0 {
		sh := mq.NewShaper(*wan, *latency)
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

// gatewayTransport adapts a producer/consumer TCP pair to core.Transport.
type gatewayTransport struct {
	prod *mq.RemoteProducer
	cons *mq.RemoteConsumer
}

func (t gatewayTransport) Send(b []byte) error      { return t.prod.Send(b) }
func (t gatewayTransport) Receive() ([]byte, error) { return t.cons.Receive() }

// Close severs both gateway connections so the broker-side consumer
// detaches — a lingering consumer would keep stealing queued frames.
func (t gatewayTransport) Close() {
	t.prod.Close()
	t.cons.Close()
}

func dialPartyErr(gateway, secret, sendTopic, recvTopic string) (core.Transport, error) {
	tok := func(topic string) string {
		if secret == "" {
			return ""
		}
		return mq.Token([]byte(secret), topic)
	}
	prod, err := mq.DialProducer(gateway, sendTopic, tok(sendTopic))
	if err != nil {
		return nil, fmt.Errorf("dialing gateway producer: %w", err)
	}
	cons, err := mq.DialConsumer(gateway, recvTopic, tok(recvTopic))
	if err != nil {
		return nil, fmt.Errorf("dialing gateway consumer: %w", err)
	}
	return gatewayTransport{prod: prod, cons: cons}, nil
}

func dialParty(gateway, secret, sendTopic, recvTopic string) core.Transport {
	tr, err := dialPartyErr(gateway, secret, sendTopic, recvTopic)
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func cmdParty(args []string) {
	fs := flag.NewFlagSet("party", flag.ExitOnError)
	role := fs.String("role", "", "a (passive) or b (active, holds labels)")
	index := fs.Int("index", 0, "passive party index (role a)")
	peers := fs.Int("peers", 1, "number of passive parties (role b)")
	gateway := fs.String("gateway", "127.0.0.1:7001", "gateway address")
	secret := fs.String("secret", "", "shared token secret")
	data := fs.String("data", "", "this party's LibSVM shard")
	out := fs.String("out", "", "model fragment output path (optional)")
	resilient := fs.Bool("resilient", false, "wrap the gateway link in the retry/heartbeat layer (survives drops and reconnects)")
	heartbeat := fs.Duration("heartbeat", time.Second, "idle-link keepalive interval (with -resilient)")
	peerTimeout := fs.Duration("peer-timeout", 30*time.Second, "declare the peer dead after this silence (with -resilient)")
	ckptDir := fs.String("checkpoint-dir", "", "snapshot this party's training state here after each tree")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint under -checkpoint-dir")
	oocFn := oocFlags(fs)
	cfgFn := trainFlags(fs)
	fs.Parse(args)
	if *data == "" {
		log.Fatal("party: -data is required")
	}
	if *resume && *ckptDir == "" {
		log.Fatal("party: -resume requires -checkpoint-dir")
	}
	cfg := cfgFn()
	oc := oocFn()

	// With -ooc this party trains against a disk-backed store built from
	// its shard file; the raw rows never materialize.
	var view gbdt.BinView
	var viewLabels []float64
	var d *dataset.Dataset
	if oc.dir != "" {
		refuseGroupAwareOOC("party", cfg)
		src, err := ooc.NewLibSVMSource(*data, 0)
		if err != nil {
			log.Fatal(err)
		}
		st := oc.openStore(src, cfg.MaxBins)
		view = st
		if *role == "b" {
			var err error
			if viewLabels, err = st.Labels(); err != nil {
				log.Fatal(err)
			}
		}
	} else if *role == "b" {
		// Party B holds the labels; under a ranking objective its shard
		// carries qid:N group markers that must reach the objective.
		d = loadLabeledData(*data, cfg)
	} else {
		d = loadData(*data)
	}

	rcfg := core.DefaultResilientConfig()
	rcfg.Heartbeat = *heartbeat
	rcfg.PeerTimeout = *peerTimeout
	// Both ends of a link must speak the same framing: enable -resilient
	// on every party or on none.
	wrap := func(send, recv string) core.Transport {
		dial := func() (core.Transport, error) {
			return dialPartyErr(*gateway, *secret, send, recv)
		}
		if !*resilient {
			tr, err := dial()
			if err != nil {
				log.Fatal(err)
			}
			return tr
		}
		tr, err := core.NewResilientTransport(nil, dial, rcfg)
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}
	runOpts := func(sub string) []core.RunOption {
		if *ckptDir == "" {
			return nil
		}
		st, err := checkpoint.OpenFS(filepath.Join(*ckptDir, sub), oc.fsys)
		if err != nil {
			log.Fatal(err)
		}
		opts := []core.RunOption{core.RunWithCheckpoints(st)}
		if *resume {
			opts = append(opts, core.RunWithResume())
		}
		return opts
	}

	switch *role {
	case "a":
		tr := wrap(fmt.Sprintf("a%d2b", *index), fmt.Sprintf("b2a%d", *index))
		var pm *core.PartyModel
		var err error
		if view != nil {
			pm, err = core.RunPassivePartyView(*index, view, cfg, tr,
				runOpts(fmt.Sprintf("passive%d", *index))...)
		} else {
			// Passive shards must not carry labels.
			d.Labels = nil
			pm, err = core.RunPassiveParty(*index, d, cfg, tr,
				runOpts(fmt.Sprintf("passive%d", *index))...)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("passive party %d finished; %d trees contain local splits\n",
			*index, len(pm.Trees))
		saveFragment(*out, pm)
	case "b":
		trs := make([]core.Transport, *peers)
		for i := 0; i < *peers; i++ {
			trs[i] = wrap(fmt.Sprintf("b2a%d", i), fmt.Sprintf("a%d2b", i))
		}
		start := time.Now()
		var pm *core.PartyModel
		var st *core.Stats
		var err error
		if view != nil {
			pm, st, err = core.RunActivePartyView(view, viewLabels, cfg, trs, runOpts("active")...)
		} else {
			pm, st, err = core.RunActiveParty(d, cfg, trs, runOpts("active")...)
		}
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("party B finished %d trees in %v (%v/tree)\n", cfg.Trees, elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(cfg.Trees)).Round(time.Millisecond))
		fmt.Printf("  task-seconds: encrypt %v, decrypt %v; wall: idle(B) %v; splits passive %d / B %d; dirty %d\n",
			st.EncryptTime().Round(time.Millisecond), st.DecryptTime().Round(time.Millisecond),
			st.BIdleTime().Round(time.Millisecond), st.SplitsByA(), st.SplitsByB(), st.DirtyNodes())
		saveFragment(*out, pm)
	default:
		log.Fatal("party: -role must be a or b")
	}
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
	index := fs.Int("index", 0, "passive party index (role a)")
	peers := fs.Int("peers", 1, "number of passive parties (role b)")
	gateway := fs.String("gateway", "127.0.0.1:7001", "gateway address")
	secret := fs.String("secret", "", "shared token secret")
	data := fs.String("data", "", "this party's LibSVM shard of the instances to score")
	model := fs.String("model", "", "this party's model fragment (from party -out)")
	eta := fs.Float64("eta", 0.1, "learning rate the model was trained with")
	out := fs.String("out", "predictions.txt", "margin output path (role b)")
	fs.Parse(args)
	if *data == "" || *model == "" {
		log.Fatal("predict: -data and -model are required")
	}
	d := loadData(*data)

	switch *role {
	case "a":
		d.Labels = nil
		w := serve.NewPassiveWorker(*index, d, buildServeRegistry([]string{*model}, 0, 0))
		tr := dialParty(*gateway, *secret,
			fmt.Sprintf("pa%d2b", *index), fmt.Sprintf("pb2a%d", *index))
		if err := w.Run(tr); err != nil {
			log.Fatal(err)
		}
		// Party B closes the session early when it refuses it (a misaligned
		// shard) or a round fails; either way this shard was not scored.
		want := (d.Rows() + predictRoundRows - 1) / predictRoundRows
		if w.Rounds() < int64(want) || w.RoundErrors() > 0 {
			log.Fatalf("predict: session ended after %d of %d scoring rounds (%d refused)",
				w.Rounds(), want, w.RoundErrors())
		}
		fmt.Println("placements served")
	case "b":
		trs := make([]core.Transport, *peers)
		for i := 0; i < *peers; i++ {
			trs[i] = dialParty(*gateway, *secret,
				fmt.Sprintf("pb2a%d", i), fmt.Sprintf("pa%d2b", i))
		}
		margins, err := predictSession(d, buildServeRegistry([]string{*model}, *eta, 0), trs)
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
// last one current). All versions share the scalar scoring parameters,
// which only Party B's registry uses.
func buildServeRegistry(paths []string, eta, base float64) *serve.Registry {
	reg := serve.NewRegistry()
	version := uint64(0)
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		version++
		pm := loadFragmentFile(path)
		if err := reg.Publish(serve.Model{Version: version, Fragment: pm, LearningRate: eta, BaseScore: base}); err != nil {
			log.Fatal(err)
		}
	}
	if version == 0 {
		log.Fatal("-models lists no fragment files")
	}
	return reg
}

// cmdSidecar runs a passive party's online scoring sidecar: it holds the
// party's feature shard and fragment registry and answers scoring rounds
// on one persistent session until Party B closes it.
func cmdSidecar(args []string) {
	fs := flag.NewFlagSet("sidecar", flag.ExitOnError)
	index := fs.Int("index", 0, "passive party index")
	gateway := fs.String("gateway", "127.0.0.1:7001", "gateway address")
	secret := fs.String("secret", "", "shared token secret")
	data := fs.String("data", "", "this party's LibSVM shard of the scoring universe")
	models := fs.String("models", "", "comma-separated fragment files, published as versions 1..N")
	redial := fs.Bool("redial", false, "re-dial and serve the next session when a session ends (survives Party B restarts)")
	fs.Parse(args)
	if *data == "" || *models == "" {
		log.Fatal("sidecar: -data and -models are required")
	}
	d := loadData(*data)
	d.Labels = nil
	reg := buildServeRegistry(strings.Split(*models, ","), 0, 0)
	w := serve.NewPassiveWorker(*index, d, reg)
	send, recv := fmt.Sprintf("sa%d2b", *index), fmt.Sprintf("sb2a%d", *index)
	fmt.Printf("sidecar %d up: %d rows, model versions %v\n", *index, d.Rows(), reg.Versions())
	if *redial {
		err := w.RunLoop(func() (core.Transport, error) {
			return dialPartyErr(*gateway, *secret, send, recv)
		}, 0, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
	} else if err := w.Run(dialParty(*gateway, *secret, send, recv)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sidecar %d: session closed after %d rounds (%d round errors)\n",
		*index, w.Rounds(), w.RoundErrors())
}

// cmdServe runs Party B's online scoring server: persistent sessions to
// every passive sidecar, a micro-batcher coalescing HTTP requests into
// federated rounds, and graceful shutdown that drains in-flight batches.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	peers := fs.Int("peers", 1, "number of passive sidecars")
	gateway := fs.String("gateway", "127.0.0.1:7001", "gateway address")
	secret := fs.String("secret", "", "shared token secret")
	data := fs.String("data", "", "Party B's LibSVM shard of the scoring universe")
	models := fs.String("models", "", "comma-separated fragment files, published as versions 1..N")
	eta := fs.Float64("eta", 0.1, "learning rate the models were trained with")
	base := fs.Float64("base", 0, "base score added to every margin")
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
	pol, err := serve.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	d := loadData(*data)
	reg := buildServeRegistry(strings.Split(*models, ","), *eta, *base)
	trs := make([]core.Transport, *peers)
	dialers := make([]func() (core.Transport, error), *peers)
	for i := 0; i < *peers; i++ {
		send, recv := fmt.Sprintf("sb2a%d", i), fmt.Sprintf("sa%d2b", i)
		trs[i] = dialParty(*gateway, *secret, send, recv)
		dialers[i] = func() (core.Transport, error) {
			return dialPartyErr(*gateway, *secret, send, recv)
		}
	}
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
		lis.Addr(), reg.CurrentVersion(), *peers, *maxBatch, *maxWait, *deadline, pol)
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
	f, err := os.Open(*model)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		log.Fatal(err)
	}
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
		printFedTree(tr, m, tr.Root, 1)
	}
}

func printFedTree(tr *core.FedTree, m *core.FederatedModel, id int32, depth int) {
	n, ok := tr.Nodes[id]
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
	if own, ok := m.Parties[n.Owner].Trees[treeIndexOf(m, tr)].Nodes[id]; ok && (own.Feature != 0 || own.Threshold != 0) {
		fmt.Printf("%sparty%d f%d <= %.5f (gain %.4f)\n", indent, n.Owner, own.Feature, own.Threshold, n.Gain)
	} else {
		fmt.Printf("%sparty%d <private split> (gain %.4f)\n", indent, n.Owner, n.Gain)
	}
	printFedTree(tr, m, n.Left, depth+1)
	printFedTree(tr, m, n.Right, depth+1)
}

func treeIndexOf(m *core.FederatedModel, tr *core.FedTree) int {
	for i, t := range m.Parties[m.NumParties()-1].Trees {
		if t == tr {
			return i
		}
	}
	return 0
}

func loadFragmentFile(path string) *core.PartyModel {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		log.Fatal(err)
	}
	return m.Parties[0]
}

func saveFragment(path string, pm *core.PartyModel) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	m := core.FederatedModel{Parties: []*core.PartyModel{pm}}
	if err := m.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fragment written to %s\n", path)
}
