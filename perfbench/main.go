// Command perfbench is the repository's benchmark: it drives seeded
// workloads on the paper's Figure 2 confederation through the public
// orchestra SDK, checks that every output is correct, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// profile sizes a workload. Exchange workloads (curation, durable) use the
// first group, query-mix the second.
type profile struct {
	// burst is alaska's deletes (and inserts) per round, edits dresden's,
	// conflicts the number of alaska's deletions beijing edits.
	window, burst, edits, conflicts, rounds, queriesPerRound int
	durable                                                  bool

	base, baseTxn, queries, commitEvery, roundEvery, scanEvery int

	// restartEvery restarts after every n-th round: a crash image and
	// recovery of every peer on durable, the store replica elsewhere.
	restartEvery int
	// sampleEvery re-evaluates every n-th query with FullFixpoint.
	sampleEvery int
	// Minimum samples per measured pass, so that each reported percentile
	// has at least ten samples beyond it, and minimum episodes, so that
	// setup_s is a median of several set-ups.
	minRounds, minPublishes, minQueries, minEpisodes int
}

var profiles = map[string]map[string]profile{
	"full": {
		"curation": {window: 32, burst: 4, edits: 2, conflicts: 1, rounds: 25, queriesPerRound: 12, restartEvery: 1,
			sampleEvery: 16, minRounds: 100, minPublishes: 200, minQueries: 1000, minEpisodes: 3},
		"durable": {window: 32, burst: 4, edits: 2, conflicts: 1, rounds: 24, queriesPerRound: 20, restartEvery: 8, durable: true,
			sampleEvery: 16, minRounds: 100, minPublishes: 200, minQueries: 1000, minEpisodes: 3},
		"query-mix": {base: 5000, baseTxn: 100, queries: 1200, commitEvery: 10, roundEvery: 1, restartEvery: 5, scanEvery: 50,
			sampleEvery: 200, minRounds: 100, minPublishes: 200, minQueries: 1000, minEpisodes: 3},
	},
	"small": {
		"curation": {window: 6, burst: 2, edits: 1, conflicts: 1, rounds: 4, queriesPerRound: 4, restartEvery: 2, sampleEvery: 3, minEpisodes: 1},
		"durable": {window: 6, burst: 2, edits: 1, conflicts: 1, rounds: 4, queriesPerRound: 4, restartEvery: 2, durable: true,
			sampleEvery: 3, minEpisodes: 1},
		"query-mix": {base: 200, baseTxn: 50, queries: 120, commitEvery: 5, roundEvery: 2, restartEvery: 4, scanEvery: 10,
			sampleEvery: 5, minEpisodes: 1},
	},
}

// maxLoop caps a run's measured time however many samples are missing, so
// a run always ends well inside its time limit; a traced run splits it
// between its two passes.
const maxLoop = 100 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "curation, durable or query-mix")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	scale := fs.String("scale", "full", "full, or small for self-tests")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for stores and crash images")
	rounds := fs.Int("rounds", 0, "curation and durable: rounds per episode, to study growth with history (0 keeps the default)")
	perturb := fs.String("perturb", "", "self-test only: digest, recovery or count corrupts an expected value")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prof, ok := profiles[*scale][*workload]
	if *rounds > 0 {
		prof.rounds = *rounds
	}
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload curation|durable|query-mix, --seconds >= 1, --trace 0|1 and --scale full|small\n")
		return 2
	}
	b, err := newBench(*workload, prof, *seed, *workdir, *perturb)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(*workdir)
	res := b.execute(time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	for _, p := range b.problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}
