// Chaos: corrupt a real result-store blob on disk and watch the store
// detect it, quarantine the bad bytes for inspection, and self-heal on
// the next write — with the figure output byte-identical throughout.
// The demo runs a small sweep twice around a deliberate corruption:
// the damaged cell costs one recomputation, never a wrong number.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"shift"
)

func main() {
	dir := flag.String("dir", "shift-chaos-cache", "result store directory (a blob in it will be corrupted)")
	flag.Parse()

	store, err := shift.NewTieredStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	engine := shift.NewEngine(0, store)
	opts := shift.QuickOptions()
	opts.Workloads = []string{"Web Search"}
	opts.Engine = engine

	// Pass 1: populate the store.
	before, err := shift.RunExperiment("fig8", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 1: %d cells on disk, %d quarantined\n\n", store.Len(), store.Health().Quarantined)

	// Sabotage: flip one byte in the middle of every blob of one shard.
	// The CRC-32C footer written with each blob makes this detectable.
	corrupted := 0
	blobs, _ := filepath.Glob(filepath.Join(*dir, "??", "*.json"))
	for _, p := range blobs[:1] { // one victim is enough to tell the story
		b, err := os.ReadFile(p)
		if err != nil || len(b) == 0 {
			continue
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err == nil {
			corrupted++
			fmt.Printf("corrupted %s (flipped one byte)\n", p)
		}
	}
	if corrupted == 0 {
		log.Fatal("found no blob to corrupt")
	}

	// Pass 2 must be byte-identical: a fresh process opens the damaged
	// directory, the corrupt blob fails CRC verification on lookup, is
	// moved to <dir>/quarantine/, and the cell is recomputed and
	// rewritten (self-heal). Every healthy cell is served from disk.
	store2, err := shift.NewTieredStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	engine2 := shift.NewEngine(0, store2)
	opts.Engine = engine2
	after, err := shift.RunExperiment("fig8", opts)
	if err != nil {
		log.Fatal(err)
	}

	st := engine2.Stats()
	h := store2.Health()
	fmt.Printf("\npass 2: recomputed %d cell(s), quarantined %d, store errors %d\n",
		st.Simulated, h.Quarantined, h.Errors)
	fmt.Printf("figure output byte-identical across the corruption: %t\n", before == after)
	q, _ := filepath.Glob(filepath.Join(*dir, "quarantine", "*.json"))
	fmt.Printf("quarantined bytes preserved for inspection: %v\n", q)

	// Pass 3 proves the self-heal: everything serves from disk again.
	store3, err := shift.NewTieredStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	engine3 := shift.NewEngine(0, store3)
	opts.Engine = engine3
	if _, err := shift.RunExperiment("fig8", opts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npass 3: simulated %d cells — the corrupted key healed itself\n",
		engine3.Stats().Simulated)
}
