// Command tracegen generates, stores, and inspects synthetic server-
// workload instruction fetch traces.
//
// Usage:
//
//	tracegen -workload "OLTP Oracle" -records 1000000 -out oracle.trc
//	tracegen -in oracle.trc -stats
//	tracegen -workload "Web Search" -records 200000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"shift/internal/trace"
	"shift/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "Web Search", "catalog workload name")
		records = flag.Int64("records", 200000, "records to generate")
		coreID  = flag.Int("core", 0, "core whose stream to generate")
		out     = flag.String("out", "", "output trace file (binary codec)")
		in      = flag.String("in", "", "input trace file to inspect instead of generating")
		stats   = flag.Bool("stats", false, "print trace statistics")
		list    = flag.Bool("list", false, "list catalog workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.Catalog() {
			fmt.Printf("%-16s footprint=%4.1fMB requestTypes=%2d os=%3dKB\n",
				p.Name, float64(p.FootprintBytes)/(1024*1024), p.RequestTypes,
				p.OSFootprintBytes/1024)
		}
		return
	}

	var reader trace.Reader
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		dec, err := trace.NewDecoder(f)
		if err != nil {
			fail(err)
		}
		reader = dec
	} else {
		p, err := workload.ByName(*name)
		if err != nil {
			fail(err)
		}
		w, err := workload.New(p)
		if err != nil {
			fail(err)
		}
		reader = trace.Limit(w.NewCoreReader(*coreID), *records)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		enc, err := trace.NewEncoder(f)
		if err != nil {
			fail(err)
		}
		n := int64(0)
		for {
			rec, err := reader.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(err)
			}
			if err := enc.Write(rec); err != nil {
				fail(err)
			}
			n++
		}
		if err := enc.Flush(); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d records to %s\n", n, *out)
		return
	}

	if *stats {
		st, err := trace.Measure(reader)
		if err != nil {
			fail(err)
		}
		fmt.Printf("records:       %d\n", st.Records)
		fmt.Printf("instructions:  %d (%.1f per block visit)\n",
			st.Instructions, float64(st.Instructions)/float64(st.Records))
		fmt.Printf("footprint:     %d blocks (%.1f KB)\n",
			st.UniqueBlocks, float64(st.FootprintBytes())/1024)
		fmt.Printf("sequential:    %.1f%% of visits fall through\n", st.SeqFraction()*100)
		for k := trace.KindSeq; k <= trace.KindTrap; k++ {
			fmt.Printf("  %-7s %9d (%.2f%%)\n", k, st.KindCounts[k],
				float64(st.KindCounts[k])/float64(st.Records)*100)
		}
		return
	}

	fmt.Fprintln(os.Stderr, "tracegen: nothing to do (use -out, -stats, or -list)")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
